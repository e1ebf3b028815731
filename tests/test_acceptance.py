"""Acceptance suite: one test per exit criterion, each printing a
[PASS] line with its measured numbers (run with -s to see them).

Criteria 5 and 6 train full models (about 10 and 20 seconds respectively
with the compiled sweeps); everything else finishes in seconds.
"""

import itertools
import json
import time

import numpy as np
import pytest

import oracles
from multitopic.cli import main
from multitopic.corpus import (
    BilingualCorpus,
    Corpus,
    Document,
    LoaderOptions,
    Vocabulary,
    load_corpus,
    write_corpus_jsonl,
)
from multitopic.dictionary import BilingualDictionary, load_dictionary, subsample
from multitopic.evaluate import (
    ReferenceCorpus,
    classify_crosslingual,
    cnpmi_model,
    cnpmi_topic,
    generate_reference,
    generate_synthetic,
    load_reference,
    majority_baseline_f1,
    top_words,
    write_reference,
)
from multitopic.logreg import loss_and_gradient
from multitopic.models import (
    Hyperparams,
    SideState,
    TopicModel,
    load_model,
    token_conditional,
    train,
)
from multitopic.schedule import AnnealScheduler, compute_lis
from multitopic.transfer import (
    AnnealConfig,
    FocusConfig,
    TransferMatrix,
    anneal_matrix,
    build_transfer_matrix,
    static_focus,
)
from multitopic.tree import build_tree

from test_models import assert_same_counts, build_bilingual, random_side
from test_transfer import brute_force_rows, dense, make_matrix, toy_corpus


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# -------------------------------------------------------------------------


def test_c01_joint_conditional_equivalence():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        own = rng.integers(0, 101, size=k)
        partner = rng.integers(0, 101, size=k)
        word = rng.integers(0, 101, size=k)
        totals = word + rng.integers(0, 101, size=k)
        vocab_size = int(rng.integers(1, 50))
        hp = Hyperparams(k=k, alpha=0.1, beta=0.01, train_iterations=1)
        side = SideState(
            tokens=np.zeros(1, dtype=np.int64),
            z=np.zeros(1, dtype=np.int64),
            doc_start=np.array([0, 1]),
            doc_topic=own[None, :].copy(),
            word_topic=np.vstack([word, np.zeros((max(vocab_size - 1, 0), k), dtype=np.int64)]),
            topic_total=totals.copy(),
        )
        conditional = token_conditional(side, 0, 0, hp, pseudo=partner)
        # joint formulation: the pair shares one topic distribution, i.e.
        # plain LDA over the pooled document counts
        pooled = SideState(
            tokens=side.tokens,
            z=side.z,
            doc_start=side.doc_start,
            doc_topic=(own + partner)[None, :],
            word_topic=side.word_topic,
            topic_total=side.topic_total,
        )
        joint = token_conditional(pooled, 0, 0, hp)
        worst = max(worst, float(np.abs(conditional - joint).max()))
    assert worst < 1e-12

    # matched seeds and sweep order: identical full trajectories
    rng = np.random.default_rng(102)
    corpus = build_bilingual(rng, links={0: 1, 2: 0, 4: 3})
    for iters in (1, 4, 10):
        hp = Hyperparams(k=4, train_iterations=iters, seed=31)
        cond = train("hardlink", corpus, hp, hardlink_formulation="conditional")
        joint = train("hardlink", corpus, hp, hardlink_formulation="joint")
        assert_same_counts(cond.counts, joint.counts)
        for s in (0, 1):
            assert np.array_equal(cond.phi[s], joint.phi[s])
            assert np.array_equal(cond.theta[s], joint.theta[s])
    elapsed = time.time() - started
    assert elapsed < 60
    report(1, f"joint vs conditional max diff {worst:.2e} over 1000 states, "
              f"trajectories identical; {elapsed:.1f}s")


def test_c02_sampler_enumeration_oracle():
    started = time.time()
    hp = Hyperparams(k=2, alpha=0.1, beta=0.01, beta_root=0.01,
                     beta_internal=100.0, train_iterations=1)
    single_concept = BilingualDictionary("l1", "l2", [(0, 0)])
    worst = {"lda": 0.0, "softlink": 0.0, "hardlink_cond": 0.0,
             "hardlink_joint": 0.0, "voclink": 0.0, "softlink_voclink": 0.0}
    n_instances = 0
    for vocab_size in (1, 2, 3):
        for t1 in range(1, 4):
            for t2 in range(1, 5 - t1):
                for w1 in itertools.product(range(vocab_size), repeat=t1):
                    for w2 in itertools.product(range(vocab_size), repeat=t2):
                        n_instances += 1
                        doc1, doc2 = list(w1), list(w2)
                        # fixed side-1 assignment supplying partner counts
                        z1_fixed = [i % 2 for i in range(t1)]
                        partner = [z1_fixed.count(0), z1_fixed.count(1)]
                        worst["lda"] = max(worst["lda"], oracles.check_plain_sampler(
                            [doc2], 2, vocab_size, hp))
                        worst["softlink"] = max(worst["softlink"], oracles.check_plain_sampler(
                            [doc2], 2, vocab_size, hp, pseudo=[[0.75, 1.5]]))
                        worst["hardlink_cond"] = max(
                            worst["hardlink_cond"],
                            oracles.check_hardlink_conditional(
                                [doc2], [partner], 2, vocab_size, hp))
                        worst["hardlink_joint"] = max(
                            worst["hardlink_joint"],
                            oracles.check_hardlink_joint(
                                doc1, doc2, 2, vocab_size, vocab_size, hp))
                        fixed = [[z1_fixed.count(0) if 0 in doc1 else 0,
                                  z1_fixed.count(1) if 0 in doc1 else 0]]
                        worst["voclink"] = max(worst["voclink"], oracles.check_voclink(
                            [doc2], 2, vocab_size, hp, single_concept, side=1,
                            fixed_concept=fixed))
                        worst["softlink_voclink"] = max(
                            worst["softlink_voclink"],
                            oracles.check_voclink(
                                [doc2], 2, vocab_size, hp, single_concept, side=1,
                                fixed_concept=fixed, pseudo=[[0.75, 1.5]]))
    # multi-membership paths: word 0 of language 2 in two concepts
    two_concepts = BilingualDictionary("l1", "l2", [(0, 0), (1, 0)])
    worst["voclink"] = max(worst["voclink"], oracles.check_voclink(
        [[0, 1], [0]], 2, 2, hp, two_concepts, side=1,
        fixed_concept=[[2, 0], [0, 1]]))
    assert all(err < 1e-10 for err in worst.values()), worst
    elapsed = time.time() - started
    assert elapsed < 60
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(2, f"{n_instances} instances enumerated; max errors: {summary}; "
              f"{elapsed:.1f}s")


def test_c03_reductions():
    rng = np.random.default_rng(103)
    hp = Hyperparams(k=3, alpha=0.1, beta=0.01, train_iterations=1)
    worst = 0.0
    for _ in range(300):
        side = random_side(rng, 3, 6, 3)
        doc = int(rng.integers(0, 3))
        pos = int(rng.integers(0, len(side.doc_tokens(doc))))
        source_counts = rng.integers(0, 40, size=(4, 3))

        # SoftLink with an indicator row == HardLink on that document
        target = int(rng.integers(0, 4))
        indicator = (np.array([target]), np.array([1.0]))
        pseudo = oracles.matrix_from_rows("l1", "l2", [indicator]).mix(source_counts)[0]
        soft = token_conditional(side, doc, pos, hp, pseudo=pseudo)
        hard = token_conditional(side, doc, pos, hp, pseudo=source_counts[target])
        worst = max(worst, float(np.abs(soft - hard).max()))

        # SoftLink with an empty row == LDA
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        lda = token_conditional(side, doc, pos, hp)
        pseudo0 = oracles.matrix_from_rows("l1", "l2", [empty]).mix(source_counts)[0]
        soft0 = token_conditional(side, doc, pos, hp, pseudo=pseudo0)
        worst = max(worst, float(np.abs(soft0 - lda).max()))

        # VocLink with an empty dictionary == LDA
        v1 = Vocabulary("l1", [f"a{i}" for i in range(6)])
        v2 = Vocabulary("l2", [f"b{i}" for i in range(6)])
        tree = build_tree(BilingualDictionary("l1", "l2", []), v1, v2, 3)
        tree.untrans_total[0][:] = side.topic_total
        voc = token_conditional(side, doc, pos, hp, tree=tree, side_index=0)
        worst = max(worst, float(np.abs(voc - lda).max()))

        # SoftLink at focal threshold 1 == LDA (all rows empty)
        raw = make_matrix([[(j, w) for j, w in enumerate(rng.dirichlet(np.ones(4)))]])
        focused = static_focus(raw, FocusConfig(threshold=1.0))
        assert len(focused.rows[0][0]) == 0
        soft1 = token_conditional(side, doc, pos, hp, pseudo=focused.mix(source_counts)[0])
        worst = max(worst, float(np.abs(soft1 - lda).max()))
    assert worst < 1e-12
    report(3, f"all four reductions hold; max per-token deviation {worst:.2e}")


def test_c04_transfer_matrix_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        v1, v2 = int(rng.integers(3, 15)), int(rng.integers(3, 15))
        d1, d2 = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        source_docs = [rng.integers(0, v1, size=rng.integers(1, 10)).tolist() for _ in range(d1)]
        target_docs = [rng.integers(0, v2, size=rng.integers(1, 10)).tolist() for _ in range(d2)]
        pairs = {
            (int(rng.integers(0, v1)), int(rng.integers(0, v2)))
            for _ in range(int(rng.integers(0, v1 * v2 // 2 + 1)))
        }
        matrix = build_transfer_matrix(
            toy_corpus("l2", target_docs, v2),
            toy_corpus("l1", source_docs, v1),
            BilingualDictionary("l1", "l2", sorted(pairs)),
        )
        expected = np.array(brute_force_rows(target_docs, source_docs, pairs))
        worst = max(worst, float(np.abs(dense(matrix, d1) - expected).max()))
    assert worst < 1e-12

    # focusing unit example
    focused = static_focus(
        make_matrix([[(0, 0.5), (1, 0.3), (2, 0.2)]]), FocusConfig(threshold=0.5)
    )
    np.testing.assert_allclose(focused.rows[0][1], [0.625, 0.375], atol=1e-12)
    # annealing unit example
    annealed = anneal_matrix(make_matrix([[(0, 0.8), (1, 0.2)]]), 0.9)
    a, b = 0.8 ** (1 / 0.9), 0.2 ** (1 / 0.9)
    np.testing.assert_allclose(annealed.rows[0][1], [a / (a + b), b / (a + b)], atol=1e-12)
    # repeated annealing drives the maximum weight towards 1
    rng = np.random.default_rng(105)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(3))
        while np.ptp(weights) < 1e-3:
            weights = rng.dirichlet(np.ones(3))
        matrix = make_matrix([list(enumerate(weights))])
        for _ in range(200):
            matrix = anneal_matrix(matrix, 0.9)
        assert matrix.rows[0][1].max() > 0.999
    report(4, f"50 random corpora match brute force (max diff {worst:.2e}); "
              "focusing/annealing examples and 200-step concentration hold")


SYNTH = dict(k=5, vocab_per_lang=500, docs_per_lang=200, doc_len=50,
             dict_coverage=0.3, topic_sharpness=8.0)
FOCUS = FocusConfig(threshold=0.6, scope="doc_wise")


def focused_matrices(corpus, dictionary):
    t1 = static_focus(build_transfer_matrix(corpus.side1, corpus.side2, dictionary), FOCUS)
    t2 = static_focus(build_transfer_matrix(corpus.side2, corpus.side1, dictionary), FOCUS)
    return t1, t2


@pytest.mark.slow
def test_c05_synthetic_recovery():
    started = time.time()
    lines = []
    for seed in (0, 1, 2):
        data = generate_synthetic(seed=seed, **SYNTH)
        ref = generate_reference(data.phi, 1000, 50, seed=seed + 100)
        hp = Hyperparams(k=5, train_iterations=500, seed=seed)

        lda = train("lda", data.corpus, hp)
        _, cnpmi_lda = cnpmi_model(lda, ref)

        t1, t2 = focused_matrices(data.corpus, data.dictionary)
        soft = train("softlink", data.corpus, hp, transfer_to_side1=t1, transfer_to_side2=t2)
        _, cnpmi_soft = cnpmi_model(soft, ref)
        assert cnpmi_soft - cnpmi_lda >= 0.05, (seed, cnpmi_lda, cnpmi_soft)

        labels1 = [list(labels) for labels in soft.doc_labels[0]]
        labels2 = [list(labels) for labels in soft.doc_labels[1]]
        for train_theta, train_labels, test_theta, test_labels in (
            (soft.theta[0], labels1, soft.theta[1], labels2),
            (soft.theta[1], labels2, soft.theta[0], labels1),
        ):
            f1 = classify_crosslingual(train_theta, train_labels, test_theta, test_labels, seed=seed)
            baseline = majority_baseline_f1(train_labels, test_labels)
            assert f1 - baseline >= 0.15, (seed, f1, baseline)
        lines.append(f"seed {seed}: cnpmi {cnpmi_lda:+.3f}->{cnpmi_soft:+.3f}, f1 {f1:.3f} vs {baseline:.3f}")
    elapsed = time.time() - started
    assert elapsed < 600
    report(5, "; ".join(lines) + f"; {elapsed:.0f}s")


@pytest.mark.slow
def test_c06_dictionary_size_trend():
    started = time.time()
    soft_scores = {0.2: [], 1.0: []}
    voc_scores = {0.2: [], 1.0: []}
    for seed in (0, 1, 2):
        data = generate_synthetic(seed=seed, **SYNTH)
        ref = generate_reference(data.phi, 1000, 50, seed=seed + 100)
        hp = Hyperparams(k=5, train_iterations=500, seed=seed)
        for fraction in (0.2, 1.0):
            dictionary = subsample(data.dictionary, fraction, seed=seed)
            t1, t2 = focused_matrices(data.corpus, dictionary)
            soft = train("softlink", data.corpus, hp,
                         transfer_to_side1=t1, transfer_to_side2=t2)
            soft_scores[fraction].append(cnpmi_model(soft, ref)[1])
            voc = train("voclink", data.corpus, hp, dictionary=dictionary)
            voc_scores[fraction].append(cnpmi_model(voc, ref)[1])
    soft_gap = abs(np.mean(soft_scores[0.2]) - np.mean(soft_scores[1.0]))
    voc_gap = np.mean(voc_scores[1.0]) - np.mean(voc_scores[0.2])
    assert soft_gap < 0.05, (soft_scores, soft_gap)
    assert voc_gap >= 0.02, (voc_scores, voc_gap)
    elapsed = time.time() - started
    assert elapsed < 1200
    report(6, f"softlink 3-seed means {np.mean(soft_scores[0.2]):+.3f} vs "
              f"{np.mean(soft_scores[1.0]):+.3f} (|gap| {soft_gap:.3f} < 0.05); "
              f"voclink gap {voc_gap:+.3f} >= 0.02; {elapsed:.0f}s")


def test_c07_cnpmi_analytic_fixtures():
    # degenerate perfectly coherent model: exact mean 1.0
    phi1 = np.eye(2, 6)
    phi2 = np.eye(2, 6)
    model = TopicModel(
        model_kind="lda", hyperparams=Hyperparams(k=2, train_iterations=1),
        vocabularies=(Vocabulary("l1", [f"a{i}" for i in range(6)]),
                      Vocabulary("l2", [f"b{i}" for i in range(6)])),
        phi=(phi1, phi2), theta=(np.zeros((0, 2)), np.zeros((0, 2))),
        doc_ids=([], []), doc_labels=([], []),
    )
    pairs = [([0], [0])] * 2 + [([1], [1])] * 2 + [([4], [4])] * 6
    ref = ReferenceCorpus([(frozenset(a), frozenset(b)) for a, b in pairs])
    per_topic, mean = cnpmi_model(model, ref, c=1)
    assert per_topic == [1.0, 1.0] and mean == 1.0

    # random model against a random reference: near-zero mean
    rng = np.random.default_rng(2026)
    vocab_size, k = 200, 5
    rand_model = TopicModel(
        model_kind="lda", hyperparams=Hyperparams(k=k, train_iterations=1),
        vocabularies=(Vocabulary("l1", [f"a{i}" for i in range(vocab_size)]),
                      Vocabulary("l2", [f"b{i}" for i in range(vocab_size)])),
        phi=(rng.dirichlet(np.ones(vocab_size), size=k),
             rng.dirichlet(np.ones(vocab_size), size=k)),
        theta=(np.zeros((0, k)), np.zeros((0, k))),
        doc_ids=([], []), doc_labels=([], []),
    )
    rand_pairs = [
        (frozenset(rng.choice(vocab_size, size=30, replace=False).tolist()),
         frozenset(rng.choice(vocab_size, size=30, replace=False).tolist()))
        for _ in range(10000)
    ]
    rand_ref = ReferenceCorpus(rand_pairs)
    per_topic, rand_mean = cnpmi_model(rand_model, rand_ref)
    assert abs(rand_mean) < 0.05
    assert all(-1.0 <= v <= 1.0 for v in per_topic)

    # bounds on adversarial small references
    for _ in range(200):
        n = int(rng.integers(1, 8))
        small = ReferenceCorpus([
            (frozenset(rng.integers(0, 4, size=rng.integers(1, 4)).tolist()),
             frozenset(rng.integers(0, 4, size=rng.integers(1, 4)).tolist()))
            for _ in range(n)
        ])
        value = cnpmi_topic([0, 1, 2], [0, 1, 2], small)
        assert -1.0 <= value <= 1.0
    report(7, f"degenerate model mean exactly 1.0; random baseline {rand_mean:+.5f}; "
              "all terms within [-1, 1]")


def test_c08_lis_fixtures():
    rng = np.random.default_rng(108)
    dictionary = BilingualDictionary("l1", "l2", [(i, i) for i in range(120)])

    counts = rng.integers(0, 30, size=(120, 4))
    symmetric = compute_lis((counts, counts.copy()), dictionary, beta=0.01)
    assert abs(symmetric - 0.5) <= 0.1

    counts1 = np.zeros((120, 4), dtype=np.int64)
    counts2 = np.zeros((120, 4), dtype=np.int64)
    counts1[:, 0] = 40
    counts2[:, 1] = 40
    separated = compute_lis((counts1, counts2), dictionary, beta=0.01)
    assert separated >= 0.95

    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(15, 4))
        y = rng.integers(0, 2, size=15).astype(np.float64)
        w = rng.normal(size=4)
        b = float(rng.normal())
        _, grad_w, grad_b = loss_and_gradient(w, b, x, y)
        h = 1e-6
        for j in range(4):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            numeric = (loss_and_gradient(wp, b, x, y)[0]
                       - loss_and_gradient(wm, b, x, y)[0]) / (2 * h)
            worst = max(worst, abs(numeric - grad_w[j]) / max(1.0, abs(grad_w[j])))
        numeric_b = (loss_and_gradient(w, b + h, x, y)[0]
                     - loss_and_gradient(w, b - h, x, y)[0]) / (2 * h)
        worst = max(worst, abs(numeric_b - grad_b) / max(1.0, abs(grad_b)))
    assert worst < 1e-5
    report(8, f"symmetric LIS {symmetric:.3f}, separated LIS {separated:.3f}, "
              f"max relative gradient error {worst:.1e}")


def test_c09_fixed_schedule_accounting():
    matrix = make_matrix([[(0, 0.7), (1, 0.3)]] * 3)
    cfg = AnnealConfig(schedule="fixed", interval=10, stop_iteration=400)
    scheduler = AnnealScheduler(cfg, [matrix])
    for iteration in range(1, 1001):
        scheduler.after_iteration(iteration, lambda: None)
    assert len(scheduler.events) == 40
    assert [e["iteration"] for e in scheduler.events] == list(range(10, 401, 10))
    report(9, "interval 10 with stop 400 yields exactly 40 annealing events")


def test_c10_determinism_and_round_trip(tmp_path):
    # synthetic data through the CLI, twice, into different directories
    synth_args = ["synth", "--k", "3", "--vocab", "60", "--docs", "12",
                  "--doc-len", "15", "--dict-coverage", "0.4", "--seed", "9",
                  "--reference-pairs", "25"]
    assert main(synth_args + ["--output-dir", str(tmp_path / "s1")]) == 0
    assert main(synth_args + ["--output-dir", str(tmp_path / "s2")]) == 0
    for name in ("corpus1.jsonl", "corpus2.jsonl", "dictionary.tsv",
                 "reference.jsonl", "truth.json"):
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()

    config = {
        "model": "softlink_voclink",
        "seed": 4,
        "k": 3,
        "train_iterations": 8,
        "top_frequent": 0,
        "anneal": {"schedule": "fixed", "interval": 2, "stop_iteration": 6},
        "paths": {
            "corpus1": str(tmp_path / "s1" / "corpus1.jsonl"),
            "corpus2": str(tmp_path / "s1" / "corpus2.jsonl"),
            "language1": "l1",
            "language2": "l2",
            "dictionary": str(tmp_path / "s1" / "dictionary.tsv"),
            "output_dir": str(tmp_path / "m1"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path),
                 "--output-dir", str(tmp_path / "m2")]) == 0
    model_bytes1 = (tmp_path / "m1" / "model.json").read_bytes()
    model_bytes2 = (tmp_path / "m2" / "model.json").read_bytes()
    assert model_bytes1 == model_bytes2
    anneal1 = (tmp_path / "m1" / "anneal_log.jsonl").read_bytes()
    anneal2 = (tmp_path / "m2" / "anneal_log.jsonl").read_bytes()
    assert anneal1 == anneal2

    # every emitted format parses back through its loader
    corpus1 = load_corpus(tmp_path / "s1" / "corpus1.jsonl", "l1", LoaderOptions(top_frequent=0))
    corpus2 = load_corpus(tmp_path / "s1" / "corpus2.jsonl", "l2", LoaderOptions(top_frequent=0))
    dictionary = load_dictionary(tmp_path / "s1" / "dictionary.tsv",
                                 corpus1.vocabulary, corpus2.vocabulary)
    assert len(dictionary) > 0
    reference = load_reference(tmp_path / "s1" / "reference.jsonl",
                               corpus1.vocabulary, corpus2.vocabulary)
    assert reference.n_pairs == 25
    model = load_model(tmp_path / "m1" / "model.json")
    assert model.model_kind == "softlink_voclink"
    for side in (0, 1):
        np.testing.assert_allclose(model.phi[side].sum(axis=1), 1.0, atol=1e-9)

    # corpus serialization: JSON-lines round trip
    round_path = tmp_path / "round.jsonl"
    write_corpus_jsonl(corpus1, round_path)
    reloaded = load_corpus(round_path, "l1", LoaderOptions(top_frequent=0))
    assert reloaded.vocabulary == corpus1.vocabulary
    assert [d.tokens for d in reloaded.documents] == [d.tokens for d in corpus1.documents]

    # reference writer round trip
    ref_path = tmp_path / "ref_round.jsonl"
    write_reference(reference, corpus1.vocabulary, corpus2.vocabulary, ref_path)
    assert load_reference(ref_path, corpus1.vocabulary, corpus2.vocabulary).pairs == reference.pairs

    # manifest captures config and seed
    manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
    assert manifest["seed"] == 4 and len(manifest["config_hash"]) == 64
    report(10, "byte-identical reruns and loader round trips for every format")
