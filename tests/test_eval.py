"""CNPMI fixtures, brute-force recount and set-intersection parity,
reference loading, classification micro-F1, synthetic data generation."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import cnpmi_topic_reference, npmi_reference, pair_set, parse_reference_reference

from multitopic import evaluate
from multitopic.corpus import Vocabulary
from multitopic.errors import ConfigError, DataError
from multitopic.evaluate import (
    EvalReport,
    ReferenceCorpus,
    classify_crosslingual,
    cnpmi_model,
    cnpmi_topic,
    generate_reference,
    generate_synthetic,
    load_reference,
    majority_baseline_f1,
    micro_f1,
    top_words,
    write_reference,
)
from multitopic.models import Hyperparams, TopicModel


# derandomized: every run checks the same generated cases
SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def ref_from_sets(pairs):
    return ReferenceCorpus(
        [(frozenset(a), frozenset(b)) for a, b in pairs]
    )


def entry_rows(ref, side):
    """The (pair, word) rows of one side, sorted."""
    return sorted(map(tuple, ref.entries[side].tolist()))


class TestTopWords:
    def test_simple_ordering(self):
        assert top_words(np.array([0.5, 0.3, 0.2]), 2) == [0, 1]

    def test_uniform_breaks_ties_by_id(self):
        assert top_words(np.array([0.25, 0.25, 0.25, 0.25]), 2) == [0, 1]

    def test_full_vocabulary_descending(self):
        assert top_words(np.array([0.1, 0.6, 0.3]), 3) == [1, 2, 0]

    def test_too_many_requested_rejected(self):
        with pytest.raises(ConfigError):
            top_words(np.array([1.0]), 2)

    @pytest.mark.parametrize("c", [0, -1, -3])
    def test_fewer_than_one_requested_rejected(self, c):
        # a negative count would otherwise slice off the last |c| words
        with pytest.raises(ConfigError, match="must be positive"):
            top_words(np.array([0.5, 0.3, 0.1, 0.1]), c)


class TestCnpmiTopic:
    def test_perfect_cooccurrence_scores_one_exactly(self):
        # both words appear together in exactly 1 of 5 pairs (p = 0.2)
        ref = ref_from_sets([([0], [0])] + [([1], [1])] * 4)
        assert cnpmi_topic([0], [0], ref) == 1.0

    def test_independent_words_score_zero(self):
        # p1 = 2/4, p2 = 2/4, joint = 1/4 = p1 * p2
        ref = ref_from_sets([([0], [9]), ([0], [1]), ([9], [1]), ([9], [9])])
        assert cnpmi_topic([0], [1], ref) == 0.0

    def test_never_cooccurring_scores_minus_one(self):
        ref = ref_from_sets([([0], [9]), ([9], [1])])
        assert cnpmi_topic([0], [1], ref) == -1.0

    def test_zero_marginal_scores_zero(self):
        ref = ref_from_sets([([0], [1])])
        assert cnpmi_topic([7], [1], ref) == 0.0

    def test_word_in_every_pair_scores_zero(self):
        ref = ref_from_sets([([0], [1]), ([0], [1])])
        assert cnpmi_topic([0], [1], ref) == 0.0

    def test_mean_over_cross_pairs(self):
        ref = ref_from_sets([([0], [0])] + [([1], [1])] * 4)
        # pairs: (0,0) -> 1.0; (0,1) -> -1.0; (1,0) -> -1.0; (1,1) -> 1.0
        assert cnpmi_topic([0, 1], [0, 1], ref) == 0.0

    def test_invariant_to_word_order(self):
        rng = np.random.default_rng(0)
        pairs = [
            (rng.integers(0, 10, size=5).tolist(), rng.integers(0, 10, size=5).tolist())
            for _ in range(30)
        ]
        ref = ref_from_sets(pairs)
        words1 = [0, 3, 7]
        words2 = [1, 4, 8]
        a = cnpmi_topic(words1, words2, ref)
        b = cnpmi_topic(words1[::-1], words2[::-1], ref)
        assert a == b

    def test_matches_brute_force_recount(self):
        """Oracle: recount every co-occurrence by scanning all pairs."""
        import math

        rng = np.random.default_rng(1)
        pairs = [
            (rng.integers(0, 12, size=6).tolist(), rng.integers(0, 12, size=6).tolist())
            for _ in range(50)
        ]
        ref = ref_from_sets(pairs)
        words1 = [0, 2, 4, 6]
        words2 = [1, 3, 5, 7]

        def brute():
            sets1 = [set(a) for a, _ in pairs]
            sets2 = [set(b) for _, b in pairs]
            total = len(pairs)
            acc = 0.0
            for w1 in words1:
                for w2 in words2:
                    c1 = sum(1 for s in sets1 if w1 in s)
                    c2 = sum(1 for s in sets2 if w2 in s)
                    c12 = sum(
                        1 for s1, s2 in zip(sets1, sets2) if w1 in s1 and w2 in s2
                    )
                    if c1 == 0 or c2 == 0:
                        term = 0.0
                    elif c12 == 0:
                        term = -1.0
                    elif c12 == total:
                        term = 0.0
                    else:
                        pmi = math.log(c12 / total) - math.log(c1 / total) - math.log(c2 / total)
                        term = pmi / (-math.log(c12 / total))
                    acc += term
            return acc / (len(words1) * len(words2))

        assert cnpmi_topic(words1, words2, ref) == brute()

    def test_all_terms_within_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pairs = [
                (rng.integers(0, 6, size=3).tolist(), rng.integers(0, 6, size=3).tolist())
                for _ in range(rng.integers(2, 20))
            ]
            ref = ref_from_sets(pairs)
            value = cnpmi_topic([0, 1], [0, 1], ref)
            assert -1.0 <= value <= 1.0

    def test_empty_word_list_rejected(self):
        ref = ref_from_sets([([0], [0])])
        with pytest.raises(ConfigError):
            cnpmi_topic([], [0], ref)


def tiny_model(phi1, phi2, k):
    v = phi1.shape[1]
    return TopicModel(
        model_kind="lda",
        hyperparams=Hyperparams(k=k, train_iterations=1),
        vocabularies=(
            Vocabulary("l1", [f"a{i}" for i in range(v)]),
            Vocabulary("l2", [f"b{i}" for i in range(v)]),
        ),
        phi=(phi1, phi2),
        theta=(np.zeros((0, k)), np.zeros((0, k))),
        doc_ids=([], []),
        doc_labels=([], []),
    )


class TestCnpmiModel:
    def test_degenerate_coherent_model_scores_one(self):
        # each topic's top word pair co-occurs in its own fifth of the pairs
        phi1 = np.eye(2, 6)
        phi2 = np.eye(2, 6)
        model = tiny_model(phi1, phi2, 2)
        pairs = []
        for topic in range(2):
            pairs.extend([([topic], [topic])] * 2)
        pairs.extend([([4], [4])] * 6)
        ref = ref_from_sets(pairs)
        per_topic, mean = cnpmi_model(model, ref, c=1)
        assert per_topic == [1.0, 1.0]
        assert mean == 1.0

    def test_equals_mean_of_per_topic_scores(self):
        rng = np.random.default_rng(3)
        phi1 = rng.dirichlet(np.ones(8), size=2)
        phi2 = rng.dirichlet(np.ones(8), size=2)
        model = tiny_model(phi1, phi2, 2)
        pairs = [
            (rng.integers(0, 8, size=4).tolist(), rng.integers(0, 8, size=4).tolist())
            for _ in range(40)
        ]
        ref = ref_from_sets(pairs)
        per_topic, mean = cnpmi_model(model, ref, c=3)
        expected = [
            cnpmi_topic(top_words(phi1[k], 3), top_words(phi2[k], 3), ref)
            for k in range(2)
        ]
        assert per_topic == expected
        assert mean == pytest.approx(np.mean(expected), abs=1e-15)


@st.composite
def references(draw, vocab):
    """Random reference pairs over `vocab` word ids per side, sometimes
    with one word present in every pair on both sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.4, 0.9]))
    pairs = []
    # past 64 pairs a membership row spans more than one uint64 word
    for _ in range(draw(st.integers(1, 150))):
        sides = []
        for _ in range(2):
            types = np.flatnonzero(rng.random(vocab) < density).tolist()
            sides.append(frozenset(types or [int(rng.integers(vocab))]))
        pairs.append(tuple(sides))
    if draw(st.booleans()):
        everywhere = draw(st.integers(0, vocab - 1))
        pairs = [(s1 | {everywhere}, s2 | {everywhere}) for s1, s2 in pairs]
    return pairs


@st.composite
def cnpmi_topic_cases(draw):
    vocab = draw(st.integers(1, 12))
    # ids absent from the reference, negative or far beyond its vocabulary;
    # a list may repeat a word, and the two lists may differ in length
    word = st.integers(-2, vocab + 3) | st.integers(0, 10**6)
    words = st.lists(word, min_size=1, max_size=8)
    return draw(references(vocab)), draw(words), draw(words)


# every _npmi branch: (0, 0) is in both pairs, (1, 1) co-occurs once,
# (1, 3) never, and word 9 is in no pair
FOUR_BRANCHES = ([({0, 1}, {0, 1}), ({0, 2}, {0, 3})], [0, 1, 2, 9], [0, 1, 3, 9])


class TestCnpmiParity:
    """The array path against the per-pair set-intersection loop it
    replaced (`tests/oracles.py`), compared with `==`."""

    def test_popcount_counts_every_bit_of_a_word(self):
        rng = np.random.default_rng(5)
        values = [0, 1, 2**63, 2**64 - 1, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA]
        values += rng.integers(0, 2**64, size=50, dtype=np.uint64).tolist()
        words = np.array(values, dtype=np.uint64)
        assert evaluate._popcount(words).tolist() == [bin(v).count("1") for v in values]

    def test_fixture_reaches_every_npmi_branch(self):
        pairs, words1, words2 = FOUR_BRANCHES
        counts = {}
        for w1 in words1:
            for w2 in words2:
                c1 = sum(w1 in a for a, _ in pairs)
                c2 = sum(w2 in b for _, b in pairs)
                c12 = sum(w1 in a and w2 in b for a, b in pairs)
                branch = (
                    "zero marginal" if not (c1 and c2) else "never together" if not c12
                    else "always together" if c12 == len(pairs) else "regular"
                )
                counts.setdefault(branch, []).append(npmi_reference(c1, c2, c12, len(pairs)))
        assert set(counts) == {"zero marginal", "never together", "always together", "regular"}
        assert set(counts["never together"]) == {-1.0}

    @SETTINGS
    @example(case=FOUR_BRANCHES)
    @given(case=cnpmi_topic_cases())
    def test_topic_matches_set_intersections(self, case):
        pairs, words1, words2 = case
        ref = ref_from_sets(pairs)
        assert cnpmi_topic(words1, words2, ref) == cnpmi_topic_reference(words1, words2, pairs)

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 22])
    @settings(SETTINGS, max_examples=30)
    @given(data=st.data())
    def test_model_matches_set_intersections_per_topic(self, monkeypatch, chunk_bytes, data):
        # chunk_bytes=1 scores one topic per chunk
        monkeypatch.setattr(evaluate, "_CHUNK_BYTES", chunk_bytes)
        v1, v2 = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        k = data.draw(st.integers(2, 6))
        c = data.draw(st.integers(1, min(v1, v2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # few distinct values, so the top words have ties
        phi1 = rng.integers(0, 3, size=(k, v1)) / 4.0
        phi2 = rng.integers(0, 3, size=(k, v2)) / 4.0
        pairs = data.draw(references(max(v1, v2)))
        per_topic, mean = cnpmi_model(tiny_model(phi1, phi2, k), ref_from_sets(pairs), c=c)
        assert per_topic == [
            cnpmi_topic_reference(top_words(phi1[t], c), top_words(phi2[t], c), pairs)
            for t in range(k)
        ]
        assert mean == float(np.mean(per_topic))


class TestMicroF1:
    def test_hand_example_two_thirds(self):
        assert micro_f1(tp=2, fp=1, fn=1) == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect_predictions(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]] * 5)
        labels = [["x"] if row[0] > 0.5 else ["y"] for row in theta]
        f1 = classify_crosslingual(theta, labels, theta, labels)
        assert f1 == 1.0

    def test_no_predicted_positives_scores_zero(self):
        assert micro_f1(tp=0, fp=0, fn=5) == 0.0

    def test_separable_self_classification(self):
        rng = np.random.default_rng(4)
        theta = np.vstack(
            [rng.dirichlet([20, 1, 1], 30), rng.dirichlet([1, 20, 1], 30)]
        )
        labels = [["a"]] * 30 + [["b"]] * 30
        assert classify_crosslingual(theta, labels, theta, labels) >= 0.95

    def test_label_without_positives_dropped(self):
        theta = np.array([[0.9, 0.1], [0.1, 0.9]] * 10)
        train_labels = [["a"] if r[0] > 0.5 else ["b"] for r in theta]
        test_labels = list(train_labels)
        test_labels[0] = ["a", "ghost"]  # ghost never appears in training
        f1 = classify_crosslingual(theta, train_labels, theta, test_labels)
        assert f1 > 0.9

    def test_label_absent_from_training_counts_its_test_positives_as_misses(self):
        # "a" is fitted and predicted nowhere on the test side; every test
        # document carries "b", which no training document does
        theta = np.array([[0.9, 0.1], [0.1, 0.9]] * 5)
        train_labels = [["a"]] + [[]] * 9
        assert classify_crosslingual(theta, train_labels, theta, [["b"]] * 10) == 0.0

    def test_majority_baseline(self):
        train = [["a"], ["a"], ["b"]]
        test = [["a"], ["b"], ["b"]]
        # predict "a" everywhere: tp=1, fp=2, fn for the two b's = 2,
        # so micro-F1 = 2*1 / (2*1 + 2 + 2)
        assert majority_baseline_f1(train, test) == pytest.approx(1 / 3, abs=1e-15)


class TestSynthetic:
    def test_deterministic_under_seed(self):
        a = generate_synthetic(3, 30, 10, 15, 0.4, 8.0, seed=5)
        b = generate_synthetic(3, 30, 10, 15, 0.4, 8.0, seed=5)
        for s in (0, 1):
            assert np.array_equal(a.phi[s], b.phi[s])
            assert np.array_equal(a.theta[s], b.theta[s])
        docs_a = [(d.doc_id, d.tokens) for d in a.corpus.side1.documents]
        docs_b = [(d.doc_id, d.tokens) for d in b.corpus.side1.documents]
        assert docs_a == docs_b

    def test_zero_coverage_gives_empty_dictionary(self):
        data = generate_synthetic(2, 20, 4, 10, 0.0, 8.0, seed=0)
        assert len(data.dictionary) == 0

    def test_coverage_counts_pairs(self):
        data = generate_synthetic(2, 20, 4, 10, 0.25, 8.0, seed=0)
        assert len(data.dictionary) == 5
        assert pair_set(data.dictionary) == {(i, i) for i in range(5)}

    def test_infinite_sharpness_gives_single_topic_documents(self):
        data = generate_synthetic(4, 40, 12, 20, 0.5, float("inf"), seed=1)
        for theta in data.theta:
            assert ((theta == 0) | (theta == 1)).all()
            np.testing.assert_array_equal(theta.sum(axis=1), np.ones(len(theta)))

    def test_labels_match_dominant_topic(self):
        data = generate_synthetic(3, 30, 8, 10, 0.5, 8.0, seed=2)
        for side, corpus in enumerate((data.corpus.side1, data.corpus.side2)):
            for d, doc in enumerate(corpus.documents):
                expected = f"topic_{int(np.argmax(data.theta[side][d]))}"
                assert doc.labels == frozenset([expected])

    def test_paired_words_have_matched_probabilities(self):
        data = generate_synthetic(3, 30, 4, 10, 1.0, 8.0, seed=3)
        np.testing.assert_array_equal(data.phi[0], data.phi[1])


class TestReference:
    def test_generate_reference_sides_nonempty_and_deterministic(self):
        data = generate_synthetic(3, 40, 4, 10, 0.5, 8.0, seed=4)
        a = generate_reference(data.phi, 50, 12, seed=9)
        b = generate_reference(data.phi, 50, 12, seed=9)
        assert a.n_pairs == 50
        assert all(s1 and s2 for s1, s2 in a.pairs)
        assert a.pairs == b.pairs

    def test_file_round_trip(self, tmp_path):
        v1 = Vocabulary("l1", ["a0", "a1", "a2"])
        v2 = Vocabulary("l2", ["b0", "b1", "b2"])
        ref = ref_from_sets([([0, 1], [2]), ([2], [0, 1])])
        path = tmp_path / "ref.jsonl"
        write_reference(ref, v1, v2, path)
        loaded = load_reference(path, v1, v2)
        assert loaded.pairs == ref.pairs

    def test_loader_drops_oov_and_empty_pairs(self, tmp_path):
        v1 = Vocabulary("l1", ["a0"])
        v2 = Vocabulary("l2", ["b0"])
        path = tmp_path / "ref.jsonl"
        path.write_text(
            '{"l1_types": ["a0", "zzz"], "l2_types": ["b0"]}\n'
            '{"l1_types": ["zzz"], "l2_types": ["b0"]}\n'
        )
        loaded = load_reference(path, v1, v2)
        assert loaded.n_pairs == 1

    def test_empty_side_rejected_at_construction(self):
        with pytest.raises(DataError):
            ReferenceCorpus([(frozenset(), frozenset([1]))])

    def test_negative_word_id_rejected_at_construction(self):
        with pytest.raises(DataError, match="non-negative"):
            ReferenceCorpus([(frozenset([0]), frozenset([-1]))])

    def test_entries_hold_each_pairs_types_once(self):
        ref = ref_from_sets([([3, 0], [1]), ([0], [2, 1, 2])])
        assert ref.entries[0].dtype == ref.entries[1].dtype == np.int64
        assert entry_rows(ref, 0) == [(0, 0), (0, 3), (1, 0)]
        assert entry_rows(ref, 1) == [(0, 1), (1, 1), (1, 2)]

    def test_type_repeated_within_a_line_counts_once(self, tmp_path):
        v1 = Vocabulary("l1", ["a0", "a1"])
        v2 = Vocabulary("l2", ["b0", "b1"])
        path = tmp_path / "ref.jsonl"
        path.write_text(
            '{"l1_types": ["a0", "a0", "a1"], "l2_types": ["b0", "b0"]}\n'
            '{"l1_types": ["a1"], "l2_types": ["b1"]}\n'
        )
        loaded = load_reference(path, v1, v2)
        assert loaded.pairs == [(frozenset([0, 1]), frozenset([0])), (frozenset([1]), frozenset([1]))]
        assert entry_rows(loaded, 0) == [(0, 0), (0, 1), (1, 1)]
        assert entry_rows(loaded, 1) == [(0, 0), (1, 1)]
        # a0 and b0 share their one pair of two: NPMI 1, not inflated by the repeats
        assert cnpmi_topic([0], [0], loaded) == 1.0


FUZZ_VOCABULARIES = (Vocabulary("l1", ["a0", "a1", "a2"]), Vocabulary("l2", ["b0", "b1"]))
KEYS = ("l1_types", "l2_types")


@st.composite
def mutated_reference_files(draw):
    """A valid reference file with a few lines mutated: a key dropped, a
    type list replaced by a non-list or given a non-string, a type
    repeated, a line truncated or blanked."""
    types = {
        "l1_types": st.lists(st.sampled_from(["a0", "a1", "a2", "zz"]), max_size=4),
        "l2_types": st.lists(st.sampled_from(["b0", "b1", "zz"]), max_size=4),
    }
    lines = draw(st.lists(st.fixed_dictionaries(types), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line, key = lines[i], draw(st.sampled_from(KEYS))
        mutation = draw(st.sampled_from(
            ["drop key", "not a list", "not a string", "repeat", "truncate", "blank"]
        ))
        if mutation == "truncate" or mutation == "blank":
            text = line if isinstance(line, str) else json.dumps(line)
            lines[i] = (
                text[: draw(st.integers(0, max(0, len(text) - 1)))] if mutation == "truncate"
                else draw(st.sampled_from(["", " ", "\t"]))
            )
        elif isinstance(line, dict) and key in line:
            if mutation == "drop key":
                del line[key]
            elif mutation == "not a list":
                line[key] = draw(st.sampled_from(["a0", 3, None, {"a0": 1}, True]))
            elif isinstance(line[key], list):
                extra = draw(st.sampled_from([1, None, ["a0"], 2.5, False]))
                line[key] = line[key] + (line[key][:1] if mutation == "repeat" else [extra])
    return "".join((ln if isinstance(ln, str) else json.dumps(ln)) + "\n" for ln in lines)


@SETTINGS
@given(text=mutated_reference_files())
def test_mutated_reference_file_loads_as_the_oracle_parses_or_is_a_data_error(tmp_path, text):
    path = tmp_path / "ref.jsonl"
    path.write_text(text, encoding="utf-8")
    want = parse_reference_reference(text, *FUZZ_VOCABULARIES)
    try:
        loaded = load_reference(path, *FUZZ_VOCABULARIES)
    except DataError:
        assert want is None
        return
    assert loaded.pairs == want
    for side in (0, 1):
        assert entry_rows(loaded, side) == sorted(
            (i, w) for i, pair in enumerate(want) for w in pair[side]
        )


class TestEvalReport:
    def test_finite_report_keeps_its_bytes(self, tmp_path):
        report = EvalReport(cnpmi_per_topic=[0.25, -0.5], cnpmi_mean=-0.125, lis_final=0.75)
        path = tmp_path / "report.json"
        report.save(path)
        want = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == want
        assert report.to_text() + "\n" == want

    def test_nan_cnpmi_mean_is_a_data_error_and_writes_nothing(self, tmp_path):
        report = EvalReport(cnpmi_per_topic=[0.25, float("nan")], cnpmi_mean=float("nan"))
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="not JSON compliant"):
            report.save(path)
        assert not path.exists()
        with pytest.raises(DataError, match="not JSON compliant"):
            report.to_text()
