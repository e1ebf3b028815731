"""Sampler conditionals against hand computations and exhaustive
enumeration; model-family reductions; training behavior."""

import numpy as np
import pytest

from multitopic.corpus import BilingualCorpus, Corpus, Document, Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic.errors import ConfigError, DataError
from multitopic.models import (
    Hyperparams,
    SideState,
    hardlink_conditional,
    infer_heldout,
    lda_conditional,
    softlink_conditional,
    softlink_prior,
    tally_side,
    train,
    voclink_conditional,
)
from multitopic.transfer import TransferMatrix
from multitopic.tree import build_tree

import oracles


def hp_for(k=2, alpha=0.1, beta=0.01, **kw):
    return Hyperparams(k=k, alpha=alpha, beta=beta, train_iterations=5, **kw)


def manual_side(tokens, doc_topic, word_topic, topic_total):
    return SideState(
        tokens=[list(t) for t in tokens],
        doc_topic=np.array(doc_topic, dtype=np.int64),
        word_topic=np.array(word_topic, dtype=np.int64),
        topic_total=np.array(topic_total, dtype=np.int64),
        z=[np.zeros(len(t), dtype=np.int64) for t in tokens],
    )


def random_side(rng, n_topics, vocab_size, n_docs, max_len=6):
    tokens = [
        rng.integers(0, vocab_size, size=int(rng.integers(1, max_len + 1))).tolist()
        for _ in range(n_docs)
    ]
    z = [rng.integers(0, n_topics, size=len(t)).tolist() for t in tokens]
    return tally_side(tokens, z, n_topics, vocab_size)


class TestLdaConditional:
    def test_symmetric_when_counts_zero(self):
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        np.testing.assert_allclose(
            lda_conditional(side, 0, 0, hp_for()), [0.5, 0.5], atol=0
        )

    def test_hand_computed_example(self):
        # K=2, alpha=beta=1, V=2, n_kd=(1,0), n_wk=(1,0), n_.k=(1,0)
        side = manual_side([[0]], [[1, 0]], [[1, 0], [0, 0]], [1, 0])
        hp = hp_for(alpha=1.0, beta=1.0)
        np.testing.assert_allclose(
            lda_conditional(side, 0, 0, hp), [8 / 11, 3 / 11], atol=1e-15
        )

    def test_negative_count_rejected(self):
        side = manual_side([[0]], [[-1, 0]], [[0, 0], [0, 0]], [0, 0])
        with pytest.raises(DataError, match="negative"):
            lda_conditional(side, 0, 0, hp_for())

    def test_matches_enumeration_oracle_tiny_instance(self):
        hp = hp_for(alpha=0.3, beta=0.2)
        err = oracles.check_plain_sampler([[0, 1], [2]], 2, 3, hp)
        assert err < 1e-10


class TestHardlinkConditional:
    def test_zero_partner_reduces_to_lda(self):
        rng = np.random.default_rng(0)
        hp = hp_for()
        for _ in range(20):
            side = random_side(rng, 2, 4, 3)
            got = hardlink_conditional(side, 0, 0, np.zeros(2, dtype=np.int64), hp)
            np.testing.assert_array_equal(got, lda_conditional(side, 0, 0, hp))

    def test_hand_computed_partner_dominates(self):
        # alpha=0.1, partner=(10,0), own zero, uniform word term
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        got = hardlink_conditional(side, 0, 0, np.array([10, 0]), hp_for())
        np.testing.assert_allclose(got, [10.1 / 10.2, 0.1 / 10.2], atol=1e-15)

    def test_matches_enumeration_oracle(self):
        hp = hp_for(alpha=0.4, beta=0.3)
        err = oracles.check_hardlink_conditional(
            [[0, 1]], [[3, 1]], 2, 2, hp
        )
        assert err < 1e-10

    def test_joint_formulation_matches_oracle(self):
        hp = hp_for(alpha=0.4, beta=0.3)
        err = oracles.check_hardlink_joint([0, 1], [1, 0], 2, 2, 2, hp)
        assert err < 1e-10


class TestSoftlinkPrior:
    def test_indicator_row_selects_one_document(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        row = (np.array([1]), np.array([1.0]))
        np.testing.assert_array_equal(softlink_prior(row, counts), [0.0, 4.0])

    def test_mixture_hand_example(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        row = (np.array([0, 1]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(softlink_prior(row, counts), [2.0, 2.0], atol=0)

    def test_empty_row_gives_zero_vector(self):
        counts = np.array([[4, 0]], dtype=np.int64)
        row = (np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_array_equal(softlink_prior(row, counts), [0.0, 0.0])

    def test_out_of_range_index_rejected(self):
        counts = np.array([[4, 0]], dtype=np.int64)
        row = (np.array([5]), np.array([1.0]))
        with pytest.raises(DataError):
            softlink_prior(row, counts)


class TestSoftlinkConditional:
    def test_zero_pseudo_equals_lda(self):
        rng = np.random.default_rng(1)
        hp = hp_for()
        for _ in range(20):
            side = random_side(rng, 3, 4, 2)
            got = softlink_conditional(side, 0, 0, np.zeros(3), hp)
            np.testing.assert_array_equal(got, lda_conditional(side, 0, 0, hp))

    def test_indicator_pseudo_equals_hardlink(self):
        rng = np.random.default_rng(2)
        hp = hp_for()
        for _ in range(20):
            side = random_side(rng, 2, 4, 2)
            partner = rng.integers(0, 8, size=2)
            soft = softlink_conditional(side, 0, 0, partner.astype(np.float64), hp)
            hard = hardlink_conditional(side, 0, 0, partner, hp)
            np.testing.assert_allclose(soft, hard, atol=1e-15)

    def test_fractional_prior_hand_example(self):
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        got = softlink_conditional(side, 0, 0, np.array([2.0, 2.0]), hp_for())
        np.testing.assert_allclose(got, [0.5, 0.5], atol=0)

    def test_matches_enumeration_oracle(self):
        hp = hp_for(alpha=0.25, beta=0.15)
        err = oracles.check_plain_sampler(
            [[0, 1], [1]], 2, 2, hp, pseudo=[[1.5, 0.25], [0.0, 2.0]]
        )
        assert err < 1e-10


def one_concept_tree(n_topics, vocab_size=2):
    v1 = Vocabulary("l1", [f"a{i}" for i in range(vocab_size)])
    v2 = Vocabulary("l2", [f"b{i}" for i in range(vocab_size)])
    dictionary = BilingualDictionary("l1", "l2", [(0, 0)])
    return build_tree(dictionary, v1, v2, n_topics)


class TestVoclinkConditional:
    def test_empty_tree_reduces_to_lda(self):
        rng = np.random.default_rng(3)
        hp = hp_for()
        v1 = Vocabulary("l1", ["a0", "a1", "a2"])
        v2 = Vocabulary("l2", ["b0", "b1", "b2"])
        tree = build_tree(BilingualDictionary("l1", "l2", []), v1, v2, 2)
        for _ in range(20):
            side = random_side(rng, 2, 3, 2)
            tree.zero_counts()
            tree.untrans_total[0][:] = side.topic_total
            got = voclink_conditional(side, tree, 0, 0, 0, hp)
            np.testing.assert_allclose(
                got, lda_conditional(side, 0, 0, hp), atol=1e-15
            )

    def test_uniform_when_all_counts_zero(self):
        tree = one_concept_tree(2)
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        np.testing.assert_allclose(
            voclink_conditional(side, tree, 0, 0, 0, hp_for()), [0.5, 0.5], atol=0
        )

    def test_hand_computed_path_product(self):
        # concept root-edge counts (3, 0), zero leaf counts, beta_r=0.01,
        # beta_i=100, V=2 per side so one untranslated word (U=1)
        hp = hp_for(alpha=0.1, beta=0.01)
        tree = one_concept_tree(2)
        tree.concept_topic[0] = [3, 0]
        tree.concept_total[:] = [3, 0]
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [3, 0])
        got = voclink_conditional(side, tree, 0, 0, 0, hp)
        # independent arithmetic: root prior sum = 1*0.01 + 1*0.01
        den0 = 3 + 0 + 0.02
        den1 = 0 + 0 + 0.02
        p0 = 0.1 * (3 + 0.01) / den0 * (0 + 100.0) / (3 + 200.0)
        p1 = 0.1 * (0 + 0.01) / den1 * (0 + 100.0) / (0 + 200.0)
        np.testing.assert_allclose(got, [p0 / (p0 + p1), p1 / (p0 + p1)], atol=1e-15)

    def test_matches_enumeration_oracle_single_concept(self):
        hp = hp_for(alpha=0.3, beta=0.2, beta_internal=5.0, beta_root=0.4)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0)])
        err = oracles.check_voclink(
            [[0, 1], [1]], 2, 2, hp, dictionary, side=0,
            fixed_concept=[[2, 1]],
        )
        assert err < 1e-10

    def test_matches_enumeration_oracle_multi_membership(self):
        # side-2 word 0 belongs to two concepts: path is sampled too
        hp = hp_for(alpha=0.3, beta=0.2, beta_internal=3.0, beta_root=0.5)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 0)])
        err = oracles.check_voclink(
            [[0, 1]], 2, 2, hp, dictionary, side=1,
            fixed_concept=[[1, 0], [0, 2]],
        )
        assert err < 1e-10

    def test_combined_with_transfer_prior_matches_oracle(self):
        hp = hp_for(alpha=0.2, beta=0.3, beta_internal=4.0, beta_root=0.6)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0)])
        err = oracles.check_voclink(
            [[0, 1]], 2, 2, hp, dictionary, side=0,
            fixed_concept=[[1, 1]], pseudo=[[0.8, 1.6]],
        )
        assert err < 1e-10


def build_bilingual(rng, v1=12, v2=10, d1=6, d2=5, doc_len=8, links=None):
    def side(lang, vocab_size, n_docs, link_map):
        vocab = Vocabulary(lang, [f"{lang}_{i}" for i in range(vocab_size)])
        docs = []
        for i in range(n_docs):
            docs.append(
                Document(
                    doc_id=f"{lang}{i}",
                    language=lang,
                    tokens=rng.integers(0, vocab_size, size=doc_len).tolist(),
                    link_id=link_map.get(i),
                )
            )
        return Corpus(language=lang, vocabulary=vocab, documents=docs)

    links = links or {}
    link1 = {i: f"p{i}" for i in links}
    link2 = {j: f"p{i}" for i, j in links.items()}
    c1 = side("l1", v1, d1, link1)
    c2 = side("l2", v2, d2, link2)
    hard = sorted((i, j) for i, j in links.items())
    return BilingualCorpus(side1=c1, side2=c2, hard_links=hard)


def empty_matrices(corpus):
    def empty_for(target, source):
        rows = [
            (np.empty(0, dtype=np.int64), np.empty(0)) for _ in target.documents
        ]
        return TransferMatrix(target.language, source.language, rows)

    return (
        empty_for(corpus.side1, corpus.side2),
        empty_for(corpus.side2, corpus.side1),
    )


class TestTrain:
    def test_softlink_with_empty_rows_is_bitwise_lda(self):
        rng = np.random.default_rng(11)
        corpus = build_bilingual(rng)
        hp = Hyperparams(k=3, train_iterations=10, seed=42)
        m_lda = train("lda", corpus, hp)
        m1, m2 = empty_matrices(corpus)
        m_soft = train("softlink", corpus, hp, transfer_to_side1=m1, transfer_to_side2=m2)
        # hard links on a corpus without links run the same prior-vector sweep
        m_hard = train("hardlink", corpus, hp)
        for other in (m_soft, m_hard):
            for s in (0, 1):
                assert np.array_equal(m_lda.phi[s], other.phi[s])
                assert np.array_equal(m_lda.theta[s], other.theta[s])
            assert m_lda.counts == other.counts

    def test_hardlink_joint_and_conditional_trajectories_identical(self):
        rng = np.random.default_rng(12)
        some_linked = build_bilingual(rng, links={0: 1, 2: 0, 4: 3})
        every_linked = build_bilingual(rng, d1=5, d2=5, links={0: 3, 1: 0, 2: 4, 3: 1, 4: 2})
        for corpus in (some_linked, every_linked):
            for iters in (1, 3, 7):
                hp = Hyperparams(k=3, train_iterations=iters, seed=9)
                m_cond = train("hardlink", corpus, hp, hardlink_formulation="conditional")
                m_joint = train("hardlink", corpus, hp, hardlink_formulation="joint")
                assert m_cond.counts == m_joint.counts
                for s in (0, 1):
                    assert np.array_equal(m_cond.phi[s], m_joint.phi[s])
                    assert np.array_equal(m_cond.theta[s], m_joint.theta[s])

    def test_annealing_leaves_the_callers_transfer_matrices_unchanged(self):
        rng = np.random.default_rng(18)
        corpus = build_bilingual(rng)
        dictionary = BilingualDictionary("l1", "l2", [(i, i) for i in range(8)])
        from multitopic.transfer import AnnealConfig, build_transfer_matrix

        t1 = build_transfer_matrix(corpus.side1, corpus.side2, dictionary)
        t2 = build_transfer_matrix(corpus.side2, corpus.side1, dictionary)
        before = [[(idx.copy(), w.copy()) for idx, w in t.rows] for t in (t1, t2)]
        model = train(
            "softlink", corpus, Hyperparams(k=3, train_iterations=6, seed=4),
            transfer_to_side1=t1, transfer_to_side2=t2,
            anneal=AnnealConfig(schedule="fixed", interval=2, stop_iteration=6, temperature=0.5),
        )
        events = model.provenance["anneal_events"]
        assert [e["iteration"] for e in events] == [2, 4, 6]
        # annealing sharpened the rows the sampler used ...
        assert events[-1]["max_weight_mean"] > (t1.mean_row_max() + t2.mean_row_max()) / 2
        # ... but not the caller's matrices
        for t, rows in zip((t1, t2), before):
            assert len(t.rows) == len(rows)
            for (idx, w), (idx0, w0) in zip(t.rows, rows):
                assert np.array_equal(idx, idx0) and np.array_equal(w, w0)

    def test_debug_checks_pass_for_every_kind(self):
        rng = np.random.default_rng(13)
        corpus = build_bilingual(rng, links={0: 0, 1: 2})
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 1), (2, 3)])
        hp = Hyperparams(k=3, train_iterations=3, seed=1)
        from multitopic.transfer import build_transfer_matrix

        t1 = build_transfer_matrix(corpus.side1, corpus.side2, dictionary)
        t2 = build_transfer_matrix(corpus.side2, corpus.side1, dictionary)
        train("lda", corpus, hp, debug_checks=True)
        train("hardlink", corpus, hp, debug_checks=True)
        train("hardlink", corpus, hp, hardlink_formulation="joint", debug_checks=True)
        train("softlink", corpus, hp, transfer_to_side1=t1, transfer_to_side2=t2,
              debug_checks=True)
        train("voclink", corpus, hp, dictionary=dictionary, debug_checks=True)
        train("softlink_voclink", corpus, hp, transfer_to_side1=t1,
              transfer_to_side2=t2, dictionary=dictionary, debug_checks=True)

    def test_count_tables_match_document_lengths(self):
        rng = np.random.default_rng(14)
        corpus = build_bilingual(rng)
        hp = Hyperparams(k=4, train_iterations=4, seed=3)
        model = train("lda", corpus, hp)
        for s, side in enumerate((corpus.side1, corpus.side2)):
            doc_topic = np.array(model.counts["doc_topic"][s])
            assert doc_topic.sum(axis=1).tolist() == [len(d.tokens) for d in side.documents]
            word_topic = np.array(model.counts["word_topic"][s])
            assert word_topic.sum() == sum(len(d.tokens) for d in side.documents)

    def test_same_seed_reproduces_model_exactly(self):
        rng = np.random.default_rng(15)
        corpus = build_bilingual(rng)
        hp = Hyperparams(k=3, train_iterations=6, seed=77)
        a = train("lda", corpus, hp)
        b = train("lda", corpus, hp)
        for s in (0, 1):
            assert np.array_equal(a.phi[s], b.phi[s])
            assert np.array_equal(a.theta[s], b.theta[s])

    def test_two_block_synthetic_recovery(self):
        # two disjoint word blocks: topics must separate them
        rng = np.random.default_rng(16)
        docs1 = []
        for i in range(30):
            block = i % 2
            toks = rng.integers(10 * block, 10 * block + 10, size=30).tolist()
            docs1.append(Document(f"d{i}", "l1", toks))
        docs2 = [Document("x0", "l2", rng.integers(0, 4, size=10).tolist())]
        vocab1 = Vocabulary("l1", [f"a{i}" for i in range(20)])
        vocab2 = Vocabulary("l2", [f"b{i}" for i in range(4)])
        corpus = BilingualCorpus(
            Corpus("l1", vocab1, docs1), Corpus("l2", vocab2, docs2), []
        )
        hp = Hyperparams(k=2, train_iterations=200, seed=5)
        model = train("lda", corpus, hp)
        phi = model.phi[0]
        block_mass = phi[:, :10].sum(axis=1)  # mass on block A per topic
        assert (max(block_mass) > 0.9) and (min(block_mass) < 0.1)

    def test_adaptive_schedule_runs_end_to_end(self):
        rng = np.random.default_rng(19)
        corpus = build_bilingual(rng, v1=15, v2=15, d1=8, d2=8)
        dictionary = BilingualDictionary("l1", "l2", [(i, i) for i in range(12)])
        from multitopic.transfer import AnnealConfig, build_transfer_matrix

        t1 = build_transfer_matrix(corpus.side1, corpus.side2, dictionary)
        t2 = build_transfer_matrix(corpus.side2, corpus.side1, dictionary)
        hp = Hyperparams(k=2, train_iterations=12, seed=2)
        cfg = AnnealConfig(schedule="adaptive", interval=3, stop_iteration=12)
        model = train(
            "softlink", corpus, hp,
            transfer_to_side1=t1, transfer_to_side2=t2,
            dictionary=dictionary, anneal=cfg,
        )
        history = model.provenance["lis_history"]
        assert len(history) == 12
        assert all(0.0 <= v <= 1.0 for v in history)
        for event in model.provenance["anneal_events"]:
            assert event["mode"] == "adaptive"
            assert event["iteration"] % 3 == 0
            assert 6 <= event["iteration"] <= 12

    def test_missing_inputs_rejected(self):
        rng = np.random.default_rng(17)
        corpus = build_bilingual(rng)
        hp = Hyperparams(k=2, train_iterations=1)
        with pytest.raises(ConfigError):
            train("softlink", corpus, hp)
        with pytest.raises(ConfigError):
            train("voclink", corpus, hp)
        with pytest.raises(ConfigError):
            train("nonesuch", corpus, hp)


class TestModelSerialization:
    def test_round_trip_preserves_model(self, tmp_path):
        rng = np.random.default_rng(20)
        corpus = build_bilingual(rng)
        model = train("lda", corpus, Hyperparams(k=3, train_iterations=3, seed=8))
        from multitopic.models import load_model, save_model

        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.model_kind == model.model_kind
        assert loaded.hyperparams == model.hyperparams
        assert loaded.vocabularies[0] == model.vocabularies[0]
        for s in (0, 1):
            assert np.array_equal(loaded.phi[s], model.phi[s])
            assert np.array_equal(loaded.theta[s], model.theta[s])
        assert loaded.counts == model.counts
        assert loaded.doc_ids == model.doc_ids

    def test_counts_can_be_omitted(self, tmp_path):
        rng = np.random.default_rng(21)
        corpus = build_bilingual(rng)
        model = train("lda", corpus, Hyperparams(k=2, train_iterations=2, seed=8))
        from multitopic.models import load_model, save_model

        path = tmp_path / "slim.json"
        save_model(model, path, include_counts=False)
        assert load_model(path).counts is None


class TestInferHeldout:
    def make_model(self, phi_rows, k=2):
        vocab_size = len(phi_rows[0])
        v1 = Vocabulary("l1", [f"a{i}" for i in range(vocab_size)])
        v2 = Vocabulary("l2", [f"b{i}" for i in range(vocab_size)])
        from multitopic.models import TopicModel

        phi = np.array(phi_rows, dtype=np.float64)
        return TopicModel(
            model_kind="lda",
            hyperparams=Hyperparams(k=k, train_iterations=1, infer_iterations=50),
            vocabularies=(v1, v2),
            phi=(phi, phi.copy()),
            theta=(np.zeros((0, k)), np.zeros((0, k))),
            doc_ids=([], []),
            doc_labels=([], []),
        )

    def corpus_for(self, model, tokens_docs):
        vocab = model.vocabularies[0]
        docs = [
            Document(f"h{i}", "l1", list(toks)) for i, toks in enumerate(tokens_docs)
        ]
        return Corpus("l1", vocab, docs)

    def test_degenerate_phi_peaks_theta(self):
        model = self.make_model([[0.0001, 0.9999], [0.9999, 0.0001]])
        heldout = self.corpus_for(model, [[1, 1, 1, 1]])
        theta = infer_heldout(model, heldout, seed=0)
        assert theta[0, 0] > 0.9

    def test_empty_document_gets_uniform_theta(self):
        model = self.make_model([[0.5, 0.5], [0.5, 0.5]])
        heldout = self.corpus_for(model, [[]])
        np.testing.assert_allclose(infer_heldout(model, heldout), [[0.5, 0.5]], atol=0)

    def test_same_seed_is_deterministic(self):
        model = self.make_model([[0.7, 0.3], [0.2, 0.8]])
        heldout = self.corpus_for(model, [[0, 1, 0], [1, 1]])
        a = infer_heldout(model, heldout, seed=4)
        b = infer_heldout(model, heldout, seed=4)
        assert np.array_equal(a, b)

    def test_vocabulary_mismatch_rejected(self):
        model = self.make_model([[0.5, 0.5], [0.5, 0.5]])
        other_vocab = Vocabulary("l1", ["different"])
        heldout = Corpus("l1", other_vocab, [Document("h", "l1", [0])])
        with pytest.raises(DataError, match="vocabulary"):
            infer_heldout(model, heldout)

    def test_results_independent_of_document_order(self):
        model = self.make_model([[0.7, 0.3], [0.2, 0.8]])
        heldout_ab = self.corpus_for(model, [[0, 1, 0], [1, 1, 1, 0]])
        theta_ab = infer_heldout(model, heldout_ab, seed=8)
        # per-document spawned streams: same doc at the same index gives the
        # same answer regardless of what else is in the corpus
        heldout_a = self.corpus_for(model, [[0, 1, 0]])
        np.testing.assert_array_equal(infer_heldout(model, heldout_a, seed=8)[0], theta_ab[0])


class TestConditionalValidity:
    def test_all_conditionals_are_probability_vectors(self):
        rng = np.random.default_rng(18)
        hp = hp_for(k=4)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 2)])
        v1 = Vocabulary("l1", [f"a{i}" for i in range(5)])
        v2 = Vocabulary("l2", [f"b{i}" for i in range(5)])
        tree = build_tree(dictionary, v1, v2, 4)
        for _ in range(50):
            side = random_side(rng, 4, 5, 3)
            checks = [
                lda_conditional(side, 0, 0, hp),
                hardlink_conditional(side, 0, 0, rng.integers(0, 9, size=4), hp),
                softlink_conditional(side, 0, 0, rng.random(4) * 3, hp),
            ]
            tree.zero_counts()
            tree.untrans_total[0][:] = side.topic_total
            checks.append(voclink_conditional(side, tree, 0, 0, 0, hp))
            for p in checks:
                assert (p >= 0).all()
                assert abs(p.sum() - 1.0) < 1e-12
