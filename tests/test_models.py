"""Sampler conditionals against hand computations and exhaustive
enumeration; model-family reductions; training behavior."""

import numpy as np
import pytest

from multitopic.corpus import BilingualCorpus, Corpus, Document, Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic import models
from multitopic.errors import ConfigError, DataError
from multitopic.models import (
    Hyperparams,
    SideState,
    infer_heldout,
    tally_side,
    token_conditional,
    train,
)
from multitopic.tree import build_tree

import oracles


def hp_for(k=2, alpha=0.1, beta=0.01, **kw):
    return Hyperparams(k=k, alpha=alpha, beta=beta, train_iterations=5, **kw)


def manual_side(tokens, doc_topic, word_topic, topic_total):
    lengths = [len(t) for t in tokens]
    return SideState(
        tokens=np.array([w for t in tokens for w in t], dtype=np.int64),
        z=np.zeros(sum(lengths), dtype=np.int64),
        doc_start=np.cumsum([0] + lengths),
        doc_topic=np.array(doc_topic, dtype=np.int64),
        word_topic=np.array(word_topic, dtype=np.int64),
        topic_total=np.array(topic_total, dtype=np.int64),
    )


def random_side(rng, n_topics, vocab_size, n_docs, max_len=6):
    tokens = [
        rng.integers(0, vocab_size, size=int(rng.integers(1, max_len + 1))).tolist()
        for _ in range(n_docs)
    ]
    z = [rng.integers(0, n_topics, size=len(t)).tolist() for t in tokens]
    return oracles.tally_docs(tokens, z, n_topics, vocab_size)


class TestLdaConditional:
    def test_symmetric_when_counts_zero(self):
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        np.testing.assert_allclose(
            token_conditional(side, 0, 0, hp_for()), [0.5, 0.5], atol=0
        )

    def test_hand_computed_example(self):
        # K=2, alpha=beta=1, V=2, n_kd=(1,0), n_wk=(1,0), n_.k=(1,0)
        side = manual_side([[0]], [[1, 0]], [[1, 0], [0, 0]], [1, 0])
        hp = hp_for(alpha=1.0, beta=1.0)
        np.testing.assert_allclose(
            token_conditional(side, 0, 0, hp), [8 / 11, 3 / 11], atol=1e-15
        )

    def test_negative_count_rejected(self):
        side = manual_side([[0]], [[-1, 0]], [[0, 0], [0, 0]], [0, 0])
        with pytest.raises(DataError, match="negative"):
            token_conditional(side, 0, 0, hp_for())

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
            got = token_conditional(side, 0, 0, hp, pseudo=np.zeros(2, dtype=np.int64))
            np.testing.assert_array_equal(got, token_conditional(side, 0, 0, hp))

    def test_hand_computed_partner_dominates(self):
        # alpha=0.1, partner=(10,0), own zero, uniform word term
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        got = token_conditional(side, 0, 0, hp_for(), pseudo=np.array([10, 0]))
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


def mix_one_row(row, counts):
    """The soft-link pseudo-counts `TransferMatrix.mix` gives a matrix of
    the one row `row`. `TransferMatrix.check` refuses an index outside the
    source documents (`TestTrain`'s corrupted-matrix cases)."""
    return oracles.matrix_from_rows("l2", "l1", [row]).mix(counts)[0]


class TestSoftlinkPrior:
    def test_indicator_row_selects_one_document(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        row = (np.array([1]), np.array([1.0]))
        np.testing.assert_array_equal(mix_one_row(row, counts), [0.0, 4.0])

    def test_mixture_hand_example(self):
        counts = np.array([[4, 0], [0, 4]], dtype=np.int64)
        row = (np.array([0, 1]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(mix_one_row(row, counts), [2.0, 2.0], atol=0)

    def test_empty_row_gives_zero_vector(self):
        counts = np.array([[4, 0]], dtype=np.int64)
        row = (np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_array_equal(mix_one_row(row, counts), [0.0, 0.0])


class TestSoftlinkConditional:
    def test_zero_pseudo_equals_lda(self):
        rng = np.random.default_rng(1)
        hp = hp_for()
        for _ in range(20):
            side = random_side(rng, 3, 4, 2)
            got = token_conditional(side, 0, 0, hp, pseudo=np.zeros(3))
            np.testing.assert_array_equal(got, token_conditional(side, 0, 0, hp))

    @pytest.mark.parametrize("pseudo", [[-1.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [1.0], [1.0, 1.0, 1.0]])
    def test_pseudo_must_be_k_finite_non_negative_numbers(self, pseudo):
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        with pytest.raises(DataError, match="^pseudo-counts must be 2 finite non-negative numbers$"):
            token_conditional(side, 0, 0, hp_for(), pseudo=np.array(pseudo))

    def test_fractional_prior_hand_example(self):
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        got = token_conditional(side, 0, 0, hp_for(), pseudo=np.array([2.0, 2.0]))
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
            got = token_conditional(side, 0, 0, hp, tree=tree, side_index=0)
            np.testing.assert_allclose(
                got, token_conditional(side, 0, 0, hp), atol=1e-15
            )

    def test_uniform_when_all_counts_zero(self):
        tree = one_concept_tree(2)
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [0, 0])
        np.testing.assert_allclose(
            token_conditional(side, 0, 0, hp_for(), tree=tree), [0.5, 0.5], atol=0
        )

    def test_hand_computed_path_product(self):
        # concept root-edge counts (3, 0), zero leaf counts, beta_r=0.01,
        # beta_i=100, V=2 per side so one untranslated word (U=1)
        hp = hp_for(alpha=0.1, beta=0.01)
        tree = one_concept_tree(2)
        tree.concept_topic[0] = [3, 0]
        tree.concept_total[:] = [3, 0]
        side = manual_side([[0]], [[0, 0]], [[0, 0], [0, 0]], [3, 0])
        got = token_conditional(side, 0, 0, hp, tree=tree, side_index=0)
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


def assert_same_counts(a, b):
    """The two models' count tables are equal, table by table (they are
    arrays, so one `==` on the dicts would not give a truth value)."""
    assert a.keys() == b.keys()
    for key in a:
        assert len(a[key]) == len(b[key]) == 2
        for table_a, table_b in zip(a[key], b[key]):
            assert np.array_equal(table_a, table_b), key


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
        return oracles.matrix_from_rows(target.language, source.language, rows)

    return (
        empty_for(corpus.side1, corpus.side2),
        empty_for(corpus.side2, corpus.side1),
    )


@pytest.mark.parametrize("tokens, z, message", [
    ([[0, 3]], [[0, 1]], "word ids"),
    ([[0, -1]], [[0, 1]], "word ids"),
    ([[0, 1]], [[0, 2]], "topics"),
    ([[0, 1]], [[0]], "cover every token"),
    ([[0], [1]], [[0]], "cover every token"),
])
def test_tally_side_rejects_assignments_outside_the_tables(tokens, z, message):
    # the compiled sweeps would index the count tables with these values
    with pytest.raises(DataError, match=message):
        oracles.tally_docs(tokens, z, 2, 3)


def test_tally_side_rejects_offsets_that_stop_before_the_last_token():
    with pytest.raises(DataError, match="cover every token"):
        tally_side([0, 1], [0, 1], [0, 1], 2, 3)


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
            assert_same_counts(m_lda.counts, other.counts)
        # vocabulary links with an empty dictionary sweep the same
        # concept-free tree, so they draw the same topics; their phi is
        # read through the tree and renormalised, so it is not compared
        m_voc = train("voclink", corpus, hp, dictionary=BilingualDictionary("l1", "l2", []))
        assert_same_counts(m_lda.counts, m_voc.counts)
        for s in (0, 1):
            assert np.array_equal(m_lda.theta[s], m_voc.theta[s])

    def test_hardlink_joint_and_conditional_trajectories_identical(self):
        rng = np.random.default_rng(12)
        some_linked = build_bilingual(rng, links={0: 1, 2: 0, 4: 3})
        every_linked = build_bilingual(rng, d1=5, d2=5, links={0: 3, 1: 0, 2: 4, 3: 1, 4: 2})
        for corpus in (some_linked, every_linked):
            for iters in (1, 3, 7):
                hp = Hyperparams(k=3, train_iterations=iters, seed=9)
                m_cond = train("hardlink", corpus, hp, hardlink_formulation="conditional")
                m_joint = train("hardlink", corpus, hp, hardlink_formulation="joint")
                assert_same_counts(m_cond.counts, m_joint.counts)
                for s in (0, 1):
                    assert np.array_equal(m_cond.phi[s], m_joint.phi[s])
                    assert np.array_equal(m_cond.theta[s], m_joint.theta[s])

    @pytest.mark.parametrize("formulation", ["conditional", "joint"])
    @pytest.mark.parametrize("alpha", [0.1, 1 / 3, 0.01])
    def test_hardlink_training_draws_what_adding_the_partner_counts_draws(
        self, monkeypatch, formulation, alpha
    ):
        # training scores a linked row nd + (partner + alpha), the reference
        # (nd + partner) + alpha: at these alphas the two may differ in the
        # last bit, but no draw of this run moves
        corpus = build_bilingual(
            np.random.default_rng(31), d1=12, d2=10, doc_len=20,
            links={0: 1, 2: 0, 4: 3, 7: 9, 11: 5},
        )
        hp = Hyperparams(k=4, alpha=alpha, train_iterations=8, seed=5)
        init, trained = models._init_side, []

        def recording_init(*args):
            state, paths = init(*args)
            trained.append(state)
            return state, paths

        monkeypatch.setattr(models, "_init_side", recording_init)
        train("hardlink", corpus, hp, hardlink_formulation=formulation)

        v1, v2 = corpus.side1.vocabulary, corpus.side2.vocabulary
        tree = build_tree(BilingualDictionary("l1", "l2", []), v1, v2, hp.k)
        rng = np.random.default_rng(hp.seed)
        sides, paths = zip(*(init(c, hp.k, rng, tree, s) for s, c in enumerate((corpus.side1, corpus.side2))))
        lib, links = models._native.load(), np.array(corpus.hard_links)
        for _ in range(hp.train_iterations):
            oracles.hardlink_iteration_reference(lib, sides, paths, links, tree, hp, rng)
        for got, want in zip(trained, sides):
            for table in ("z", "doc_topic", "word_topic"):
                assert np.array_equal(getattr(got, table), getattr(want, table)), table

    def test_hardlink_without_a_linked_pair_warns_that_it_is_lda(self, caplog):
        corpus = build_bilingual(np.random.default_rng(26))
        hp = Hyperparams(k=3, train_iterations=2, seed=2)
        with caplog.at_level("WARNING", logger="multitopic"):
            train("lda", corpus, hp)
            train("hardlink", build_bilingual(np.random.default_rng(26), links={0: 1}), hp)
            assert not caplog.records
            train("hardlink", corpus, hp)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [(
            "WARNING", "no document pair is hard-linked, so the hardlink model is per-language LDA"
        )]

    def test_soft_link_kind_with_two_empty_tables_warns_what_it_reduces_to(self, caplog):
        corpus = build_bilingual(np.random.default_rng(27))
        hp = Hyperparams(k=3, train_iterations=2, seed=2)
        m1, m2 = empty_matrices(corpus)
        one_entry = oracles.matrix_from_rows("l1", "l2", [
            (np.array([0]), np.array([1.0])),
            *((np.empty(0, dtype=np.int64), np.empty(0)) for _ in corpus.side1.documents[1:]),
        ])
        dictionary = BilingualDictionary("l1", "l2", [(0, 0)])
        with caplog.at_level("WARNING", logger="multitopic"):
            train("softlink", corpus, hp, transfer_to_side1=one_entry, transfer_to_side2=m2)
            assert not caplog.records
            train("softlink", corpus, hp, transfer_to_side1=m1, transfer_to_side2=m2)
            train("softlink_voclink", corpus, hp, transfer_to_side1=m1, transfer_to_side2=m2,
                  dictionary=dictionary)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "no transfer table holds an entry, so the softlink model is per-language LDA"),
            ("WARNING", "no transfer table holds an entry, so the softlink_voclink model is voclink"),
        ]

    @pytest.mark.parametrize("formulation", ["conditional", "joint"])
    def test_linked_rows_carry_the_partner_counts_while_their_side_is_swept(
        self, monkeypatch, formulation
    ):
        # each sweep's priors hold the partner's live counts plus alpha on
        # the linked rows and alpha elsewhere; the side's own rows hold its
        # own counts only
        corpus = build_bilingual(np.random.default_rng(25), links={0: 1, 2: 0, 4: 3})
        links = np.array(corpus.hard_links)
        hp = Hyperparams(k=3, train_iterations=3, seed=2)
        init, sweep = models._init_side, models._tree_sweep
        sides, swept = [], []

        def recording_init(*args):
            state, paths = init(*args)
            sides.append(state)
            return state, paths

        def checking_sweep(lib, side, paths, priors, *args):
            s = sides.index(side)
            swept.append(s)
            own = models._tally(side.tokens, side.z, side.doc_start, side.n_topics, side.vocab_size)[0]
            assert np.array_equal(side.doc_topic, own)
            expected = np.full(side.doc_topic.shape, hp.alpha)
            expected[links[:, s]] = sides[1 - s].doc_topic[links[:, 1 - s]] + hp.alpha
            assert np.array_equal(priors, expected)
            sweep(lib, side, paths, priors, *args)

        monkeypatch.setattr(models, "_init_side", recording_init)
        monkeypatch.setattr(models, "_tree_sweep", checking_sweep)
        train("hardlink", corpus, hp, hardlink_formulation=formulation, debug_checks=True)
        assert swept == [0, 1] * 3

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

    def test_no_annealing_has_one_provenance_however_it_is_spelled(self):
        # `anneal=None` and an AnnealConfig whose schedule is "none" train
        # the same model, so they must record the same `schedule`: null
        rng = np.random.default_rng(18)
        corpus = build_bilingual(rng)
        dictionary = BilingualDictionary("l1", "l2", [(i, i) for i in range(8)])
        from multitopic.transfer import AnnealConfig, build_transfer_matrix

        tables = {
            "transfer_to_side1": build_transfer_matrix(corpus.side1, corpus.side2, dictionary),
            "transfer_to_side2": build_transfer_matrix(corpus.side2, corpus.side1, dictionary),
        }
        hp = Hyperparams(k=3, train_iterations=2, seed=4)
        provenances = [
            train("softlink", corpus, hp, **tables, anneal=anneal).provenance
            for anneal in (None, AnnealConfig(), AnnealConfig(schedule="none", interval=3))
        ]
        assert provenances[0]["schedule"] is None
        assert provenances[1] == provenances[0] and provenances[2] == provenances[0]

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

    @pytest.mark.parametrize("table", ["doc_topic", "word_topic", "topic_total"])
    def test_debug_checks_catch_a_side_table_out_of_sync(self, monkeypatch, table):
        rng = np.random.default_rng(13)
        corpus = build_bilingual(rng)
        sweep = models._tree_sweep

        def corrupting_sweep(lib, side, paths, priors, tree, s, *args):
            sweep(lib, side, paths, priors, tree, s, *args)
            # the sweep keeps a side's topic totals in the tree's root-leaf
            # counts; one extra count leaves every count non-negative
            target = tree.untrans_total[s] if table == "topic_total" else getattr(side, table)
            np.atleast_2d(target)[-1, 0] += 1

        monkeypatch.setattr(models, "_tree_sweep", corrupting_sweep)
        with pytest.raises(DataError, match="out of sync"):
            train("lda", corpus, Hyperparams(k=3, train_iterations=1, seed=1), debug_checks=True)

    def test_tree_passed_to_train_holds_the_final_counts(self):
        rng = np.random.default_rng(13)
        corpus = build_bilingual(rng)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 1), (1, 2), (2, 3)])
        tree = build_tree(dictionary, corpus.side1.vocabulary, corpus.side2.vocabulary, 3)
        model = train("voclink", corpus, Hyperparams(k=3, train_iterations=3, seed=1), tree=tree)
        word_topic = tuple(np.array(table) for table in model.counts["word_topic"])
        tree.check_consistency(word_topic)
        tokens = sum(side.token_total for side in (corpus.side1, corpus.side2))
        assert sum(tree.concept_total) + sum(map(sum, tree.untrans_total)) == tokens
        tree.leaf_topic[0][0][1] += 1
        with pytest.raises(DataError, match="sum of their leaves"):
            tree.check_consistency(word_topic)

    @pytest.mark.parametrize("table, cell, message", [
        ("concept_total", 0, "pooled concept totals out of sync"),
        # side-1 word 1 is in two concepts: its leaves sum over both
        ("word_topic[0]", (1, 2),
         "leaf counts for word 1 on side 0 do not sum to its word-topic counts"),
        ("untrans_total", (1, 0), "untranslated totals out of sync on side 1"),
    ])
    def test_tree_consistency_check_names_the_table_out_of_sync(self, table, cell, message):
        rng = np.random.default_rng(13)
        corpus = build_bilingual(rng)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 1), (1, 2), (2, 3)])
        tree = build_tree(dictionary, corpus.side1.vocabulary, corpus.side2.vocabulary, 3)
        model = train("voclink", corpus, Hyperparams(k=3, train_iterations=3, seed=1), tree=tree)
        word_topic = tuple(np.array(table) for table in model.counts["word_topic"])
        tree.check_consistency(word_topic)
        tables = {
            "concept_total": tree.concept_total,
            "untrans_total": tree.untrans_total,
            "word_topic[0]": word_topic[0],
        }
        tables[table][cell] += 1
        with pytest.raises(DataError, match=f"^{message}$"):
            tree.check_consistency(word_topic)

    def test_tree_refuses_a_concept_word_outside_its_vocabulary(self):
        corpus = build_bilingual(np.random.default_rng(13))
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (12, 1)])
        with pytest.raises(DataError, match="^concept 1 names word 12, outside the 12-word"):
            build_tree(dictionary, corpus.side1.vocabulary, corpus.side2.vocabulary, 3)

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

    @pytest.mark.parametrize("empty_side", [1, 2])
    def test_side_without_documents_is_a_data_error(self, empty_side):
        rng = np.random.default_rng(22)
        corpus = build_bilingual(
            rng, d1=0 if empty_side == 1 else 6, d2=0 if empty_side == 2 else 5
        )
        with pytest.raises(DataError, match=f"side {empty_side} .* has no documents"):
            train("lda", corpus, Hyperparams(k=2, train_iterations=1))

    @pytest.mark.parametrize("formulation", ["conditional", "joint"])
    @pytest.mark.parametrize("links, message", [
        ([(-1, 0)], r"hard link \(-1, 0\) names a side 1 document outside \[0, 6\)"),
        ([(0, 6)], r"hard link \(0, 6\) names a side 2 document outside \[0, 6\)"),
        ([(0, 0), (0, 1)], "side 1 document 0 has more than one hard link"),
        ([(0, 3), (2, 3)], "side 2 document 3 has more than one hard link"),
    ])
    def test_hard_links_out_of_range_or_shared_are_data_errors(
        self, monkeypatch, links, message, formulation
    ):
        # a library caller can build the links directly; a negative index
        # would silently link the last document, and a shared document
        # would make the two formulations sample differently
        corpus = build_bilingual(np.random.default_rng(23), d1=6, d2=6)
        corpus.hard_links = links
        monkeypatch.setattr(
            models._native, "load", lambda: pytest.fail("loaded before the check")
        )
        with pytest.raises(DataError, match=message):
            train(
                "hardlink", corpus, Hyperparams(k=2, train_iterations=1),
                hardlink_formulation=formulation,
            )

    @pytest.mark.parametrize("model_kind", ["voclink", "lda"])
    @pytest.mark.parametrize("pair, message", [
        ((12, 0), "concept 1 names word 12, outside the 12-word vocabulary of 'l1'"),
        ((0, 10), "concept 1 names word 10, outside the 10-word vocabulary of 'l2'"),
    ])
    def test_dictionary_word_outside_the_vocabulary_is_a_data_error(
        self, monkeypatch, pair, message, model_kind
    ):
        corpus = build_bilingual(np.random.default_rng(25))
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), pair])
        monkeypatch.setattr(
            models._native, "load", lambda: pytest.fail("loaded before the check")
        )
        with pytest.raises(DataError, match=f"^{message}$"):
            train(model_kind, corpus, Hyperparams(k=2, train_iterations=1), dictionary=dictionary)

    @pytest.mark.parametrize("model_kind", ["voclink", "lda"])
    @pytest.mark.parametrize("word", [12, -1])
    def test_word_id_outside_the_vocabulary_is_a_data_error(self, model_kind, word):
        # a library caller can build the documents directly; the tree's
        # tables and the sweep would be indexed with the id
        corpus = build_bilingual(np.random.default_rng(26))
        side1 = corpus.side1
        documents = side1.documents[:2] + [Document("bad", "l1", [0, word, 1])]
        corpus.side1 = Corpus("l1", side1.vocabulary, documents)
        dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 1)])
        with pytest.raises(DataError, match=r"^word ids must lie in \[0, 12\)$"):
            train(model_kind, corpus, Hyperparams(k=2, train_iterations=1), dictionary=dictionary)

    def test_transfer_row_with_a_negative_index_is_a_config_error(self, monkeypatch):
        self.check_corrupted_matrix(monkeypatch, "idx", 0, -1, "missing source document")

    @pytest.mark.parametrize("field, position, value, message", [
        # side 2 has five documents, so index 5 names none of them
        ("idx", 3, 5, "missing source document"),
        ("start", 0, 1, "start must run from 0 up to the entry count"),
        ("start", 2, 0, "start must run from 0 up to the entry count"),
        ("start", -1, 5, "start must run from 0 up to the entry count"),
        # a negative weight would train; -5, NaN or inf would fail mid-sweep
        # with an error that blames alpha and beta
        ("weights", slice(None), -0.01, "weights must be finite and non-negative"),
        ("weights", 1, -5.0, "weights must be finite and non-negative"),
        ("weights", 2, np.nan, "weights must be finite and non-negative"),
        ("weights", 0, np.inf, "weights must be finite and non-negative"),
    ])
    def test_transfer_table_outside_its_corpora_is_a_config_error(
        self, monkeypatch, field, position, value, message
    ):
        self.check_corrupted_matrix(monkeypatch, field, position, value, message)

    @staticmethod
    def check_corrupted_matrix(monkeypatch, field, position, value, message):
        corpus = build_bilingual(np.random.default_rng(24))
        # one entry per row, then one value of the side-1 table overwritten
        m1, m2 = (
            oracles.matrix_from_rows(
                target.language, source.language,
                [(np.array([i % len(source.documents)]), np.array([1.0])) for i in range(len(target.documents))],
            )
            for target, source in ((corpus.side1, corpus.side2), (corpus.side2, corpus.side1))
        )
        getattr(m1, field)[position] = value
        monkeypatch.setattr(
            models._native, "load", lambda: pytest.fail("loaded before the check")
        )
        with pytest.raises(ConfigError, match=message):
            train(
                "softlink", corpus, Hyperparams(k=2, train_iterations=1),
                transfer_to_side1=m1, transfer_to_side2=m2,
            )


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
        assert_same_counts(loaded.counts, model.counts)
        assert loaded.doc_ids == model.doc_ids

    def test_counts_can_be_omitted(self, tmp_path):
        rng = np.random.default_rng(21)
        corpus = build_bilingual(rng)
        model = train("lda", corpus, Hyperparams(k=2, train_iterations=2, seed=8))
        from multitopic.models import load_model, save_model

        path = tmp_path / "slim.json"
        save_model(model, path, include_counts=False)
        assert load_model(path).counts is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_is_not_saved(self, tmp_path, bad):
        rng = np.random.default_rng(23)
        corpus = build_bilingual(rng)
        model = train("lda", corpus, Hyperparams(k=2, train_iterations=2, seed=8))
        from multitopic.models import save_model

        model.phi[1][1, 3] = bad
        path = tmp_path / "model.json"
        with pytest.raises(DataError, match="not JSON compliant"):
            save_model(model, path)
        assert not path.exists()


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

    def test_alpha_that_overflows_the_scores_is_a_config_error(self):
        # word 0 scores (1 + 1e308) * 0.9 under both topics: the sum overflows
        model = self.make_model([[0.9, 0.1], [0.9, 0.1]])
        model.hyperparams = Hyperparams(k=2, alpha=1e308, train_iterations=1)
        message = r"^a token's topic scores have no positive finite sum under alpha 1e\+308$"
        with pytest.raises(ConfigError, match=message):
            infer_heldout(model, self.corpus_for(model, [[0, 0]]))

    @pytest.mark.parametrize("arguments, message", [
        ({"iterations": 0}, "^iterations must be at least 1, got 0$"),
        ({"iterations": -3}, "^iterations must be at least 1, got -3$"),
        ({"iterations": True}, "^iterations must be a number, got True$"),
        ({"iterations": 2.5}, "^iterations must be an integer, got 2.5$"),
        ({"seed": -1}, "^seed must be non-negative, got -1$"),
        ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
        ({"seed": "3"}, "^seed must be a number, got '3'$"),
    ])
    def test_arguments_the_cli_refuses_are_config_errors(self, arguments, message):
        model = self.make_model([[0.7, 0.3], [0.2, 0.8]])
        with pytest.raises(ConfigError, match=message):
            infer_heldout(model, self.corpus_for(model, [[0, 1]]), **arguments)

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
                token_conditional(side, 0, 0, hp),
                token_conditional(side, 0, 0, hp, pseudo=rng.integers(0, 9, size=4)),
                token_conditional(side, 0, 0, hp, pseudo=rng.random(4) * 3),
            ]
            tree.zero_counts()
            tree.untrans_total[0][:] = side.topic_total
            checks.append(token_conditional(side, 0, 0, hp, tree=tree, side_index=0))
            for p in checks:
                assert (p >= 0).all()
                assert abs(p.sum() - 1.0) < 1e-12
