"""Transfer matrix construction against a brute-force scorer, plus
focusing and annealing behavior."""

import numpy as np
import pytest

from multitopic.corpus import Corpus, Document, Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic.errors import ConfigError, DataError
from multitopic.transfer import (
    AnnealConfig,
    FocusConfig,
    TransferMatrix,
    anneal_matrix,
    build_transfer_matrix,
    static_focus,
    write_matrix_tsv,
)

from oracles import matrix_from_rows


def toy_corpus(lang, docs_tokens, vocab_size):
    vocab = Vocabulary(lang, [f"{lang}_{i}" for i in range(vocab_size)])
    docs = [
        Document(doc_id=f"{lang}{i}", language=lang, tokens=list(t))
        for i, t in enumerate(docs_tokens)
    ]
    return Corpus(language=lang, vocabulary=vocab, documents=docs)


def brute_force_rows(target_docs, source_docs, pairs):
    """Independent scorer: enumerate every document pair and every
    translation pair. pairs is a set of (source word, target word)."""
    rows = []
    for t_types in (set(d) for d in target_docs):
        raw = []
        for s_tokens in source_docs:
            s_types = set(s_tokens)
            n = sum(1 for ws, wt in pairs if ws in s_types and wt in t_types)
            union = len(s_types) + len(t_types)
            raw.append(n / union if n else 0.0)
        total = sum(raw)
        rows.append([v / total for v in raw] if total else raw)
    return rows


def dense(matrix: TransferMatrix, n_source: int) -> np.ndarray:
    out = np.zeros((len(matrix.rows), n_source))
    for i, (idx, weights) in enumerate(matrix.rows):
        out[i, idx] = weights
    return out


def make_dictionary(pairs):
    # pairs given as (word1, word2) = (side1 id, side2 id)
    return BilingualDictionary("l1", "l2", sorted(pairs))


def test_worked_example_two_of_four_types():
    # target doc {gato, perro} in l2; sources {cat, dog} and {bird} in l1;
    # dictionary (cat,gato),(dog,perro): raw scores (2/4, 0)
    target = toy_corpus("l2", [[0, 1]], 2)  # gato=0, perro=1
    source = toy_corpus("l1", [[0, 1], [2]], 3)  # cat=0, dog=1, bird=2
    dictionary = make_dictionary([(0, 0), (1, 1)])
    matrix = build_transfer_matrix(target, source, dictionary)
    idx, weights = matrix.rows[0]
    assert idx.tolist() == [0]
    assert weights.tolist() == [1.0]


def test_empty_dictionary_gives_empty_rows():
    target = toy_corpus("l2", [[0], [1]], 2)
    source = toy_corpus("l1", [[0]], 1)
    matrix = build_transfer_matrix(target, source, make_dictionary([]))
    assert all(len(idx) == 0 for idx, _ in matrix.rows)


@pytest.mark.parametrize("to_side2", [False, True])
@pytest.mark.parametrize("pair, message", [
    ((0, 5), "concept 1 names word 5, outside the 3-word vocabulary of 'l2'"),
    ((3, 0), "concept 1 names word 3, outside the 3-word vocabulary of 'l1'"),
])
def test_concept_word_outside_its_vocabulary_is_a_data_error(pair, message, to_side2):
    side1 = toy_corpus("l1", [[0, 1]], 3)
    side2 = toy_corpus("l2", [[0, 2]], 3)
    target, source = (side2, side1) if to_side2 else (side1, side2)
    with pytest.raises(DataError, match=f"^{message}$"):
        build_transfer_matrix(target, source, make_dictionary([(0, 0), pair]))


def test_identical_sources_share_weight_equally():
    target = toy_corpus("l2", [[0, 1]], 2)
    source = toy_corpus("l1", [[0, 1], [0, 1]], 2)
    dictionary = make_dictionary([(0, 0), (1, 1)])
    matrix = build_transfer_matrix(target, source, dictionary)
    idx, weights = matrix.rows[0]
    assert idx.tolist() == [0, 1]
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=0)


def test_matches_brute_force_on_random_corpora():
    rng = np.random.default_rng(123)
    for trial in range(10):
        v1, v2 = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        d1, d2 = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        source_docs = [
            rng.integers(0, v1, size=rng.integers(1, 8)).tolist() for _ in range(d1)
        ]
        target_docs = [
            rng.integers(0, v2, size=rng.integers(1, 8)).tolist() for _ in range(d2)
        ]
        n_pairs = int(rng.integers(0, v1 * v2 // 2 + 1))
        pairs = {
            (int(rng.integers(0, v1)), int(rng.integers(0, v2)))
            for _ in range(n_pairs)
        }
        target = toy_corpus("l2", target_docs, v2)
        source = toy_corpus("l1", source_docs, v1)
        dictionary = make_dictionary(pairs)
        matrix = build_transfer_matrix(target, source, dictionary)
        expected = np.array(brute_force_rows(target_docs, source_docs, pairs))
        np.testing.assert_allclose(dense(matrix, d1), expected, atol=1e-12)


def test_rows_invariant_to_source_ordering():
    rng = np.random.default_rng(5)
    source_docs = [rng.integers(0, 6, size=5).tolist() for _ in range(8)]
    target_docs = [rng.integers(0, 6, size=5).tolist() for _ in range(4)]
    pairs = {(i, i) for i in range(6)}
    target = toy_corpus("l2", target_docs, 6)
    matrix_a = build_transfer_matrix(target, toy_corpus("l1", source_docs, 6), make_dictionary(pairs))
    perm = rng.permutation(8)
    shuffled = [source_docs[p] for p in perm]
    matrix_b = build_transfer_matrix(target, toy_corpus("l1", shuffled, 6), make_dictionary(pairs))
    a = dense(matrix_a, 8)
    b = dense(matrix_b, 8)
    np.testing.assert_allclose(a[:, perm], b, atol=0)


def test_covered_types_numerator_differs_with_multiple_translations():
    # one target word with two source translations present: pair count 2,
    # covered types 3 (one target word + two source words)
    target = toy_corpus("l2", [[0]], 1)
    source = toy_corpus("l1", [[0, 1]], 2)
    dictionary = make_dictionary([(0, 0), (1, 0)])
    pairs_m = build_transfer_matrix(target, source, dictionary, numerator="pairs")
    cover_m = build_transfer_matrix(target, source, dictionary, numerator="covered_types")
    # single candidate row normalizes to 1 either way; compare raw via a 2-doc source
    source2 = toy_corpus("l1", [[0, 1], [0]], 2)
    pairs_m = build_transfer_matrix(target, source2, dictionary, numerator="pairs")
    cover_m = build_transfer_matrix(target, source2, dictionary, numerator="covered_types")
    # pairs: doc0 2/3, doc1 1/2 -> weights 4/7, 3/7
    np.testing.assert_allclose(pairs_m.rows[0][1], [4 / 7, 3 / 7], atol=1e-12)
    # covered: doc0 3/3, doc1 2/2 -> equal weights
    np.testing.assert_allclose(cover_m.rows[0][1], [0.5, 0.5], atol=1e-12)


def make_matrix(rows):
    built = [
        (np.array([i for i, _ in entries], dtype=np.int64), np.array([w for _, w in entries]))
        for entries in rows
    ]
    return matrix_from_rows("l2", "l1", built)


def test_matrix_dump_orders_by_weight_then_source_id(tmp_path):
    target = toy_corpus("l2", [[0]] * 3, 1)
    source = toy_corpus("l1", [[0]] * 4, 1)
    matrix = make_matrix([[(0, 0.25), (1, 0.5), (3, 0.25)], [], [(2, 1.0)]])
    write_matrix_tsv(matrix, target, source, tmp_path / "m.tsv")
    assert (tmp_path / "m.tsv").read_text() == (
        "l20\tl11\t0.5\nl20\tl10\t0.25\nl20\tl13\t0.25\nl22\tl12\t1.0\n"
    )


class TestStaticFocus:
    def test_worked_example(self):
        matrix = make_matrix([[(0, 0.5), (1, 0.3), (2, 0.2)]])
        out = static_focus(matrix, FocusConfig(threshold=0.5, scope="doc_wise"))
        idx, weights = out.rows[0]
        assert idx.tolist() == [0, 1]
        np.testing.assert_allclose(weights, [0.625, 0.375], atol=1e-12)

    def test_zero_threshold_is_identity(self):
        matrix = make_matrix([[(0, 0.5), (1, 0.3), (2, 0.2)], []])
        out = static_focus(matrix, FocusConfig(threshold=0.0))
        for (ia, wa), (ib, wb) in zip(matrix.rows, out.rows):
            assert ia.tolist() == ib.tolist()
            assert wa.tolist() == wb.tolist()

    def test_threshold_one_empties_every_row(self):
        matrix = make_matrix([[(0, 0.6), (1, 0.4)], [(2, 1.0)]])
        out = static_focus(matrix, FocusConfig(threshold=1.0))
        assert all(len(idx) == 0 for idx, _ in out.rows)

    def test_corpus_wise_uses_global_maximum(self):
        matrix = make_matrix([[(0, 0.5), (1, 0.5)], [(0, 1.0)]])
        out = static_focus(matrix, FocusConfig(threshold=0.6, scope="corpus_wise"))
        assert len(out.rows[0][0]) == 0  # 0.5 <= 0.6 * 1.0
        assert out.rows[1][1].tolist() == [1.0]
        # doc-wise keeps each row's own max
        out_doc = static_focus(matrix, FocusConfig(threshold=0.6, scope="doc_wise"))
        assert len(out_doc.rows[0][0]) == 2

    def test_exact_threshold_ties_are_dropped(self):
        matrix = make_matrix([[(0, 0.5), (1, 0.25), (2, 0.25)]])
        out = static_focus(matrix, FocusConfig(threshold=0.5, scope="doc_wise"))
        # 0.25 == 0.5 * 0.5 is not strictly greater, so it goes
        assert out.rows[0][0].tolist() == [0]

    def test_support_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        weights = rng.dirichlet(np.ones(12))
        matrix = make_matrix([list(enumerate(weights))])
        sizes = []
        for threshold in np.linspace(0, 1, 21):
            out = static_focus(matrix, FocusConfig(threshold=float(threshold)))
            sizes.append(len(out.rows[0][0]))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 12 and sizes[-1] == 0


class TestAnneal:
    def test_worked_example(self):
        matrix = make_matrix([[(0, 0.8), (1, 0.2)]])
        out = anneal_matrix(matrix, 0.9)
        a = 0.8 ** (1 / 0.9)
        b = 0.2 ** (1 / 0.9)
        np.testing.assert_allclose(out.rows[0][1], [a / (a + b), b / (a + b)], atol=1e-12)
        np.testing.assert_allclose(out.rows[0][1], [0.8235, 0.1765], atol=1e-3)

    def test_temperature_one_is_exact_identity(self):
        matrix = make_matrix([[(0, 0.7), (1, 0.3)]])
        out = anneal_matrix(matrix, 1.0)
        assert out.rows[0][1].tolist() == [0.7, 0.3]

    def test_uniform_row_unchanged(self):
        matrix = make_matrix([[(i, 0.25) for i in range(4)]])
        out = anneal_matrix(matrix, 0.9)
        assert out.rows[0][1].tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_empty_row_and_singleton_are_fixed_points(self):
        matrix = make_matrix([[], [(3, 1.0)]])
        out = anneal_matrix(matrix, 0.5)
        assert len(out.rows[0][0]) == 0
        assert out.rows[1][1].tolist() == [1.0]

    def test_row_whose_every_weight_flushes_takes_the_limit(self):
        # each weight to the power 1000 is below the smallest double
        matrix = make_matrix([[(0, 0.3), (1, 0.3), (2, 0.4)], [], [(0, 0.45), (1, 0.45), (2, 0.1)]])
        out = anneal_matrix(matrix, 0.001)
        assert [w.tolist() for _, w in out.rows] == [[0.0, 0.0, 1.0], [], [0.5, 0.5, 0.0]]
        assert [idx.tolist() for idx, _ in out.rows] == [[0, 1, 2], [], [0, 1, 2]]

    def test_support_and_argmax_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            weights = rng.dirichlet(np.full(6, 0.5)) + 1e-9
            weights /= weights.sum()
            matrix = make_matrix([list(enumerate(weights))])
            out = anneal_matrix(matrix, float(rng.uniform(0.3, 1.0)))
            idx, new_weights = out.rows[0]
            assert idx.tolist() == list(range(6))
            assert (new_weights > 0).all()
            assert int(np.argmax(new_weights)) == int(np.argmax(weights))

    def test_repeated_annealing_concentrates_mass(self):
        for start in ([0.5, 0.3, 0.2], [0.4, 0.35, 0.25], [0.34, 0.33, 0.33]):
            matrix = make_matrix([list(enumerate(start))])
            for _ in range(200):
                matrix = anneal_matrix(matrix, 0.9)
            assert matrix.rows[0][1].max() > 0.999


def test_anneal_config_validation():
    with pytest.raises(Exception):
        AnnealConfig(temperature=0.0)
    with pytest.raises(Exception):
        AnnealConfig(interval=0)
    with pytest.raises(Exception):
        AnnealConfig(schedule="sometimes")
    with pytest.raises(ConfigError, match=r"^anneal\.stop_iteration must be non-negative, got -5$"):
        AnnealConfig(stop_iteration=-5)
    assert AnnealConfig(stop_iteration=0).stop_iteration == 0
