"""Bitwise parity of the vectorised read-only paths with their loop references.

Held-out inference runs all documents in lockstep, the one-vs-rest
classifier fits every label in one stacked call, and LIS features come from
one gather. Each must reproduce, bit for bit, the one-document /
one-label / one-concept loops kept in `tests/oracles.py`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multitopic.corpus import Corpus, Document, Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic.evaluate import classify_crosslingual
from multitopic.logreg import LogisticRegression, fit_binary_stack, sigmoid
from multitopic.models import Hyperparams, TopicModel, infer_heldout
from multitopic.schedule import concept_features

from oracles import (
    classify_crosslingual_reference,
    concept_features_reference,
    fit_reference,
    infer_heldout_reference,
    sigmoid_reference,
)

# derandomized: every run checks the same generated cases, so the suite is
# reproducible; raise max_examples locally to explore further
SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_model(phi: np.ndarray, alpha: float) -> TopicModel:
    k, vocab_size = phi.shape
    return TopicModel(
        model_kind="lda",
        hyperparams=Hyperparams(k=k, alpha=alpha, train_iterations=1, infer_iterations=3),
        vocabularies=(
            Vocabulary("l1", [f"a{i}" for i in range(vocab_size)]),
            Vocabulary("l2", [f"b{i}" for i in range(vocab_size)]),
        ),
        phi=(phi, phi.copy()),
        theta=(np.zeros((0, k)), np.zeros((0, k))),
        doc_ids=([], []),
        doc_labels=([], []),
    )


@st.composite
def inference_cases(draw):
    k = draw(st.integers(2, 50))
    vocab_size = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(0, 20), min_size=0, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.dirichlet(np.ones(vocab_size), size=k)
    if draw(st.booleans()):
        # exact zeros make flat CDF steps, where "first u < cdf" is decided by ties
        phi[rng.random(phi.shape) < 0.3] = 0.0
    alpha = draw(st.sampled_from([0.01, 0.1, 1.0, 2.5]))
    docs = [
        Document(f"d{i}", "l1", rng.integers(0, vocab_size, size=n).tolist())
        for i, n in enumerate(lengths)
    ]
    corpus = Corpus("l1", Vocabulary("l1", [f"a{i}" for i in range(vocab_size)]), docs)
    return make_model(phi, alpha), corpus, draw(st.integers(0, 1000)), draw(st.integers(1, 4))


@SETTINGS
@given(inference_cases())
def test_lockstep_inference_matches_per_document_loop(case):
    model, corpus, seed, iterations = case
    got = infer_heldout(model, corpus, seed=seed, iterations=iterations)
    want = infer_heldout_reference(model, corpus, seed=seed, iterations=iterations)
    assert same_bits(got, want)


@pytest.mark.parametrize("lengths", [[], [0], [0, 0], [7], [0, 5, 0, 1, 9, 9, 2]])
def test_lockstep_inference_edge_shapes(lengths):
    rng = np.random.default_rng(len(lengths))
    model = make_model(rng.dirichlet(np.ones(6), size=4), 0.1)
    docs = [
        Document(f"d{i}", "l1", rng.integers(0, 6, size=n).tolist())
        for i, n in enumerate(lengths)
    ]
    corpus = Corpus("l1", model.vocabularies[0], docs)
    got = infer_heldout(model, corpus, seed=5)
    assert got.shape == (len(lengths), 4)
    assert same_bits(got, infer_heldout_reference(model, corpus, seed=5))


def test_lockstep_inference_word_without_mass_falls_to_last_topic():
    # a word no topic can emit has an all-zero CDF, so u = 0 equals every
    # entry: the per-token walk finds no topic with u < cdf and takes the last
    phi = np.array([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75], [0.5, 0.0, 0.5]])
    model = make_model(phi, 0.1)
    corpus = Corpus("l1", model.vocabularies[0], [Document("d", "l1", [1, 1, 0, 1])])
    got = infer_heldout(model, corpus, seed=3)
    assert same_bits(got, infer_heldout_reference(model, corpus, seed=3))
    assert got[0, 2] >= (3 + 0.1) / (4 + 3 * 0.1)


def test_sigmoid_matches_masked_reference():
    rng = np.random.default_rng(0)
    z = np.concatenate([
        rng.normal(scale=40.0, size=4988),
        [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308],
        [np.inf, -np.inf],
    ])
    assert same_bits(sigmoid(z), sigmoid_reference(z))
    assert same_bits(sigmoid(z.reshape(-1, 4)), sigmoid_reference(z).reshape(-1, 4))


@st.composite
def stacked_problems(draw):
    m = draw(st.integers(1, 120))
    n = draw(st.integers(1, 50))
    n_problems = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.dirichlet(np.ones(n), size=m)
    else:
        x = rng.normal(scale=3.0, size=(m, n))
    ys = rng.integers(0, 2, size=(n_problems, m))
    ys[0] = draw(st.sampled_from([ys[0], np.zeros(m, np.int64), np.ones(m, np.int64)]))
    return x, ys, draw(st.integers(1, 40))


@SETTINGS
@given(stacked_problems())
def test_stacked_fit_matches_one_fit_per_problem(problem):
    x, ys, epochs = problem
    weights, bias = fit_binary_stack(x, ys, epochs=epochs)
    for row, y in enumerate(ys):
        want_w, want_b = fit_reference(x, y, epochs=epochs)
        assert same_bits(weights[row], want_w)
        assert bias[row] == want_b


def test_stacked_fit_over_many_rows_matches_reference():
    # more rows than numpy's reduction buffer, so the bias mean is chunked
    rng = np.random.default_rng(4)
    x = rng.dirichlet(np.ones(3), size=9000)
    ys = rng.integers(0, 2, size=(2, 9000))
    weights, bias = fit_binary_stack(x, ys, epochs=3)
    for row, y in enumerate(ys):
        want_w, want_b = fit_reference(x, y, epochs=3)
        assert same_bits(weights[row], want_w) and bias[row] == want_b


def test_logistic_regression_fit_is_the_one_row_case():
    rng = np.random.default_rng(5)
    x = rng.dirichlet(np.ones(25), size=150)
    y = rng.integers(0, 2, size=150)
    clf = LogisticRegression().fit(x, y)
    want_w, want_b = fit_reference(x, y)
    assert same_bits(clf.weights, want_w)
    assert type(clf.bias) is float and clf.bias == want_b


@st.composite
def labelled_splits(draw):
    k = draw(st.integers(2, 30))
    n_labels = draw(st.integers(1, 4))
    m_train = draw(st.integers(2, 40))
    m_test = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"t{i}" for i in range(n_labels)]

    def labels(m):
        return [
            sorted(names[int(i)] for i in rng.choice(n_labels, size=int(rng.integers(0, min(n_labels, 2) + 1)), replace=False))
            for _ in range(m)
        ]

    train_labels, test_labels = labels(m_train), labels(m_test)
    if draw(st.booleans()):  # a label every training document carries
        train_labels = [ls + ["every"] for ls in train_labels]
    if draw(st.booleans()):  # a label only the test side carries
        test_labels = [ls + ["unseen"] for ls in test_labels]
    return (
        rng.dirichlet(np.ones(k), size=m_train), train_labels,
        rng.dirichlet(np.ones(k), size=m_test).reshape(m_test, k), test_labels,
    )


_rng = np.random.default_rng(7)
# one fitted label, one all-positive label and one with no positive training
# document, with threshold tuning on
EDGE_SPLIT = (
    _rng.dirichlet(np.ones(4), size=12),
    [["a", "every"] if i % 3 else ["every"] for i in range(12)],
    _rng.dirichlet(np.ones(4), size=6),
    [["a"], ["unseen"], [], ["every"], ["a", "unseen"], []],
)


@settings(SETTINGS, max_examples=12)
@given(labelled_splits(), st.booleans())
@example(EDGE_SPLIT, True)
def test_stacked_classification_matches_per_label_fits(split, tune):
    args = split + (tune,)

    def outcome(classify):
        # fewer training documents than folds can leave a tuning fold with
        # no training rows; both paths must then fail the same way
        try:
            return classify()
        except ZeroDivisionError as exc:
            return type(exc)

    got = outcome(lambda: classify_crosslingual(*args, seed=2))
    want = outcome(lambda: classify_crosslingual_reference(*args, seed=2)[0])
    assert got == want


def test_stacked_classification_weights_match_per_label_fits():
    rng = np.random.default_rng(6)
    train_theta = rng.dirichlet(np.ones(25), size=80)
    train_labels = [[f"t{int(rng.integers(6))}"] + ["all"] for _ in range(80)]
    train_labels[3] = ["none_in_test"] + train_labels[3]
    y = np.array([[f"t{i}" in ls for ls in train_labels] for i in range(6)], dtype=np.int64)
    weights, bias = fit_binary_stack(train_theta, y)
    _, fitted = classify_crosslingual_reference(train_theta, train_labels, train_theta, [[]] * 80)
    assert "all" not in fitted  # degenerate all-positive labels are never fitted
    for i in range(6):
        want_w, want_b = fitted[f"t{i}"]
        assert same_bits(weights[i], want_w) and bias[i] == want_b


@st.composite
def concept_tables(draw):
    k = draw(st.integers(2, 50))
    v1, v2 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = (
        rng.integers(0, 4, size=(v1, k)) * rng.integers(0, 200, size=(v1, k)),
        rng.integers(0, 1000, size=(v2, k)),
    )
    tables[0][: v1 // 2] = 0  # words with no evidence at all
    pairs = draw(st.lists(st.tuples(st.integers(0, v1 - 1), st.integers(0, v2 - 1)), unique=True))
    return tables, BilingualDictionary("l1", "l2", pairs), draw(st.sampled_from([0.0, 0.01, 0.7]))


@SETTINGS
@given(concept_tables())
def test_concept_features_gather_matches_per_concept_loop(case):
    tables, dictionary, beta = case
    x, y = concept_features(tables, dictionary, beta)
    want_x, want_y = concept_features_reference(tables, dictionary.concepts, beta)
    assert same_bits(y, want_y)
    if len(dictionary.concepts):
        assert same_bits(x, want_x)
    else:
        assert x.shape == (0, tables[0].shape[1])
