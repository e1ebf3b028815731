"""Evaluation stack: crosslingual topic coherence (CNPMI) against a
parallel reference corpus, crosslingual document classification
(micro-F1), and synthetic corpus generation for controlled experiments.

Classifier note: document classification uses the toolkit's own
one-vs-rest logistic regression; every report records this substitution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import BilingualCorpus, Corpus, Document, Vocabulary
from .corpus import json_text, read_jsonl, write_jsonl, write_text
from .dictionary import BilingualDictionary
from .errors import ConfigError, DataError
from .logreg import cross_val_fits, fit_binary_stack, sigmoid
from .models import TopicModel
from .settings import Key

logger = logging.getLogger(__name__)

CLASSIFIER_NOTE = "one-vs-rest logistic regression (in place of an SVM)"


class ReferenceCorpus:
    """Paired word-type sets from a parallel corpus, id-encoded against the
    same vocabularies as the model under evaluation.

    Besides `pairs`, each side keeps its (pair, word) entries as one
    (n, 2) int64 array in `entries`, pair by pair, one row per distinct
    type of a pair: the layout CNPMI counts on."""

    def __init__(self, pairs: list[tuple[frozenset[int], frozenset[int]]]):
        for side1, side2 in pairs:
            if not side1 or not side2:
                raise DataError("reference pairs must be nonempty on both sides")
        self.pairs = pairs
        self.entries = tuple(_entry_table([pair[side] for pair in pairs]) for side in (0, 1))
        if any(len(table) and table[:, 1].min() < 0 for table in self.entries):
            raise DataError("reference word ids must be non-negative")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def _entry_table(sides: list[frozenset[int]]) -> np.ndarray:
    """One (pair index, word id) row per type of each pair, pair by pair."""
    lengths = [len(types) for types in sides]
    table = np.empty((sum(lengths), 2), dtype=np.int64)
    table[:, 0] = np.repeat(np.arange(len(sides), dtype=np.int64), lengths)
    table[:, 1] = np.fromiter(chain.from_iterable(sides), dtype=np.int64, count=len(table))
    return table


def load_reference(path: str | Path, v1: Vocabulary, v2: Vocabulary) -> ReferenceCorpus:
    """Read JSON-lines reference pairs of word-type lists; out-of-vocabulary
    types are dropped and pairs left empty on either side are skipped."""
    pairs = []
    skipped = 0
    for where, rec in read_jsonl(path, "reference file", "a reference pair"):
        if "l1_types" not in rec or "l2_types" not in rec:
            raise DataError(f"{where}: need 'l1_types' and 'l2_types'")
        sides = []
        for key, vocab in (("l1_types", v1), ("l2_types", v2)):
            types = rec[key]
            if not isinstance(types, list) or not {str}.issuperset(map(type, types)):
                raise DataError(f"{where}: {key!r} must be a list of strings")
            ids = frozenset(map(vocab.id_of_word.get, types))
            sides.append(ids - {None} if None in ids else ids)  # None: out of vocabulary
        if not sides[0] or not sides[1]:
            skipped += 1
            continue
        pairs.append(tuple(sides))
    if skipped:
        logger.warning("%s: skipped %d pairs empty after vocabulary encoding", path, skipped)
    if not pairs:
        raise DataError(f"{path}: no usable reference pairs")
    return ReferenceCorpus(pairs)


def write_reference(
    ref: ReferenceCorpus, v1: Vocabulary, v2: Vocabulary, path: str | Path
) -> None:
    records = (
        {
            "l1_types": sorted(v1.word_of_id[w] for w in side1),
            "l2_types": sorted(v2.word_of_id[w] for w in side2),
        }
        for side1, side2 in ref.pairs
    )
    write_jsonl(records, path)


TOP_WORDS = Key(20, "int", "(0, inf)")  # the `c` of `top_words` and `cnpmi_model`


def _top_word_ids(phi: np.ndarray, c: int) -> np.ndarray:
    """Ids of the `c` most probable words of each row; ties broken by
    ascending id."""
    c = TOP_WORDS.check("c", c)
    if c > phi.shape[-1]:
        raise ConfigError(f"asked for {c} words from a {phi.shape[-1]}-word distribution")
    return np.argsort(-phi, axis=-1, kind="stable")[..., :c]


def top_words(phi_row: np.ndarray, c: int = 20) -> list[int]:
    """Ids of the `c` most probable words; ties broken by ascending id."""
    return _top_word_ids(np.asarray(phi_row), c).tolist()


# bytes of one chunk of topics' ANDed membership words: small enough that
# the popcount's passes stay in cache
_CHUNK_BYTES = 1 << 17
_M1, _M2, _M4, _H01 = (
    np.uint64(m)
    for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, counted in place by the SWAR method
    (Warren, Hacker's Delight, 5-1): bit counts of 2-, 4- and 8-bit
    fields, then their sum in the top byte."""
    t = x >> np.uint64(1)
    t &= _M1
    x -= t
    np.right_shift(x, np.uint64(2), out=t)
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, np.uint64(4), out=t)
    x += t
    x &= _M4
    x *= _H01  # wraps modulo 2**64: only the top byte is read
    x >>= np.uint64(56)
    return x


def _membership(entries: np.ndarray, words: np.ndarray, total: int):
    """Pair counts of the queried `words` on one reference side.

    Returns the number of pairs that hold each word, its row in a table
    of pair-membership bits packed into uint64 words, and that table, with
    one row per distinct queried word. An id the side never holds
    (negative, or past its largest id) is read as the first id past the
    largest, which no pair holds: it counts 0 and gets an all-zero row.
    """
    pair, word = entries[:, 0], entries[:, 1]
    n_words = int(word.max()) + 1
    ids = np.where((words >= 0) & (words < n_words), words, n_words)
    frequency = np.bincount(word, minlength=n_words + 1)[ids]
    queried = np.zeros(n_words + 1, dtype=bool)
    queried[ids] = True
    row_of = np.cumsum(queried) - 1
    hit = queried[word]
    member = np.zeros((row_of[-1] + 1, -(-total // 64) * 64), dtype=bool)
    member[row_of[word[hit]], pair[hit]] = True
    return frequency, row_of[ids], np.packbits(member, axis=1).view(np.uint64)


def _cnpmi_scores(words1: np.ndarray, words2: np.ndarray, ref: ReferenceCorpus) -> list[float]:
    """CNPMI of each row pair of the (K, c1) and (K, c2) word-id arrays.

    Each term is the NPMI of one cross-language word pair, from counts of
    the reference pairs holding the first word on side 1, the second on
    side 2, and both. Counts are exact integers (the set bits of ANDed
    membership words); logs come from libm through `math.log`, so no
    value depends on the BLAS kernel or numpy's SIMD level. Conventions,
    in order of precedence: a zero marginal gives 0 (no evidence); a zero
    joint count gives -1 (the analytic limit); words together in every
    pair give 0 (no information). Otherwise PMI is divided by
    -log(p_joint), so perfect co-occurrence scores +1, and clipped to
    [-1, 1]. A topic's score is the `math.fsum` of its terms over their
    number, so it does not depend on the order of the word lists.
    """
    if ref.n_pairs == 0:
        raise ConfigError("reference corpus is empty")
    total = ref.n_pairs
    count1, rows1, bits1 = _membership(ref.entries[0], words1, total)
    count2, rows2, bits2 = _membership(ref.entries[1], words2, total)
    n_topics, c1 = words1.shape
    c2 = words2.shape[1]
    joint = np.empty((n_topics, c1, c2), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (c1 * c2 * bits1[0].nbytes))
    for start in range(0, n_topics, step):
        a = bits1[rows1[start : start + step]][:, :, None, :]
        b = bits2[rows2[start : start + step]][:, None, :, :]
        joint[start : start + step] = _popcount(a & b).sum(axis=-1, dtype=np.int64)
    count1 = np.broadcast_to(count1[:, :, None], joint.shape)
    count2 = np.broadcast_to(count2[:, None, :], joint.shape)

    informative = (count1 > 0) & (count2 > 0)
    terms = np.where(informative & (joint == 0), -1.0, 0.0)
    regular = informative & (joint > 0) & (joint < total)
    n1, n2, n12 = count1[regular], count2[regular], joint[regular]
    logp = np.zeros(total + 1)
    needed = np.zeros(total + 1, dtype=bool)
    needed[n1] = needed[n2] = needed[n12] = True
    for n in np.flatnonzero(needed).tolist():
        logp[n] = math.log(n / total)
    lp12 = logp[n12]
    terms[regular] = np.clip((lp12 - logp[n1] - logp[n2]) / (-lp12), -1.0, 1.0)
    return [math.fsum(row) / (c1 * c2) for row in terms.reshape(n_topics, -1).tolist()]


def cnpmi_topic(words1: list[int], words2: list[int], ref: ReferenceCorpus) -> float:
    """Mean NPMI over all cross-language pairs of the two top-word lists,
    with co-occurrence counted over whole reference document pairs."""
    if not len(words1) or not len(words2):
        raise ConfigError("need nonempty top-word lists")
    ids1 = np.asarray(words1, dtype=np.int64).reshape(1, -1)
    ids2 = np.asarray(words2, dtype=np.int64).reshape(1, -1)
    return _cnpmi_scores(ids1, ids2, ref)[0]


def cnpmi_model(
    model: TopicModel, ref: ReferenceCorpus, c: int = 20
) -> tuple[list[float], float]:
    """Per-topic CNPMI using each language's top `c` words, plus the mean."""
    phi1, phi2 = (np.asarray(phi) for phi in model.phi)
    scores = _cnpmi_scores(_top_word_ids(phi1, c), _top_word_ids(phi2, c), ref)
    return scores, float(np.mean(scores))


# ---------------------------------------------------------------------------
# crosslingual classification
# ---------------------------------------------------------------------------


def micro_f1(tp: int, fp: int, fn: int) -> float:
    """Micro-averaged F1 from pooled counts; vacuously 1.0 when there are
    no gold or predicted positives at all."""
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2 * tp / denom


def _micro_f1s(pred: np.ndarray, gold: np.ndarray) -> list[float]:
    """Micro-F1 of each boolean prediction table in the stack `pred`
    against the one boolean `gold` table, tp/fp/fn pooled over its cells."""
    axes = tuple(range(1, pred.ndim))
    tp = np.count_nonzero(pred & gold, axis=axes)
    fp = np.count_nonzero(pred, axis=axes) - tp
    fn = np.count_nonzero(gold) - tp
    return list(map(micro_f1, tp.tolist(), fp.tolist(), fn.tolist()))


def _tune_threshold(x: np.ndarray, y: np.ndarray, folds: int, seed: int) -> float:
    """Pick the probability cutoff maximizing F1 on out-of-fold posteriors:
    the first best of 0.05, 0.10, ..., 0.95."""
    posteriors = np.zeros(len(y))
    for fit in cross_val_fits(x, y, folds, seed):
        posteriors[fit.held_out] = fit.posteriors
    cutoffs = np.arange(0.05, 1.0, 0.05)
    scores = _micro_f1s(posteriors >= cutoffs[:, None], np.asarray(y) == 1)
    return float(cutoffs[np.argmax(scores)])


def _label_tables(train_labels: list, test_labels: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The sorted labels of both sides, and each side's boolean L x D
    table whose row l marks the documents that carry label l."""
    sides = [[frozenset(ls or ()) for ls in labels] for labels in (train_labels, test_labels)]
    universe = sorted(set().union(*sides[0], *sides[1]))
    row = {label: i for i, label in enumerate(universe)}
    tables = [np.zeros((len(universe), len(sets)), dtype=bool) for sets in sides]
    for table, sets in zip(tables, sides):
        docs = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        table[[row[label] for s in sets for label in s], docs] = True
    return universe, *tables


def classify_crosslingual(
    train_theta: np.ndarray,
    train_labels: list,
    test_theta: np.ndarray,
    test_labels: list,
    tune_thresholds: bool = False,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Train one-vs-rest logistic classifiers on one language's document
    topic mixtures and score micro-F1 on the other language's.

    Labels are per-document collections (multi-label allowed), one label
    table per side over both sides' labels. A label no training document
    carries is never predicted, with a warning, so its test positives are
    misses; one every training document carries is predicted everywhere.
    The others are fitted by one `fit_binary_stack` call, each bit-identical
    to a fit of its own, and score the test side in one stacked product: a
    label is predicted where its posterior reaches 0.5, or under
    `tune_thresholds` its own cutoff by cross-validated F1.
    """
    train_theta = np.asarray(train_theta, dtype=np.float64)
    test_theta = np.asarray(test_theta, dtype=np.float64)
    universe, y_train, y_test = _label_tables(train_labels, test_labels)
    if y_train.shape[1] != len(train_theta) or y_test.shape[1] != len(test_theta):
        raise ConfigError("label lists must align with theta rows")
    n_train = y_train.shape[1]
    positives = y_train.sum(axis=1)
    for index in np.flatnonzero(positives == 0).tolist():
        logger.warning("label %r has no positive training documents; never predicted", universe[index])
    pred = np.zeros(y_test.shape, dtype=bool)
    pred[(positives > 0) & (positives == n_train)] = True
    # every label with both classes in training is fitted in one stacked call
    fitted = np.flatnonzero((positives > 0) & (positives < n_train))
    if len(fitted):
        weights, bias = fit_binary_stack(train_theta, y_train[fitted])
        cutoffs = np.full((len(fitted), 1), 0.5)
        if tune_thresholds:
            cutoffs[:, 0] = [_tune_threshold(train_theta, y_train[i], folds, seed) for i in fitted]
        # the decision rule; the stacked matmul makes one gemv per label, the
        # call `test_theta @ weights[i]` makes, so every score keeps its bits
        scores = np.matmul(test_theta, weights[:, :, None])[:, :, 0] + bias[:, None]
        pred[fitted] = sigmoid(scores) >= cutoffs
    return _micro_f1s(pred[None], y_test)[0]


def majority_baseline_f1(train_labels: list, test_labels: list) -> float:
    """Micro-F1 of always predicting the most frequent training label (the
    first in sorted order on a tie)."""
    _, y_train, y_test = _label_tables(train_labels, test_labels)
    counts = y_train.sum(axis=1)
    if not counts.any():
        raise ConfigError("no training labels")
    pred = np.zeros(y_test.shape, dtype=bool)
    pred[np.argmax(counts)] = True
    return _micro_f1s(pred[None], y_test)[0]


@dataclass
class EvalReport:
    cnpmi_per_topic: list[float] | None = None
    cnpmi_mean: float | None = None
    f1_side1_to_side2: float | None = None
    f1_side2_to_side1: float | None = None
    lis_final: float | None = None
    metadata: dict = field(default_factory=lambda: {"classifier": CLASSIFIER_NOTE})

    def to_json(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        """The report as indented JSON with sorted keys. A NaN or infinity
        raises `DataError`: JSON has no such number."""
        return json_text(self.to_json(), "the evaluation report", indent=True)

    def save(self, path: str | Path) -> None:
        """Write `to_text()` and a newline; a report that cannot be
        encoded leaves no file."""
        write_text(path, (self.to_text(), "\n"))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SyntheticData:
    corpus: BilingualCorpus
    dictionary: BilingualDictionary
    phi: tuple[np.ndarray, np.ndarray]
    theta: tuple[np.ndarray, np.ndarray]


def _sharpen(theta: np.ndarray, sharpness: float) -> np.ndarray:
    """Raise a distribution to a power and renormalize; infinite sharpness
    collapses onto the argmax."""
    if math.isinf(sharpness):
        out = np.zeros_like(theta)
        out[np.argmax(theta)] = 1.0
        return out
    logs = np.log(theta) * sharpness
    logs -= logs.max()
    out = np.exp(logs)
    return out / out.sum()


# `generate_synthetic`'s settings in parameter order, each checked under its
# parameter name; infinite sharpness gives each document its argmax topic
SYNTHETIC = {
    "k": Key(5, "int", "[1, inf)"),
    "vocab_per_lang": Key(500, "int", "[1, inf)"),
    "docs_per_lang": Key(200, "int", "[1, inf)"),
    "doc_len": Key(50, "int", "[1, inf)"),
    "dict_coverage": Key(0.3, "float", "[0, 1]"),
    "topic_sharpness": Key(8.0, "float", "(0, inf]"),
}
REFERENCE_PAIRS = Key(1000, "int", "[1, inf)")  # `generate_reference`'s n_pairs


def generate_synthetic(
    k: int,
    vocab_per_lang: int,
    docs_per_lang: int,
    doc_len: int,
    dict_coverage: float,
    topic_sharpness: float,
    seed: int,
    languages: tuple[str, str] = ("l1", "l2"),
) -> SyntheticData:
    """Draw a bilingual corpus from shared ground-truth topics.

    Both languages use the same topic-word table over matched word slots
    (slot i of language 1 translates slot i of language 2), so paired
    words carry identical probabilities; the emitted dictionary reveals
    the first round(dict_coverage * V) of those pairs. Each topic
    concentrates 95% of its mass on a private block of slots; blocks
    interleave over slot indices (slot i belongs to block i mod k) so any
    dictionary prefix covers every topic evenly. Documents draw a
    Dirichlet(1) topic mixture sharpened by `topic_sharpness` and are
    labeled with their dominant topic. Deterministic under `seed`.
    """
    k, vocab_per_lang, docs_per_lang, doc_len, dict_coverage, topic_sharpness = (
        SYNTHETIC[name].check(name, value) for name, value in zip(SYNTHETIC, (
            k, vocab_per_lang, docs_per_lang, doc_len, dict_coverage, topic_sharpness)))
    if vocab_per_lang < k:
        raise ConfigError("need at least one word per topic block")
    rng = np.random.default_rng(seed)

    slots = np.arange(vocab_per_lang)
    phi = np.full((k, vocab_per_lang), 0.05 / vocab_per_lang)
    for topic in range(k):
        block = slots[slots % k == topic]
        # mildly concentrated within-block weights: every block word stays
        # frequent enough to be usable as dictionary evidence
        phi[topic, block] += 0.95 * rng.dirichlet(np.full(len(block), 4.0))
    phi /= phi.sum(axis=1, keepdims=True)

    vocab_words = (
        [f"a{i:04d}" for i in range(vocab_per_lang)],
        [f"b{i:04d}" for i in range(vocab_per_lang)],
    )
    vocabularies = (
        Vocabulary(languages[0], vocab_words[0]),
        Vocabulary(languages[1], vocab_words[1]),
    )

    thetas = []
    corpora = []
    for side in (0, 1):
        theta = np.empty((docs_per_lang, k))
        documents = []
        for d in range(docs_per_lang):
            theta[d] = _sharpen(rng.dirichlet(np.ones(k)), topic_sharpness)
            word_counts = rng.multinomial(doc_len, theta[d] @ phi)
            tokens = np.repeat(np.arange(vocab_per_lang), word_counts)
            rng.shuffle(tokens)
            label = f"topic_{int(np.argmax(theta[d]))}"
            documents.append(
                Document(
                    doc_id=f"{languages[side]}_{d:05d}",
                    language=languages[side],
                    tokens=tokens.tolist(),
                    labels=frozenset([label]),
                )
            )
        thetas.append(theta)
        corpora.append(
            Corpus(language=languages[side], vocabulary=vocabularies[side], documents=documents)
        )

    n_concepts = int(round(dict_coverage * vocab_per_lang))
    dictionary = BilingualDictionary(
        languages[0], languages[1], [(i, i) for i in range(n_concepts)]
    )
    corpus = BilingualCorpus(side1=corpora[0], side2=corpora[1], hard_links=[])
    return SyntheticData(
        corpus=corpus,
        dictionary=dictionary,
        phi=(phi.copy(), phi.copy()),
        theta=(thetas[0], thetas[1]),
    )


def generate_reference(
    phi: tuple[np.ndarray, np.ndarray],
    n_pairs: int,
    types_per_side: int,
    seed: int,
) -> ReferenceCorpus:
    """Sample a parallel reference corpus from ground-truth topics: each
    pair picks one topic and draws both sides' word types from it."""
    n_pairs = REFERENCE_PAIRS.check("n_pairs", n_pairs)
    types_per_side = SYNTHETIC["doc_len"].check("types_per_side", types_per_side)
    if n_pairs > np.iinfo(np.intp).max // 16:  # a 16-byte `entries` row per pair
        raise OverflowError(f"n_pairs {n_pairs} is more than numpy can index")
    rng = np.random.default_rng(seed)
    k = phi[0].shape[0]
    pairs = []
    while len(pairs) < n_pairs:
        topic = int(rng.integers(0, k))
        sides = []
        for side in (0, 1):
            counts = rng.multinomial(types_per_side, phi[side][topic])
            sides.append(frozenset(np.flatnonzero(counts).tolist()))
        if sides[0] and sides[1]:
            pairs.append((sides[0], sides[1]))
    return ReferenceCorpus(pairs)
