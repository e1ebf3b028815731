"""Evaluation stack: crosslingual topic coherence (CNPMI) against a
parallel reference corpus, crosslingual document classification
(micro-F1), and synthetic corpus generation for controlled experiments.

Classifier note: document classification uses the toolkit's own
one-vs-rest logistic regression; every report records this substitution.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import BilingualCorpus, Corpus, Document, Vocabulary
from .dictionary import BilingualDictionary
from .errors import ConfigError, DataError
from .logreg import cross_val_fits, fit_binary_stack, sigmoid
from .models import TopicModel

logger = logging.getLogger(__name__)

CLASSIFIER_NOTE = "one-vs-rest logistic regression (in place of an SVM)"


class ReferenceCorpus:
    """Paired word-type sets from a parallel corpus, id-encoded against the
    same vocabularies as the model under evaluation."""

    def __init__(self, pairs: list[tuple[frozenset[int], frozenset[int]]]):
        for side1, side2 in pairs:
            if not side1 or not side2:
                raise DataError("reference pairs must be nonempty on both sides")
        self.pairs = pairs
        self._index: tuple[dict[int, set[int]], dict[int, set[int]]] | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def index(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """word id -> set of pair indices containing it, per side."""
        if self._index is None:
            idx1: dict[int, set[int]] = {}
            idx2: dict[int, set[int]] = {}
            for i, (side1, side2) in enumerate(self.pairs):
                for w in side1:
                    idx1.setdefault(w, set()).add(i)
                for w in side2:
                    idx2.setdefault(w, set()).add(i)
            self._index = (idx1, idx2)
        return self._index


def load_reference(path: str | Path, v1: Vocabulary, v2: Vocabulary) -> ReferenceCorpus:
    """Read JSON-lines reference pairs of word-type lists; out-of-vocabulary
    types are dropped and pairs left empty on either side are skipped."""
    pairs = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: a reference pair must be a JSON object")
            if "l1_types" not in rec or "l2_types" not in rec:
                raise DataError(f"{path}:{lineno}: need 'l1_types' and 'l2_types'")
            for key in ("l1_types", "l2_types"):
                types = rec[key]
                if not isinstance(types, list) or not all(isinstance(w, str) for w in types):
                    raise DataError(f"{path}:{lineno}: {key!r} must be a list of strings")
            side1 = frozenset(
                v1.id_of_word[w] for w in rec["l1_types"] if w in v1.id_of_word
            )
            side2 = frozenset(
                v2.id_of_word[w] for w in rec["l2_types"] if w in v2.id_of_word
            )
            if not side1 or not side2:
                skipped += 1
                continue
            pairs.append((side1, side2))
    if skipped:
        logger.warning("%s: skipped %d pairs empty after vocabulary encoding", path, skipped)
    if not pairs:
        raise DataError(f"{path}: no usable reference pairs")
    return ReferenceCorpus(pairs)


def write_reference(
    ref: ReferenceCorpus, v1: Vocabulary, v2: Vocabulary, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for side1, side2 in ref.pairs:
            rec = {
                "l1_types": sorted(v1.word_of_id[w] for w in side1),
                "l2_types": sorted(v2.word_of_id[w] for w in side2),
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def top_words(phi_row: np.ndarray, c: int = 20) -> list[int]:
    """Ids of the `c` most probable words; ties broken by ascending id."""
    phi_row = np.asarray(phi_row)
    if c > len(phi_row):
        raise ConfigError(f"asked for {c} words from a {len(phi_row)}-word distribution")
    order = np.argsort(-phi_row, kind="stable")
    return [int(w) for w in order[:c]]


def _npmi(c1: int, c2: int, c12: int, total: int) -> float:
    """Normalized pointwise mutual information from co-occurrence counts.

    Conventions: a zero marginal gives 0 (no evidence); positive marginals
    with zero joint count give -1 (the analytic limit); words present in
    every pair give 0 (co-occurrence carries no information). PMI is
    divided by -log(p_joint) so perfect co-occurrence scores +1.
    """
    if c1 == 0 or c2 == 0:
        return 0.0
    if c12 == 0:
        return -1.0
    if c12 == total:
        return 0.0
    lp1 = math.log(c1 / total)
    lp2 = math.log(c2 / total)
    lp12 = math.log(c12 / total)
    value = (lp12 - lp1 - lp2) / (-lp12)
    return max(-1.0, min(1.0, value))


def cnpmi_topic(words1: list[int], words2: list[int], ref: ReferenceCorpus) -> float:
    """Mean NPMI over all cross-language pairs of the two top-word lists,
    with co-occurrence counted over whole reference document pairs."""
    if not words1 or not words2:
        raise ConfigError("need nonempty top-word lists")
    if ref.n_pairs == 0:
        raise ConfigError("reference corpus is empty")
    idx1, idx2 = ref.index()
    total = ref.n_pairs
    empty: set[int] = set()
    terms = []
    for w1 in words1:
        docs1 = idx1.get(w1, empty)
        c1 = len(docs1)
        for w2 in words2:
            docs2 = idx2.get(w2, empty)
            terms.append(_npmi(c1, len(docs2), len(docs1 & docs2), total))
    # fsum keeps the mean invariant to the order of the word lists
    return math.fsum(terms) / len(terms)


def cnpmi_model(
    model: TopicModel, ref: ReferenceCorpus, c: int = 20
) -> tuple[list[float], float]:
    """Per-topic CNPMI using each language's top `c` words, plus the mean."""
    phi1, phi2 = model.phi
    scores = []
    for k in range(model.hyperparams.k):
        scores.append(cnpmi_topic(top_words(phi1[k], c), top_words(phi2[k], c), ref))
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


def _tune_threshold(x: np.ndarray, y: np.ndarray, folds: int, seed: int) -> float:
    """Pick the probability cutoff maximizing F1 on out-of-fold posteriors."""
    posteriors = np.zeros(len(y))
    for fit in cross_val_fits(x, y, folds, seed):
        posteriors[fit.held_out] = fit.posteriors
    best_threshold, best_f1 = 0.5, -1.0
    for threshold in np.arange(0.05, 1.0, 0.05):
        pred = posteriors >= threshold
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        score = micro_f1(tp, fp, fn)
        if score > best_f1:
            best_f1, best_threshold = score, float(threshold)
    return best_threshold


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

    Labels are per-document collections (multi-label allowed). Labels with
    no positive training documents are dropped with a warning; prediction
    uses a 0.5 posterior cutoff unless `tune_thresholds` selects per-label
    cutoffs by cross-validated F1. All labels share the training rows, so
    they are fitted together by one `fit_binary_stack` call; each label's
    classifier is bit-identical to fitting it on its own.
    """
    train_theta = np.asarray(train_theta, dtype=np.float64)
    test_theta = np.asarray(test_theta, dtype=np.float64)
    train_sets = [frozenset(ls or ()) for ls in train_labels]
    test_sets = [frozenset(ls or ()) for ls in test_labels]
    if len(train_sets) != len(train_theta) or len(test_sets) != len(test_theta):
        raise ConfigError("label lists must align with theta rows")
    universe = sorted(set().union(*train_sets, *test_sets)) if train_sets else []
    y_train = np.array(
        [[label in s for s in train_sets] for label in universe], dtype=np.int64
    ).reshape(len(universe), len(train_sets))
    y_test = np.array(
        [[label in s for s in test_sets] for label in universe], dtype=np.int64
    ).reshape(len(universe), len(test_sets))
    positives = y_train.sum(axis=1)
    # every label with both classes in training is fitted in one stacked call
    fitted = np.flatnonzero((positives > 0) & (positives < len(train_sets)))
    weights, bias = fit_binary_stack(train_theta, y_train[fitted]) if len(fitted) else ((), ())
    row_of_label = {int(label): row for row, label in enumerate(fitted)}
    tp = fp = fn = 0
    for index, label in enumerate(universe):
        if positives[index] == 0:
            logger.warning("label %r has no positive training documents; dropped", label)
            continue
        if index not in row_of_label:
            # degenerate all-positive label: predict positive everywhere
            pred = np.ones(len(test_sets), dtype=bool)
        else:
            row = row_of_label[index]
            threshold = 0.5
            if tune_thresholds:
                threshold = _tune_threshold(train_theta, y_train[index], folds, seed)
            pred = sigmoid(test_theta @ weights[row] + bias[row]) >= threshold
        tp += int((pred & (y_test[index] == 1)).sum())
        fp += int((pred & (y_test[index] == 0)).sum())
        fn += int((~pred & (y_test[index] == 1)).sum())
    return micro_f1(tp, fp, fn)


def majority_baseline_f1(train_labels: list, test_labels: list) -> float:
    """Micro-F1 of always predicting the most frequent training label."""
    train_sets = [frozenset(ls or ()) for ls in train_labels]
    test_sets = [frozenset(ls or ()) for ls in test_labels]
    counts: dict[str, int] = {}
    for s in train_sets:
        for label in s:
            counts[label] = counts.get(label, 0) + 1
    if not counts:
        raise ConfigError("no training labels")
    majority = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    tp = sum(1 for s in test_sets if majority in s)
    fp = len(test_sets) - tp
    fn = sum(len(s) for s in test_sets) - tp
    return micro_f1(tp, fp, fn)


@dataclass
class EvalReport:
    cnpmi_per_topic: list[float] | None = None
    cnpmi_mean: float | None = None
    f1_side1_to_side2: float | None = None
    f1_side2_to_side1: float | None = None
    lis_final: float | None = None
    metadata: dict = field(default_factory=lambda: {"classifier": CLASSIFIER_NOTE})

    def to_json(self) -> dict:
        return {
            "cnpmi_per_topic": self.cnpmi_per_topic,
            "cnpmi_mean": self.cnpmi_mean,
            "f1_side1_to_side2": self.f1_side1_to_side2,
            "f1_side2_to_side1": self.f1_side2_to_side1,
            "lis_final": self.lis_final,
            "metadata": self.metadata,
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    if not 0.0 <= dict_coverage <= 1.0:
        raise ConfigError(f"dict_coverage must be in [0, 1], got {dict_coverage}")
    if min(k, vocab_per_lang, docs_per_lang, doc_len) <= 0 or topic_sharpness <= 0:
        raise ConfigError("synthetic parameters must be positive")
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
