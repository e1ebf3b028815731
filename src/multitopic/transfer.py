"""Transfer distributions: sparse per-document weights over the other
language's documents, derived from dictionary word overlap, with static
(threshold) focusing and deterministic annealing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .dictionary import BilingualDictionary, grouped
from .errors import ConfigError

NUMERATORS = ("pairs", "covered_types")
FOCUS_SCOPES = ("doc_wise", "corpus_wise")
SCHEDULES = ("none", "fixed", "adaptive")


@dataclass
class FocusConfig:
    """Static focusing: zero entries at or below threshold * max, where the
    max is taken per row (doc_wise) or over the whole matrix (corpus_wise)."""

    threshold: float = 0.0
    scope: str = "doc_wise"  # or "corpus_wise"

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"focal threshold must be in [0, 1], got {self.threshold}")
        if self.scope not in FOCUS_SCOPES:
            raise ConfigError(f"unknown selection scope {self.scope!r}")


@dataclass
class AnnealConfig:
    temperature: float = 0.9
    interval: int = 10
    stop_iteration: int = 400
    schedule: str = "none"  # none | fixed | adaptive
    lis_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.temperature <= 1.0:
            raise ConfigError(f"temperature must be in (0, 1], got {self.temperature}")
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1, got {self.interval}")
        if self.stop_iteration < 0:
            raise ConfigError(f"stop_iteration must be >= 0, got {self.stop_iteration}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.lis_every < 1:
            raise ConfigError(f"lis_every must be >= 1, got {self.lis_every}")
        if self.schedule == "adaptive" and self.lis_every > self.interval:
            # the first window, (0, interval], would then hold no LIS value
            raise ConfigError(
                f"anneal.lis_every ({self.lis_every}) must not exceed anneal.interval "
                f"({self.interval}) under the adaptive schedule"
            )


class TransferMatrix:
    """Sparse row-stochastic matrix: one row per target document, weights
    over source documents. Rows are (index array, weight array) pairs with
    indices strictly increasing; an empty row means no transfer."""

    def __init__(
        self,
        target_language: str,
        source_language: str,
        rows: list[tuple[np.ndarray, np.ndarray]],
    ):
        self.target_language = target_language
        self.source_language = source_language
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def nonempty_rows(self) -> int:
        return sum(1 for idx, _ in self.rows if len(idx))

    def max_weight(self) -> float:
        """Largest weight anywhere in the matrix (0.0 if all rows empty)."""
        best = 0.0
        for _, weights in self.rows:
            if len(weights):
                best = max(best, float(weights.max()))
        return best

    def mean_row_max(self) -> float:
        """Mean of per-row maxima over nonempty rows (0.0 if none)."""
        maxima = [float(w.max()) for _, w in self.rows if len(w)]
        return float(np.mean(maxima)) if maxima else 0.0

    def copy(self) -> "TransferMatrix":
        rows = [(idx.copy(), w.copy()) for idx, w in self.rows]
        return TransferMatrix(self.target_language, self.source_language, rows)


_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_W = np.empty(0, dtype=np.float64)


# target documents scored together: the candidate expansion, and with it
# peak memory, follows one block of documents, not the whole corpus
_BLOCK_DOCS = 256


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending. One sort: `np.unique`
    without counts hashes first, which is slower on these int64 keys."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _distinct_pairs(corpus: Corpus, concept_words: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (document, word) pairs of `corpus` as two arrays,
    ordered by document, then word, and the number of word ids that the
    corpus and `concept_words` use."""
    lengths = np.fromiter((len(d.tokens) for d in corpus.documents), np.int64, len(corpus))
    words = np.fromiter(
        chain.from_iterable(d.tokens for d in corpus.documents), np.int64, int(lengths.sum())
    )
    docs = np.repeat(np.arange(len(corpus), dtype=np.int64), lengths)
    n_words = 1 + int(max(words.max(initial=-1), concept_words.max(initial=-1)))
    keys = _distinct(docs * n_words + words)
    return keys // n_words, keys % n_words, n_words


def _expand(groups: tuple[np.ndarray, np.ndarray], keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One entry per member of each key's group: the key's position and
    the member, positions ascending and members in group order."""
    starts, members = groups
    first = starts[keys]
    sizes = starts[keys + 1] - first
    position = np.repeat(np.arange(len(keys), dtype=np.int64), sizes)
    offset = np.arange(len(position), dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return position, members[first[position] + offset]


def build_transfer_matrix(
    target: Corpus,
    source: Corpus,
    dictionary: BilingualDictionary,
    numerator: str = "pairs",
) -> TransferMatrix:
    """Score every (target doc, source doc) pair sharing at least one
    translation pair and normalize per target document.

    The raw score is the number of dictionary pairs (w_source, w_target)
    with both word types present, divided by the total number of distinct
    word types across the two documents. `numerator="covered_types"`
    switches to counting word types that participate in at least one
    matched pair instead of counting pairs, for comparison.

    Only candidate pairs reached through the dictionary are scored, and
    the dense matrix is never materialized. The candidates come from array
    joins, one block of `_BLOCK_DOCS` target documents at a time: each
    distinct (target doc, target word) pair expands to the source words of
    the word's concepts, and each of those to the source documents that
    contain it; counting the (target doc, source doc) cells gives the
    pairs numerator, and counting distinct words per cell on each side
    gives covered types. Each row is normalized on its own slice in
    ascending source order, so the weights equal, bit for bit, those of
    scoring one document pair at a time.
    """
    if numerator not in NUMERATORS:
        raise ConfigError(f"unknown numerator mode {numerator!r}")
    langs = {dictionary.lang1, dictionary.lang2}
    if {target.language, source.language} != langs:
        raise ConfigError(
            f"dictionary covers {sorted(langs)}, not "
            f"({target.language!r}, {source.language!r})"
        )
    to_side2 = target.language == dictionary.lang2
    side1, side2 = (source, target) if to_side2 else (target, source)
    dictionary.check_vocabularies((side1.vocabulary.size, side2.vocabulary.size))
    concept_target, concept_source = dictionary.words.T[::-1] if to_side2 else dictionary.words.T

    t_docs, t_words, n_target_words = _distinct_pairs(target, concept_target)
    s_docs, s_words, n_source_words = _distinct_pairs(source, concept_source)
    n_target, n_source = len(target), len(source)
    t_types = np.bincount(t_docs, minlength=n_target)
    s_types = np.bincount(s_docs, minlength=n_source)
    translations = grouped(concept_target, concept_source, n_target_words)
    docs_with = grouped(s_words, s_docs, n_source_words)  # source docs ascending
    pairs_of_doc = np.searchsorted(t_docs, np.arange(n_target + 1))
    n_cols = max(n_source, 1)

    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for first in range(0, n_target, _BLOCK_DOCS):
        last = min(first + _BLOCK_DOCS, n_target)
        lo, hi = pairs_of_doc[first], pairs_of_doc[last]
        pair, w_s = _expand(translations, t_words[lo:hi])
        hit, j = _expand(docs_with, w_s)
        pair = lo + pair[hit]
        cell = (t_docs[pair] - first) * n_cols + j
        if numerator == "pairs":
            cells, score = np.unique(cell, return_counts=True)
        else:
            # distinct target words plus distinct source words per cell;
            # each cell has at least one of both, so the counts line up
            cells = _distinct(cell)
            score = sum(
                np.unique(_distinct(cell * n + words) // n, return_counts=True)[1]
                for words, n in ((t_words[pair], n_target_words), (w_s[hit], n_source_words))
            )
        docs = first + cells // n_cols
        j = cells % n_cols
        raw = score / (s_types[j] + t_types[docs])
        bounds = np.searchsorted(docs, np.arange(first, last + 1))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if a == b:
                rows.append((_EMPTY_IDX, _EMPTY_W))
            else:
                row = raw[a:b]
                rows.append((j[a:b], row / row.sum()))
    return TransferMatrix(target.language, source.language, rows)


def static_focus(matrix: TransferMatrix, cfg: FocusConfig) -> TransferMatrix:
    """Zero out entries not strictly above threshold * max and renormalize
    the survivors. A row whose entries all fall at or below the cutoff
    becomes empty (that document then receives no transfer)."""
    corpus_max = matrix.max_weight() if cfg.scope == "corpus_wise" else None
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, weights in matrix.rows:
        if not len(idx):
            rows.append((_EMPTY_IDX, _EMPTY_W))
            continue
        reference = corpus_max if corpus_max is not None else float(weights.max())
        keep = weights > cfg.threshold * reference
        if keep.all():
            rows.append((idx.copy(), weights.copy()))
        elif not keep.any():
            rows.append((_EMPTY_IDX, _EMPTY_W))
        else:
            kept = weights[keep]
            rows.append((idx[keep].copy(), kept / kept.sum()))
    return TransferMatrix(matrix.target_language, matrix.source_language, rows)


def anneal_matrix(matrix: TransferMatrix, temperature: float) -> TransferMatrix:
    """Sharpen every nonempty row: raise weights to the power 1/temperature
    and renormalize. Support and per-row argmax are preserved; temperature
    1.0 is the exact identity. Weights below ~1e-277 flush to zero under
    the exponentiation (double-precision limit)."""
    if not 0.0 < temperature <= 1.0:
        raise ConfigError(f"temperature must be in (0, 1], got {temperature}")
    if temperature == 1.0:
        return matrix.copy()
    power = 1.0 / temperature
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, weights in matrix.rows:
        if not len(idx):
            rows.append((_EMPTY_IDX, _EMPTY_W))
            continue
        sharpened = weights**power
        rows.append((idx.copy(), sharpened / sharpened.sum()))
    return TransferMatrix(matrix.target_language, matrix.source_language, rows)


def write_matrix_tsv(
    matrix: TransferMatrix, target: Corpus, source: Corpus, path: str | Path
) -> None:
    """Dump rows as `target_id<TAB>source_id<TAB>weight`, target docs in
    corpus order, entries by descending weight (ties by source id)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (idx, weights) in enumerate(matrix.rows):
            order = sorted(range(len(idx)), key=lambda p: (-weights[p], idx[p]))
            for p in order:
                fh.write(
                    f"{target.documents[i].doc_id}\t"
                    f"{source.documents[int(idx[p])].doc_id}\t"
                    f"{float(weights[p])!r}\n"
                )
