"""Transfer distributions: sparse per-document weights over the other
language's documents, derived from dictionary word overlap, with static
(threshold) focusing and deterministic annealing.

A `TransferMatrix` is one CSR table (`start`, `idx`, `weights`) that only
this module reads; callers take `rows`, (idx, weights) views of each row,
and `mix`, the prior pseudo-counts of every model kind (hard links are
weight-1 rows, LDA has empty tables). Build, focus, anneal and `mix` are
array passes; `_row_sums` (numpy's 1-D pairwise sum of each row) is the
one per-row loop, as its float order fixes the weights' bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .dictionary import BilingualDictionary, grouped
from .errors import ConfigError
from .settings import Key, Settings, setting

NUMERATOR = Key("pairs", "enum", choices=("pairs", "covered_types"))  # the `numerator` setting
FOCUS_SCOPES = ("doc_wise", "corpus_wise")
SCHEDULES = ("none", "fixed", "adaptive")
# the most source counts (1 MiB of doubles) one stacked `mix` product gathers
_GATHER_DOUBLES = 1 << 17


@dataclass
class FocusConfig(Settings):
    """Static focusing: zero entries at or below threshold * max, where the
    max is taken per row (doc_wise) or over the whole matrix (corpus_wise).
    The fields are the `focus.*` settings of the `train` config, declared
    here and checked on construction (`ConfigError` naming the key)."""

    SECTION = "focus."

    threshold: float = setting(0.0, "float", "[0, 1]")
    scope: str = setting("doc_wise", "enum", choices=FOCUS_SCOPES)


@dataclass
class AnnealConfig(Settings):
    """When the transfer matrices anneal (`schedule`, see `AnnealScheduler`)
    and how sharply. The fields are the `anneal.*` settings of the `train`
    config, declared here and checked on construction (`ConfigError`
    naming the key)."""

    SECTION = "anneal."

    temperature: float = setting(0.9, "float", "(0, 1]")
    interval: int = setting(10, "int", "[1, inf)")
    stop_iteration: int = setting(400, "int", "[0, inf)")
    schedule: str = setting("none", "enum", choices=SCHEDULES)
    lis_every: int = setting(1, "int", "[1, inf)")

    def __post_init__(self):
        super().__post_init__()
        if self.schedule == "adaptive" and self.lis_every > self.interval:
            # the first window, (0, interval], would then hold no LIS value
            raise ConfigError(
                f"anneal.lis_every ({self.lis_every}) must not exceed anneal.interval "
                f"({self.interval}) under the adaptive schedule"
            )


@dataclass(eq=False)
class TransferMatrix:
    """Row-stochastic weights over source documents, one row per target
    document; row d is entries `start[d]:start[d + 1]` of `idx` (ascending)
    and `weights`, and an empty row means no transfer. Never mutated."""

    target_language: str
    source_language: str
    start: np.ndarray
    idx: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.start) - 1

    @property
    def rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every row as an (idx, weights) pair of views into the table."""
        return [(self.idx[a:b], self.weights[a:b]) for a, b in _bounds(self.start)]

    def nonempty_rows(self) -> int:
        return int(np.count_nonzero(np.diff(self.start)))

    def mean_row_max(self) -> float:
        """Mean of per-row maxima over nonempty rows (0.0 if none)."""
        maxima = _row_maxima(self.weights, self.start)
        return float(np.mean(maxima)) if len(maxima) else 0.0

    @cached_property
    def _length_groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per row length: the rows (ascending), their source documents
        (rows x length) and weights (rows x 1 x length)."""
        lengths = np.diff(self.start)
        order = np.argsort(lengths, kind="stable")
        groups = []
        for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
            if len(rows) and lengths[rows[0]]:
                entries = self.start[rows, None] + np.arange(lengths[rows[0]])
                groups.append((rows, self.idx[entries], self.weights[entries][:, None, :]))
        return groups

    def mix(self, source_counts: np.ndarray) -> np.ndarray:
        """Pseudo-counts (D x K): row d mixes the topic counts of the source
        documents it names (zero if empty), by stacked `np.matmul` calls over
        rows of one length: each row's bits are its own gemv's."""
        k = source_counts.shape[1]
        pseudo = np.zeros((len(self), k), dtype=np.float64)
        for rows, idx, weights in self._length_groups:
            step = max(1, _GATHER_DOUBLES // max(idx.shape[1] * k, 1))
            for a in range(0, len(rows), step):
                source = source_counts[idx[a:a + step]].astype(np.float64)
                pseudo[rows[a:a + step]] = np.matmul(weights[a:a + step], source)[:, 0]
        return pseudo

    def check(self, target: Corpus, source: Corpus) -> None:
        """Refuse (`ConfigError`) a table that does not run from `source`'s
        documents to `target`'s, or has a negative or non-finite weight:
        the sampler indexes with it unchecked."""
        if (self.target_language, self.source_language) != (target.language, source.language):
            raise ConfigError(
                f"transfer matrix direction ({self.target_language!r} <- "
                f"{self.source_language!r}) does not match corpora"
            )
        start, idx = self.start, self.idx
        if len(start) != len(target) + 1:
            raise ConfigError("transfer matrix row count does not match target corpus")
        if start[0] or (np.diff(start) < 0).any() or not start[-1] == len(idx) == len(self.weights):
            raise ConfigError("transfer matrix start must run from 0 up to the entry count")
        if len(idx) and (idx.min() < 0 or idx.max() >= len(source)):
            raise ConfigError("transfer matrix refers to a missing source document")
        if not np.isfinite(self.weights).all() or (self.weights < 0).any():
            raise ConfigError("transfer matrix weights must be finite and non-negative")


def _bounds(start: np.ndarray):
    """(first, end) entry of every row, as Python ints."""
    return zip(start[:-1].tolist(), start[1:].tolist())


def _row_maxima(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The maximum of each nonempty row, in row order."""
    return np.maximum.reduceat(values, start[:-1][np.diff(start) > 0])


def _row_sums(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The sum of each row (0.0 when empty), each by numpy's 1-D pairwise
    summation of the row alone: that order fixes the weights' bits."""
    return np.array([values[a:b].sum() for a, b in _bounds(start)], dtype=np.float64)


def _normalised(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """`values` with every row divided by its own sum."""
    return values / np.repeat(_row_sums(values, start), np.diff(start))


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
    docs = np.repeat(np.arange(len(corpus), dtype=np.int64), np.diff(corpus.doc_start))
    n_words = 1 + int(max(corpus.tokens.max(initial=-1), concept_words.max(initial=-1)))
    keys = _distinct(docs * n_words + corpus.tokens)
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
    numerator = NUMERATOR.check("numerator", numerator)
    if target.language == source.language:
        raise ConfigError(f"both corpora have language {target.language!r}")
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

    # one empty block first, so that a corpus without documents concatenates
    docs, idx, raw = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
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
        docs.append(first + cells // n_cols)
        idx.append(cells % n_cols)
        raw.append(score / (s_types[idx[-1]] + t_types[docs[-1]]))
    # cells ascend within a block and blocks ascend, so rows come in order
    start = np.searchsorted(np.concatenate(docs), np.arange(n_target + 1))
    weights = _normalised(np.concatenate(raw), start)
    return TransferMatrix(target.language, source.language, start, np.concatenate(idx), weights)


def static_focus(matrix: TransferMatrix, cfg: FocusConfig) -> TransferMatrix:
    """Zero out entries not strictly above threshold * max and renormalize
    the survivors. A row whose entries all fall at or below the cutoff
    becomes empty (that document then receives no transfer); a row that
    keeps every entry keeps its weights as they were."""
    start, weights = matrix.start, matrix.weights
    lengths = np.diff(start)
    if cfg.scope == "corpus_wise":
        reference = weights.max(initial=0.0)
    else:
        reference = np.repeat(_row_maxima(weights, start), lengths[lengths > 0])
    keep = weights > cfg.threshold * reference
    kept_start = np.concatenate(([0], np.cumsum(keep)))[start]
    kept, kept_lengths = weights[keep], np.diff(kept_start)
    # a whole row divides by 1.0, which leaves every weight as it was
    sums = np.where(kept_lengths == lengths, 1.0, _row_sums(kept, kept_start))
    weights = kept / np.repeat(sums, kept_lengths)
    return replace(matrix, start=kept_start, idx=matrix.idx[keep], weights=weights)


def anneal_matrix(matrix: TransferMatrix, temperature: float) -> TransferMatrix:
    """Sharpen every nonempty row: raise weights to the power 1/temperature
    (checked as `anneal.temperature` is) and renormalize. Support and
    per-row argmax are preserved; temperature 1.0 is the exact identity and
    returns `matrix` itself. Weights below ~1e-277 flush to zero under the
    exponentiation (double-precision limit); a row whose every weight
    flushes takes the limit of annealing, equal weight on its largest
    entries and zero elsewhere."""
    temperature = AnnealConfig.checked("temperature", temperature)
    if temperature == 1.0:
        return matrix
    start, weights = matrix.start, matrix.weights
    lengths, powered = np.diff(start), weights ** (1.0 / temperature)
    sums = _row_sums(powered, start)
    flushed = np.repeat(sums == 0.0, lengths)
    if flushed.any():
        largest = weights == np.repeat(_row_maxima(weights, start), lengths[lengths > 0])
        powered = np.where(flushed, largest, powered)
        sums = _row_sums(powered, start)
    return replace(matrix, weights=powered / np.repeat(sums, lengths))


def write_matrix_tsv(
    matrix: TransferMatrix, target: Corpus, source: Corpus, path: str | Path
) -> None:
    """Dump rows as `target_id<TAB>source_id<TAB>weight`, target docs in
    corpus order, entries by descending weight (ties by source id)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc, (idx, weights) in zip(target.documents, matrix.rows):
            for p in np.lexsort((idx, -weights)).tolist():
                fh.write(f"{doc.doc_id}\t{source.documents[idx[p]].doc_id}\t{float(weights[p])!r}\n")
