"""Transfer distributions: sparse per-document weights over the other
language's documents, derived from dictionary word overlap, with static
(threshold) focusing and deterministic annealing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .dictionary import BilingualDictionary
from .errors import ConfigError


@dataclass
class FocusConfig:
    """Static focusing: zero entries at or below threshold * max, where the
    max is taken per row (doc_wise) or over the whole matrix (corpus_wise)."""

    threshold: float = 0.0
    scope: str = "doc_wise"  # or "corpus_wise"

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"focal threshold must be in [0, 1], got {self.threshold}")
        if self.scope not in ("doc_wise", "corpus_wise"):
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
        if self.schedule not in ("none", "fixed", "adaptive"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.lis_every < 1:
            raise ConfigError(f"lis_every must be >= 1, got {self.lis_every}")


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

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.rows[i]

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


def _make_row(pairs: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    if not pairs:
        return (_EMPTY_IDX, _EMPTY_W)
    pairs.sort()
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    raw = np.array([p[1] for p in pairs], dtype=np.float64)
    return (idx, raw / raw.sum())


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

    Only candidate pairs reached through the concept inverted index are
    scored; the dense matrix is never materialized.
    """
    if numerator not in ("pairs", "covered_types"):
        raise ConfigError(f"unknown numerator mode {numerator!r}")
    langs = {dictionary.lang1, dictionary.lang2}
    if {target.language, source.language} != langs:
        raise ConfigError(
            f"dictionary covers {sorted(langs)}, not "
            f"({target.language!r}, {source.language!r})"
        )
    target_is_side2 = target.language == dictionary.lang2
    by_target = dictionary.by_word2 if target_is_side2 else dictionary.by_word1
    concepts = dictionary.concepts

    def source_word(cid: int) -> int:
        c = concepts[cid]
        return c.word1 if target_is_side2 else c.word2

    def target_word(cid: int) -> int:
        c = concepts[cid]
        return c.word2 if target_is_side2 else c.word1

    source_types = source.doc_types()
    target_types = target.doc_types()
    # inverted index: source word id -> source documents containing it
    docs_with: dict[int, list[int]] = {}
    for j, types in enumerate(source_types):
        for w in types:
            docs_with.setdefault(w, []).append(j)

    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for t_types in target_types:
        pair_counts: dict[int, int] = {}
        for w_t in t_types:
            for cid in by_target.get(w_t, ()):
                for j in docs_with.get(source_word(cid), ()):
                    pair_counts[j] = pair_counts.get(j, 0) + 1
        if not pair_counts:
            rows.append((_EMPTY_IDX, _EMPTY_W))
            continue
        scored: list[tuple[int, float]] = []
        for j, n_pairs in pair_counts.items():
            union = len(source_types[j]) + len(t_types)
            if numerator == "pairs":
                score = n_pairs / union
            else:
                covered_t = set()
                covered_s = set()
                s_types = source_types[j]
                for w_t in t_types:
                    for cid in by_target.get(w_t, ()):
                        if source_word(cid) in s_types:
                            covered_t.add(w_t)
                            covered_s.add(source_word(cid))
                score = (len(covered_t) + len(covered_s)) / union
            scored.append((j, score))
        rows.append(_make_row(scored))
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
