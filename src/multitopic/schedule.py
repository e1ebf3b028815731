"""Annealing schedules for training: a fixed-interval schedule and an
adaptive one driven by the language identification score (LIS).

LIS is the cross-validated accuracy of a logistic classifier told to
distinguish languages from per-concept topic distributions; high accuracy
means the two languages' topics disagree, so the adaptive schedule anneals
(sharpens) the transfer distributions whenever the windowed LIS average
rises.

The scheduler reads LIS only at its interval boundaries, so it keeps each
LIS iteration's concept features and scores every snapshot taken since
the last decision in one stacked fit (`lis_scores`), each score
bit-identical to scoring its snapshot alone.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import write_jsonl
from .dictionary import BilingualDictionary
from .errors import ConfigError, DataError
from .logreg import cross_val_accuracies
from .transfer import AnnealConfig, TransferMatrix, anneal_matrix

logger = logging.getLogger(__name__)

LIS_FOLDS = 5
# Pending LIS snapshots are scored once their stacked training rows would
# pass this many doubles (1 MiB): stacking helps small fits, which are
# dominated by per-call overhead, but not large ones, which then fall out
# of cache; a snapshot that alone passes the cap is scored at once.
LIS_STACK_DOUBLES = 2**17


@dataclass
class LisHistory:
    """Per-iteration LIS values plus the window length used for triggers."""

    interval: int
    iterations: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, iteration: int, value: float) -> None:
        self.iterations.append(iteration)
        self.values.append(value)

    def window_mean(self, start: int, end: int) -> float:
        """Mean of values with iteration in (start, end]."""
        window = [
            v for it, v in zip(self.iterations, self.values) if start < it <= end
        ]
        if not window:
            raise ConfigError(f"no LIS values recorded in ({start}, {end}]")
        return float(np.mean(window))


def concept_words(dictionary: BilingualDictionary) -> tuple[np.ndarray, np.ndarray]:
    """Each concept's first- and second-language word id, concepts in
    canonical (word1, word2) order, so the LIS features do not depend on
    how the dictionary happens to be ordered."""
    words = dictionary.words[np.lexsort((dictionary.words[:, 1], dictionary.words[:, 0]))]
    return words[:, 0], words[:, 1]


def concept_features(
    word_topics, dictionary: BilingualDictionary, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One labeled row per (concept, language): the concept's topic
    distribution on that side, labeled with the side index. Row 2i is
    concept i's first-language word, row 2i+1 its second-language word;
    each row is that word's topic counts smoothed by beta and normalized
    (uniform when there is no evidence at all), built for all concepts at
    once by one gather per side."""
    rows = _concept_rows(word_topics, concept_words(dictionary), beta)
    return rows, _side_labels(len(dictionary.concepts))


def _side_labels(n_concepts: int) -> np.ndarray:
    return np.tile(np.array([0, 1], dtype=np.int64), n_concepts)


def _concept_rows(word_topics, words: tuple[np.ndarray, np.ndarray], beta: float) -> np.ndarray:
    """The rows of `concept_features` for the concepts whose words
    `concept_words` gave."""
    n_topics = word_topics[0].shape[1]
    rows = np.empty((len(words[0]), 2, n_topics), dtype=np.float64)
    rows[:, 0] = word_topics[0][words[0]]
    rows[:, 1] = word_topics[1][words[1]]
    rows = rows.reshape(2 * len(words[0]), n_topics)
    rows += beta
    totals = rows.sum(axis=1)
    evidence = totals > 0.0
    rows[evidence] /= totals[evidence, None]
    rows[~evidence] = 1.0 / n_topics
    return rows


def check_lis_concepts(n_concepts: int, folds: int = LIS_FOLDS) -> None:
    """Refuse a dictionary too small for `folds`-fold LIS: every fold must
    hold out a row of each language."""
    if n_concepts < 2 * folds:
        raise ConfigError(
            f"need at least {2 * folds} concepts for {folds}-fold LIS, got {n_concepts}"
        )


def lis_scores(
    features, y: np.ndarray, folds: int = LIS_FOLDS, seed: int = 0
) -> list[float]:
    """LIS of each snapshot in `features`, a list of `concept_features`
    matrices of one dictionary with labels `y`: the rows are shuffled by
    one seeded permutation, and all snapshots are cross-validated over the
    one split it gives, by `cross_val_accuracies`. Each score is
    bit-identical to scoring its snapshot alone."""
    order = np.random.default_rng(seed).permutation(len(y))
    return cross_val_accuracies([x[order] for x in features], y[order], folds, seed)


def compute_lis(
    word_topics,
    dictionary: BilingualDictionary,
    beta: float,
    folds: int = LIS_FOLDS,
    seed: int = 0,
) -> float:
    """Language identification score: mean cross-validated accuracy of a
    binary logistic classifier on the concept features. Lower is better
    (0.5 means the languages' topics are indistinguishable).

    Invariant to concept ordering: rows are shuffled deterministically
    under `seed` before the stratified folds are cut."""
    check_lis_concepts(len(dictionary.concepts), folds)
    dictionary.check_vocabularies(tuple(len(table) for table in word_topics))
    k1, k2 = (table.shape[1] for table in word_topics)
    if k1 != k2:
        raise DataError(f"word-topic tables have {k1} and {k2} topics")
    x, y = concept_features(word_topics, dictionary, beta)
    return lis_scores([x], y, folds, seed)[0]


def _anneal_rule(history: LisHistory, t: int) -> tuple[float, float, bool]:
    """The LIS means over (t-I, t] and (t-2I, t-I], and whether to anneal:
    whether the first strictly exceeds the second."""
    interval = history.interval
    if t < 2 * interval:
        raise ConfigError(f"need at least {2 * interval} iterations of history, got {t}")
    recent = history.window_mean(t - interval, t)
    previous = history.window_mean(t - 2 * interval, t - interval)
    return recent, previous, recent > previous


class AnnealScheduler:
    """Drives annealing from inside the training loop.

    Fixed mode anneals every `interval` iterations up to `stop_iteration`
    (so exactly stop_iteration // interval events). Adaptive mode records
    LIS every `lis_every` iterations and, at each interval boundary up to
    the same hard stop, anneals when the windowed LIS average has risen.
    It scores the snapshots it has kept before each decision, when the
    next one would pass `LIS_STACK_DOUBLES`, and in `finish`, which must
    run before `lis_values` is read.
    """

    def __init__(
        self,
        cfg: AnnealConfig | None,
        matrices: list[TransferMatrix],
        dictionary: BilingualDictionary | None = None,
        hp=None,
        seed: int = 0,
    ):
        self.cfg = cfg
        self.matrices = list(matrices)
        self.dictionary = dictionary
        self.hp = hp
        self.seed = seed
        self.events: list[dict] = []
        self.history = LisHistory(interval=cfg.interval if cfg else 1)
        self.active = bool(cfg and cfg.schedule != "none" and matrices)
        # (iteration, concept features) of each LIS iteration not yet scored
        self._pending: list[tuple[int, np.ndarray]] = []
        if self.active and cfg.schedule == "adaptive":
            if dictionary is None:
                raise ConfigError("adaptive schedule requires a dictionary")
            check_lis_concepts(len(dictionary.concepts))
            self._words = concept_words(dictionary)
            self._labels = _side_labels(len(dictionary.concepts))

    @property
    def lis_values(self) -> list[float]:
        return self.history.values

    def describe(self) -> dict | None:
        """The anneal settings for provenance; None when nothing anneals."""
        if self.cfg is None or self.cfg.schedule == "none":
            return None
        return {key: value for key, value in asdict(self.cfg).items() if key != "lis_every"}

    def _anneal_all(self, iteration: int, mode: str, lis: float | None) -> None:
        """Replace each matrix by its annealed copy (the matrices passed to
        the constructor are never modified) and record the event."""
        self.matrices = [anneal_matrix(m, self.cfg.temperature) for m in self.matrices]
        maxima = [m.mean_row_max() for m in self.matrices]
        self.events.append({
            "iteration": iteration,
            "mode": mode,
            "lis": lis,
            "rows_annealed": sum(m.nonempty_rows() for m in self.matrices),
            "max_weight_mean": float(np.mean(maxima)) if maxima else 0.0,
        })

    def _score_pending(self) -> None:
        """Score every kept snapshot in one stacked fit and record the
        values in iteration order."""
        if not self._pending:
            return
        iterations, features = zip(*self._pending)
        self._pending = []
        scores = lis_scores(features, self._labels, seed=self.seed)
        for iteration, lis in zip(iterations, scores):
            self.history.add(iteration, lis)
        logger.info(
            "LIS of iterations %d-%d: %d snapshot(s) scored in one fit",
            iterations[0], iterations[-1], len(scores),
        )

    def finish(self) -> None:
        """Score the snapshots still kept; call once training is done."""
        self._score_pending()

    def after_iteration(self, iteration: int, get_word_topics) -> None:
        """Called at the end of every full sweep with a callback producing
        the two sides' current word-topic tables."""
        if not self.active:
            return
        cfg = self.cfg
        if cfg.schedule == "fixed":
            if iteration % cfg.interval == 0 and iteration <= cfg.stop_iteration:
                self._anneal_all(iteration, "fixed", None)
            return
        # adaptive
        if iteration % cfg.lis_every == 0:
            x = _concept_rows(get_word_topics(), self._words, self.hp.beta)
            self._pending.append((iteration, x))
            # each stacked snapshot adds its rows to folds - 1 training sets
            if (len(self._pending) + 1) * (LIS_FOLDS - 1) * x.size > LIS_STACK_DOUBLES:
                self._score_pending()
        if iteration % cfg.interval == 0 and 2 * cfg.interval <= iteration <= cfg.stop_iteration:
            self._score_pending()
            recent, previous, anneal = _anneal_rule(self.history, iteration)
            logger.info(
                "iteration %d: LIS window mean %.6f after %.6f: %s",
                iteration, recent, previous, "anneal" if anneal else "no anneal",
            )
            if anneal:
                self._anneal_all(iteration, "adaptive", self.history.values[-1])


def write_event_log(events: list[dict], path) -> None:
    """JSON-lines event log, one annealing event per line."""
    write_jsonl(events, path)
