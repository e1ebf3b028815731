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

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .dictionary import BilingualDictionary, Concept
from .errors import ConfigError
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


def concept_topic_distribution(
    word_topics, concept: Concept, side: int, beta: float
) -> np.ndarray:
    """Topic distribution of a concept's word on one side of the (side1,
    side2) pair of word-topic tables: counts smoothed by beta, normalized;
    uniform when there is no evidence at all."""
    word_topic = word_topics[side]
    word = concept.word1 if side == 0 else concept.word2
    counts = word_topic[word].astype(np.float64) + beta
    total = counts.sum()
    if total <= 0.0:
        return np.full(word_topic.shape[1], 1.0 / word_topic.shape[1])
    return counts / total


def concept_words(dictionary: BilingualDictionary) -> tuple[np.ndarray, np.ndarray]:
    """Each concept's first- and second-language word id, concepts in
    canonical (word1, word2) order, so the LIS features do not depend on
    how the dictionary happens to be ordered."""
    concepts = sorted(dictionary.concepts, key=lambda c: (c.word1, c.word2))
    return (
        np.array([c.word1 for c in concepts], dtype=np.int64),
        np.array([c.word2 for c in concepts], dtype=np.int64),
    )


def concept_features(
    word_topics, dictionary: BilingualDictionary, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One labeled row per (concept, language): the concept's topic
    distribution on that side, labeled with the side index. Row 2i is
    concept i's first-language word, row 2i+1 its second-language word;
    each row is `concept_topic_distribution`, built for all concepts at
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
    x, y = concept_features(word_topics, dictionary, beta)
    return lis_scores([x], y, folds, seed)[0]


def should_anneal(history: LisHistory, t: int) -> bool:
    """True iff the LIS mean over (t-I, t] strictly exceeds the mean over
    (t-2I, t-I]."""
    interval = history.interval
    if t < 2 * interval:
        raise ConfigError(f"need at least {2 * interval} iterations of history, got {t}")
    recent = history.window_mean(t - interval, t)
    previous = history.window_mean(t - 2 * interval, t - interval)
    return recent > previous


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
        if self.cfg is None:
            return None
        return {
            "schedule": self.cfg.schedule,
            "temperature": self.cfg.temperature,
            "interval": self.cfg.interval,
            "stop_iteration": self.cfg.stop_iteration,
        }

    def _anneal_all(self) -> tuple[int, float]:
        """Replace each matrix by its annealed copy; the matrices passed to
        the constructor are never modified."""
        self.matrices = [anneal_matrix(m, self.cfg.temperature) for m in self.matrices]
        rows = sum(m.nonempty_rows() for m in self.matrices)
        maxima = [m.mean_row_max() for m in self.matrices]
        return rows, float(np.mean(maxima)) if maxima else 0.0

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
                rows, mean_max = self._anneal_all()
                self.events.append(
                    {
                        "iteration": iteration,
                        "mode": "fixed",
                        "lis": None,
                        "rows_annealed": rows,
                        "max_weight_mean": mean_max,
                    }
                )
            return
        # adaptive
        if iteration % cfg.lis_every == 0:
            x = _concept_rows(get_word_topics(), self._words, self.hp.beta)
            self._pending.append((iteration, x))
            # each stacked snapshot adds its rows to folds - 1 training sets
            if (len(self._pending) + 1) * (LIS_FOLDS - 1) * x.size > LIS_STACK_DOUBLES:
                self._score_pending()
        if (
            iteration % cfg.interval == 0
            and iteration >= 2 * cfg.interval
            and iteration <= cfg.stop_iteration
        ):
            self._score_pending()
            start = iteration - cfg.interval
            recent = self.history.window_mean(start, iteration)
            previous = self.history.window_mean(start - cfg.interval, start)
            anneal = should_anneal(self.history, iteration)
            logger.info(
                "iteration %d: LIS window mean %.6f after %.6f: %s",
                iteration, recent, previous, "anneal" if anneal else "no anneal",
            )
            if anneal:
                rows, mean_max = self._anneal_all()
                self.events.append(
                    {
                        "iteration": iteration,
                        "mode": "adaptive",
                        "lis": self.history.values[-1],
                        "rows_annealed": rows,
                        "max_weight_mean": mean_max,
                    }
                )


def write_event_log(events: list[dict], path) -> None:
    """JSON-lines event log, one annealing event per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
