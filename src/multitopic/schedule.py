"""Annealing schedules for training: a fixed-interval schedule and an
adaptive one driven by the language identification score (LIS).

LIS is the cross-validated accuracy of a logistic classifier told to
distinguish languages from per-concept topic distributions; high accuracy
means the two languages' topics disagree, so the adaptive schedule anneals
(sharpens) the transfer distributions whenever the windowed LIS average
rises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dictionary import BilingualDictionary, Concept
from .errors import ConfigError
from .logreg import cross_val_accuracy
from .transfer import AnnealConfig, TransferMatrix, anneal_in_place


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


def _word_topic_pair(state) -> tuple[np.ndarray, np.ndarray]:
    """Accept a CountState or a raw (side1, side2) pair of word-topic tables."""
    if hasattr(state, "sides"):
        return (state.sides[0].word_topic, state.sides[1].word_topic)
    return state


def concept_topic_distribution(state, concept: Concept, side: int, beta: float) -> np.ndarray:
    """Topic distribution of a concept's word on one side: counts smoothed
    by beta, normalized; uniform when there is no evidence at all."""
    word_topic = _word_topic_pair(state)[side]
    word = concept.word1 if side == 0 else concept.word2
    counts = word_topic[word].astype(np.float64) + beta
    total = counts.sum()
    if total <= 0.0:
        return np.full(word_topic.shape[1], 1.0 / word_topic.shape[1])
    return counts / total


def concept_features(
    state, dictionary: BilingualDictionary, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One labeled row per (concept, language): the concept's topic
    distribution on that side, labeled with the side index. Row 2i is
    concept i's first-language word, row 2i+1 its second-language word;
    each row is `concept_topic_distribution`, built for all concepts at
    once by one gather per side.

    Concepts are visited in canonical (word1, word2) order so the feature
    matrix does not depend on how the dictionary happens to be ordered."""
    pair = _word_topic_pair(state)
    concepts = sorted(dictionary.concepts, key=lambda c: (c.word1, c.word2))
    n_topics = pair[0].shape[1]
    rows = np.empty((len(concepts), 2, n_topics), dtype=np.float64)
    rows[:, 0] = pair[0][[c.word1 for c in concepts]]
    rows[:, 1] = pair[1][[c.word2 for c in concepts]]
    rows = rows.reshape(2 * len(concepts), n_topics)
    rows += beta
    totals = rows.sum(axis=1)
    evidence = totals > 0.0
    rows[evidence] /= totals[evidence, None]
    rows[~evidence] = 1.0 / n_topics
    return rows, np.tile(np.array([0, 1], dtype=np.int64), len(concepts))


def compute_lis(
    state,
    dictionary: BilingualDictionary,
    beta: float,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Language identification score: mean cross-validated accuracy of a
    binary logistic classifier on the concept features. Lower is better
    (0.5 means the languages' topics are indistinguishable).

    Invariant to concept ordering: rows are shuffled deterministically
    under `seed` before the stratified folds are cut."""
    if len(dictionary.concepts) < 2 * folds:
        raise ConfigError(
            f"need at least {2 * folds} concepts for {folds}-fold LIS, "
            f"got {len(dictionary.concepts)}"
        )
    x, y = concept_features(state, dictionary, beta)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    return cross_val_accuracy(x[order], y[order], folds, seed)


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
        self.matrices = matrices
        self.dictionary = dictionary
        self.hp = hp
        self.seed = seed
        self.events: list[dict] = []
        self.history = LisHistory(interval=cfg.interval if cfg else 1)
        self.active = bool(cfg and cfg.schedule != "none" and matrices)
        if self.active and cfg.schedule == "adaptive" and dictionary is None:
            raise ConfigError("adaptive schedule requires a dictionary")

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
        rows = 0
        maxima = []
        for matrix in self.matrices:
            anneal_in_place(matrix, self.cfg.temperature)
            rows += matrix.nonempty_rows()
            maxima.append(matrix.mean_row_max())
        return rows, float(np.mean(maxima)) if maxima else 0.0

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
            lis = compute_lis(
                get_word_topics(), self.dictionary, self.hp.beta, seed=self.seed
            )
            self.history.add(iteration, lis)
        if (
            iteration % cfg.interval == 0
            and iteration >= 2 * cfg.interval
            and iteration <= cfg.stop_iteration
        ):
            if should_anneal(self.history, iteration):
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
