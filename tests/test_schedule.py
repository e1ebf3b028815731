"""LIS scorer, logistic regression, annealing triggers and schedules."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multitopic.dictionary import BilingualDictionary, Concept
from multitopic.errors import ConfigError, DataError
from multitopic.logreg import (
    LogisticRegression,
    cross_val_accuracies,
    loss_and_gradient,
    stratified_folds,
)
from multitopic.schedule import (
    AnnealScheduler,
    LisHistory,
    compute_lis,
    concept_features,
    should_anneal,
)
from multitopic.transfer import AnnealConfig

from oracles import concept_topic_distribution, matrix_from_rows

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import FOCUS, WORKLOADS, make_inputs  # noqa: E402


class TestConceptTopicDistribution:
    def test_counts_nine_one_with_zero_beta(self):
        tables = (np.array([[9, 1]]), np.array([[0, 0]]))
        got = concept_topic_distribution(tables, Concept(0, 0, 0), 0, beta=0.0)
        np.testing.assert_allclose(got, [0.9, 0.1], atol=0)

    def test_all_zero_counts_uniform(self):
        tables = (np.array([[0, 0]]), np.array([[0, 0]]))
        got = concept_topic_distribution(tables, Concept(0, 0, 0), 0, beta=0.0)
        np.testing.assert_allclose(got, [0.5, 0.5], atol=0)

    def test_smoothed_zero_counts_uniform(self):
        tables = (np.array([[0, 0]]), np.array([[0, 0]]))
        got = concept_topic_distribution(tables, Concept(0, 0, 0), 0, beta=0.01)
        np.testing.assert_allclose(got, [0.5, 0.5], atol=0)


class TestLogisticRegression:
    def test_separable_data_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x0 = rng.normal(-2.0, 0.5, size=(40, 3))
            x1 = rng.normal(2.0, 0.5, size=(40, 3))
            x = np.vstack([x0, x1])
            y = np.array([0] * 40 + [1] * 40)
            clf = LogisticRegression().fit(x, y)
            assert (clf.predict(x) == y).mean() == 1.0

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(15, 4))
            y = rng.integers(0, 2, size=15).astype(np.float64)
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, grad_w, grad_b = loss_and_gradient(w, b, x, y)
            h = 1e-6
            for j in range(4):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                numeric = (
                    loss_and_gradient(wp, b, x, y)[0]
                    - loss_and_gradient(wm, b, x, y)[0]
                ) / (2 * h)
                assert abs(numeric - grad_w[j]) <= 1e-5 * max(1.0, abs(grad_w[j]))
            numeric_b = (
                loss_and_gradient(w, b + h, x, y)[0]
                - loss_and_gradient(w, b - h, x, y)[0]
            ) / (2 * h)
            assert abs(numeric_b - grad_b) <= 1e-5 * max(1.0, abs(grad_b))

    def test_stratified_folds_preserve_balance(self):
        rng = np.random.default_rng(2)
        y = np.array([0] * 50 + [1] * 50)
        folds = stratified_folds(y, 5, rng)
        assert sorted(np.concatenate(folds).tolist()) == list(range(100))
        for fold in folds:
            assert (y[fold] == 1).sum() == 10

    def test_cross_val_accuracy_on_separable_data(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(-1, 0.2, (30, 2)), rng.normal(1, 0.2, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        assert cross_val_accuracies(x[None], y, 5, seed=0)[0] >= 0.95


def tables_for(counts1, counts2):
    return (np.array(counts1, dtype=np.int64), np.array(counts2, dtype=np.int64))


def identity_dictionary(n):
    return BilingualDictionary("l1", "l2", [(i, i) for i in range(n)])


class TestComputeLis:
    def test_identical_features_score_near_half(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 30, size=(120, 4))
        lis = compute_lis(tables_for(counts, counts), identity_dictionary(120), beta=0.01)
        assert abs(lis - 0.5) <= 0.1

    def test_separated_features_score_near_one(self):
        n = 120
        counts1 = np.zeros((n, 4), dtype=np.int64)
        counts2 = np.zeros((n, 4), dtype=np.int64)
        counts1[:, 0] = 40
        counts2[:, 1] = 40
        lis = compute_lis(tables_for(counts1, counts2), identity_dictionary(n), beta=0.01)
        assert lis >= 0.95

    def test_partial_separation_lands_between_and_is_reproducible(self):
        rng = np.random.default_rng(5)
        n = 120
        counts1 = rng.integers(0, 30, size=(n, 4))
        counts2 = counts1.copy()
        counts2[: n // 2] = 0
        counts2[: n // 2, 1] = 40
        counts1[: n // 2] = 0
        counts1[: n // 2, 0] = 40
        tables = tables_for(counts1, counts2)
        a = compute_lis(tables, identity_dictionary(n), beta=0.01)
        b = compute_lis(tables, identity_dictionary(n), beta=0.01)
        assert a == b
        assert 0.55 < a < 0.95

    def test_invariant_to_concept_ordering(self):
        rng = np.random.default_rng(6)
        counts1 = rng.integers(0, 20, size=(40, 3))
        counts2 = rng.integers(0, 20, size=(40, 3))
        pairs = [(i, i) for i in range(40)]
        base = BilingualDictionary("l1", "l2", pairs)
        shuffled = BilingualDictionary("l1", "l2", pairs[::-1])
        tables = tables_for(counts1, counts2)
        assert compute_lis(tables, base, beta=0.01) == compute_lis(tables, shuffled, beta=0.01)

    def test_concept_word_outside_the_tables_is_a_data_error(self):
        # 12 words per side; a last-word concept would read row 11
        tables = tables_for(np.ones((12, 2)), np.ones((12, 2)))
        dictionary = BilingualDictionary("l1", "l2", [(i, i) for i in range(11)] + [(12, 0)])
        with pytest.raises(DataError, match="^concept 11 names word 12, outside the 12-word"):
            compute_lis(tables, dictionary, beta=0.01)

    def test_leaves_numpy_ma_unimported(self, tmp_path):
        # a plain `np.unique` imports numpy.ma on first use, about 13 ms in
        # every child process: none of the commands the benchmark runs
        # (`train` of every kind, adaptive LIS included, and `eval`) may
        # pay it. The inputs are a small copy of the benchmark's.
        workload = dataclasses.replace(
            WORKLOADS["kinds_k50"], k=4, vocab=120, train_docs=30, heldout_docs=10, doc_len=20,
            train_iterations=2, infer_iterations=2,
            models=(*WORKLOADS["kinds_k50"].models, {
                "model": "softlink", "focus": FOCUS,
                "anneal": {"schedule": "adaptive", "interval": 1, "lis_every": 1},
            }),
        )
        inputs = make_inputs(workload, 0, tmp_path)
        commands = [["train", "--config", str(config)] for config in inputs.configs]
        commands.append([
            "eval", "--model", str(inputs.outputs[-1] / "model.json"),
            "--which", "cnpmi,classify,lis", "--reference", str(inputs.reference),
            "--test-corpus1", str(inputs.test1), "--test-corpus2", str(inputs.test2),
            "--dictionary", str(inputs.dictionary), "--output", str(tmp_path / "report.json"),
        ])
        probe = (
            "import sys\n"
            "from multitopic import cli\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # a numpy floating-point warning fails the child, as it fails an in-process test
        subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe],
            env=env, check=True, timeout=300,
        )

    def test_too_few_concepts_rejected(self):
        with pytest.raises(ConfigError, match="concepts"):
            compute_lis(tables_for(np.zeros((3, 2)), np.zeros((3, 2))),
                        identity_dictionary(3), beta=0.01)


class TestShouldAnneal:
    def history(self, values, interval):
        h = LisHistory(interval=interval)
        for i, v in enumerate(values, start=1):
            h.add(i, v)
        return h

    def test_rising_windows_trigger(self):
        h = self.history([0.70] * 5 + [0.72] * 5, interval=5)
        assert should_anneal(h, 10) is True

    def test_equal_windows_do_not_trigger(self):
        h = self.history([0.7] * 10, interval=5)
        assert should_anneal(h, 10) is False

    def test_decreasing_windows_do_not_trigger(self):
        h = self.history([0.8] * 5 + [0.6] * 5, interval=5)
        assert should_anneal(h, 10) is False

    def test_insufficient_history_rejected(self):
        h = self.history([0.5] * 6, interval=5)
        with pytest.raises(ConfigError):
            should_anneal(h, 6)


def dummy_matrix(n_rows=4):
    rows = [
        (np.array([0, 1], dtype=np.int64), np.array([0.7, 0.3])) for _ in range(n_rows)
    ]
    return matrix_from_rows("l2", "l1", rows)


class TestScheduler:
    def run_schedule(self, cfg, iterations, lis_sequence=None, monkeypatch=None):
        matrix = dummy_matrix()
        dictionary = identity_dictionary(20) if cfg.schedule == "adaptive" else None
        from multitopic.models import Hyperparams

        hp = Hyperparams(k=2, train_iterations=1)
        if lis_sequence is not None:
            values = iter(lis_sequence)
            monkeypatch.setattr(
                "multitopic.schedule.lis_scores",
                lambda features, *a, **kw: [next(values) for _ in features],
            )
        scheduler = AnnealScheduler(cfg, [matrix], dictionary=dictionary, hp=hp)
        for it in range(1, iterations + 1):
            scheduler.after_iteration(it, lambda: (np.zeros((20, 2)), np.zeros((20, 2))))
        scheduler.finish()
        if lis_sequence is not None:
            assert next(values, None) is None, "the scheduler did not score every snapshot"
        return scheduler

    def test_fixed_schedule_event_accounting(self):
        cfg = AnnealConfig(schedule="fixed", interval=10, stop_iteration=400)
        scheduler = self.run_schedule(cfg, 1000)
        assert len(scheduler.events) == 40
        assert [e["iteration"] for e in scheduler.events] == list(range(10, 401, 10))

    def test_fixed_schedule_floor_accounting(self):
        cfg = AnnealConfig(schedule="fixed", interval=7, stop_iteration=100)
        scheduler = self.run_schedule(cfg, 300)
        assert len(scheduler.events) == 100 // 7

    def test_none_schedule_produces_no_events(self):
        cfg = AnnealConfig(schedule="none")
        scheduler = self.run_schedule(cfg, 100)
        assert scheduler.events == []

    def test_adaptive_with_decreasing_lis_never_fires(self, monkeypatch):
        cfg = AnnealConfig(schedule="adaptive", interval=5, stop_iteration=100)
        lis = [0.9 - 0.005 * i for i in range(100)]
        scheduler = self.run_schedule(cfg, 100, lis_sequence=lis, monkeypatch=monkeypatch)
        assert scheduler.events == []
        assert len(scheduler.lis_values) == 100

    def test_adaptive_with_rising_lis_fires_at_interval_boundaries(self, monkeypatch):
        cfg = AnnealConfig(schedule="adaptive", interval=5, stop_iteration=30)
        lis = [0.5 + 0.01 * i for i in range(100)]
        scheduler = self.run_schedule(cfg, 100, lis_sequence=lis, monkeypatch=monkeypatch)
        assert [e["iteration"] for e in scheduler.events] == [10, 15, 20, 25, 30]
        for event in scheduler.events:
            assert event["mode"] == "adaptive"
            assert event["rows_annealed"] == 4

    def test_annealing_actually_sharpens_matrix_rows(self):
        cfg = AnnealConfig(schedule="fixed", interval=1, stop_iteration=50)
        matrix = dummy_matrix()
        original = [(idx.copy(), w.copy()) for idx, w in matrix.rows]
        scheduler = AnnealScheduler(cfg, [matrix])
        before = matrix.rows[0][1].max()
        for it in range(1, 51):
            scheduler.after_iteration(it, lambda: None)
        annealed = scheduler.matrices[0]
        assert annealed.rows[0][1].max() > before
        assert scheduler.events[-1]["max_weight_mean"] == pytest.approx(
            annealed.mean_row_max()
        )
        # the scheduler owns the annealed copies; the caller's matrix is untouched
        for (idx, w), (idx0, w0) in zip(matrix.rows, original):
            assert np.array_equal(idx, idx0) and np.array_equal(w, w0)
