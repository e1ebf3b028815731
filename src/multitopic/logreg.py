"""Binary logistic regression and stratified k-fold utilities.

Deliberately small and self-contained: the same learner backs both the
language-identification scorer that drives adaptive annealing and the
one-vs-rest crosslingual document classifier. Fixed hyperparameters
(L2 penalty 1.0, step 0.5, 500 epochs) keep runs reproducible.

`fit_binary_stack` fits several binary problems in lockstep, either on
one shared feature matrix (the one-vs-rest labels) or on one matrix per
problem (the cross-validation folds): each epoch is one stacked
matrix-vector product per direction for all of them. `np.matmul` on a
stack of column vectors makes one BLAS gemv call per stacked problem, the
same call a 2-D @ 1-D product makes, so every problem's weights are
bit-identical to fitting it alone. (`x @ W.T` would be one gemm call,
whose sums are not.) `LogisticRegression.fit` is the one-problem case.

`cross_val_fits` fits every fold of a stratified split that way: folds
with the same number of training rows share one stack, so a split needs
one call per distinct training-set size (at most a few, because
`stratified_folds` deals each class round-robin). `cross_val_accuracies`
does the same for B feature matrices that share their labels, and so
their split: all B x folds problems of one training-set size go into one
stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only ever sees -|x|."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    # 1/(1+e) for x >= 0, e/(1+e) below: one division either way
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    x: np.ndarray,
    y: np.ndarray,
    l2: float = 1.0,
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy plus l2/(2m)*||w||^2 and its exact gradient.

    Uses log1p/exp identities so the loss stays finite for any margin.
    Training does not need the loss; this is the objective that
    `fit_binary_stack` descends, spelled out for checking it.
    """
    m = x.shape[0]
    z = x @ weights + bias
    # log(1 + exp(z)) - y*z, computed stably
    ce = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z))) - y * z
    loss = float(ce.mean() + l2 / (2.0 * m) * weights @ weights)
    residual = sigmoid(z) - y
    grad_w = x.T @ residual / m + (l2 / m) * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def fit_binary_stack(
    x: np.ndarray,
    ys: np.ndarray,
    l2: float = 1.0,
    learning_rate: float = 0.5,
    epochs: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent on L binary problems at once.

    `x` is one m x n feature matrix shared by every problem, or an
    L x m x n stack holding each problem's own rows; `ys` is L x m, one
    row of 0/1 targets per problem. Returns the L x n weights and the L
    biases, each row bit-identical to a separate fit.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    m, n = x.shape[-2:]
    weights = np.zeros((ys.shape[0], n), dtype=np.float64)
    bias = np.zeros(ys.shape[0], dtype=np.float64)
    # a shared x broadcasts over the stack: still one gemv per problem
    xt = np.swapaxes(x, -1, -2)
    for _ in range(epochs):
        z = np.matmul(x, weights[:, :, None])[:, :, 0]
        z += bias[:, None]
        residual = sigmoid(z)
        residual -= ys
        grad_w = np.matmul(xt, residual[:, :, None])[:, :, 0]
        grad_w /= m
        grad_w += (l2 / m) * weights
        weights -= learning_rate * grad_w
        bias -= learning_rate * residual.mean(axis=1)
    return weights, bias


class LogisticRegression:
    """Full-batch gradient descent with a fixed step size."""

    def __init__(self, l2: float = 1.0, learning_rate: float = 0.5, epochs: int = 500):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.weights: np.ndarray | None = None
        self.bias = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        weights, bias = fit_binary_stack(
            x, np.asarray(y)[None], self.l2, self.learning_rate, self.epochs
        )
        self.weights = weights[0]
        self.bias = float(bias[0])
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ConfigError("classifier has not been fitted")
        return sigmoid(np.asarray(x, dtype=np.float64) @ self.weights + self.bias)

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)


def stratified_folds(
    y: np.ndarray, n_folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Partition indices into folds with per-class round-robin assignment
    after a shuffle, so class balance is preserved as evenly as possible."""
    y = np.asarray(y)
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    # with counts, `np.unique` skips the `numpy.ma` import of its plain form
    for cls in np.unique(y, return_counts=True)[0]:
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        for i, idx in enumerate(members):
            folds[i % n_folds].append(int(idx))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


class FoldFit(NamedTuple):
    """One cross-validation fold: its held-out row indices, the classifier
    fitted on every other row, and that classifier's held-out posteriors."""

    held_out: np.ndarray
    weights: np.ndarray
    bias: float
    posteriors: np.ndarray


def _stacked_fold_fits(
    xs: np.ndarray, y: np.ndarray, n_folds: int, seed: int
) -> list[list[FoldFit]]:
    """Every fold of one stratified split of `y`, fitted on each matrix of
    the B x m x n stack `xs`: B lists of FoldFit, in fold order.

    The B x folds problems with the same number of training rows are
    fitted together by one `fit_binary_stack` call."""
    folds = stratified_folds(y, n_folds, np.random.default_rng(seed))
    train_rows = [np.delete(np.arange(len(y)), fold) for fold in folds]
    if any(len(rows) == 0 for rows in train_rows):
        raise ConfigError(
            f"{len(y)} rows in {n_folds} folds leave a fold with no training rows"
        )
    fits: list[list[FoldFit | None]] = [[None] * len(folds) for _ in xs]
    for size in dict.fromkeys(len(rows) for rows in train_rows):
        group = [i for i, rows in enumerate(train_rows) if len(rows) == size]
        group_rows = np.stack([train_rows[i] for i in group])
        # problem b * len(group) + g is matrix b on fold group[g]
        weights, bias = fit_binary_stack(
            xs[:, group_rows].reshape(-1, size, xs.shape[2]),
            np.tile(y[group_rows], (len(xs), 1)),
        )
        for b, x in enumerate(xs):
            for g, i in enumerate(group):
                row = b * len(group) + g
                held_out = folds[i]
                posteriors = sigmoid(x[held_out] @ weights[row] + bias[row])
                fits[b][i] = FoldFit(held_out, weights[row], float(bias[row]), posteriors)
    return fits


def cross_val_fits(
    x: np.ndarray, y: np.ndarray, n_folds: int, seed: int
) -> list[FoldFit]:
    """Fit the binary learner once per stratified fold, leaving that fold out.

    Folds with the same number of training rows are fitted together by one
    `fit_binary_stack` call on their stacked rows; each fold's classifier
    is bit-identical to `LogisticRegression().fit` on its training rows,
    and its posteriors to `predict_proba` on the held-out rows."""
    x = np.asarray(x, dtype=np.float64)
    return _stacked_fold_fits(x[None], np.asarray(y, dtype=np.int64), n_folds, seed)[0]


def cross_val_accuracies(
    xs, y: np.ndarray, n_folds: int, seed: int
) -> list[float]:
    """Mean held-out accuracy of the binary learner over stratified folds,
    for each of B feature matrices that share the labels `y`, and so the
    split; every fold must hold out at least one row. One
    `fit_binary_stack` call per distinct training-set size fits all
    B x folds problems, and each accuracy is bit-identical to scoring its
    matrix alone."""
    xs = np.asarray(xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    accuracies = []
    for fits in _stacked_fold_fits(xs, y, n_folds, seed):
        if any(len(fit.held_out) == 0 for fit in fits):
            raise ConfigError(
                f"{len(y)} rows in {n_folds} folds leave a fold with no held-out rows"
            )
        accuracies.append(float(np.mean(
            [float(((fit.posteriors >= 0.5) == y[fit.held_out]).mean()) for fit in fits]
        )))
    return accuracies
