"""Binary logistic regression and stratified k-fold utilities.

Deliberately small and self-contained: the same learner backs both the
language-identification scorer that drives adaptive annealing and the
one-vs-rest crosslingual document classifier. Fixed hyperparameters
(L2 penalty 1.0, step 0.5, 500 epochs) keep runs reproducible.

`fit_binary_stack` fits several binary problems that share one feature
matrix in lockstep: each epoch is one stacked matrix-vector product per
direction for all of them. `np.matmul` on a stack of column vectors makes
one BLAS gemv call per stacked problem, the same call a 2-D @ 1-D product
makes, so every problem's weights are bit-identical to fitting it alone.
(`x @ W.T` would be one gemm call, whose sums are not.)
`LogisticRegression.fit` is the one-problem case.
"""

from __future__ import annotations

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
    """Full-batch gradient descent on L binary problems sharing `x` (m x n).

    `ys` is L x m, one row of 0/1 targets per problem. Returns the L x n
    weights and the L biases, each row bit-identical to a separate fit.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    m = x.shape[0]
    weights = np.zeros((ys.shape[0], x.shape[1]), dtype=np.float64)
    bias = np.zeros(ys.shape[0], dtype=np.float64)
    x_stack = x[None]
    xt_stack = x.T[None]
    for _ in range(epochs):
        z = np.matmul(x_stack, weights[:, :, None])[:, :, 0]
        z += bias[:, None]
        residual = sigmoid(z)
        residual -= ys
        grad_w = np.matmul(xt_stack, residual[:, :, None])[:, :, 0]
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
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        for i, idx in enumerate(members):
            folds[i % n_folds].append(int(idx))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_val_accuracy(
    x: np.ndarray, y: np.ndarray, n_folds: int, seed: int
) -> float:
    """Mean held-out accuracy of the binary learner over stratified folds."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    folds = stratified_folds(y, n_folds, rng)
    accuracies = []
    all_idx = np.arange(len(y))
    for fold in folds:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[fold] = False
        train_idx = all_idx[train_mask]
        clf = LogisticRegression().fit(x[train_idx], y[train_idx])
        pred = clf.predict(x[fold])
        accuracies.append(float((pred == y[fold]).mean()))
    return float(np.mean(accuracies))
