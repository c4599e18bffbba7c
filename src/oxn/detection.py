"""Fault-detection mechanisms over labeled response series.

The default mechanism z-scores the features, fits a logistic regression on
the train split and scores its test-split accuracy. The fit is full-batch
Newton with an Armijo backtracking line search, which keeps the training
loss nonincreasing and the fitted weights bit-reproducible for a fixed
split. It builds its design matrix ``xb = [x, 1]`` once; each loss
evaluation takes one product ``z = xb @ theta`` and one ``e = exp(-|z|)``,
giving the loss ``max(z, 0) + log1p(e) - y*z`` (the form of ``logaddexp``)
and the sigmoid ``p``, which the next Newton step's Hessian reuses from the
candidate the line search accepted. A test row is predicted as a fault iff
``z > c*eps*(1 + |x|.|w| + |b|)``, with ``c = BOUNDARY_BAND``. A row inside
that band around ``z = 0``, where the sign of ``z`` can be a rounding
residue, is predicted normal. A k-sigma threshold alert is a second
mechanism, and external mechanisms can be registered by name.

A mechanism's ``run(ds)`` receives a ``LabeledDataset`` whose rows are
ordered train first: the leading ``ds.n_train`` rows (the train split,
rebalanced by oversampling) and then the test rows. ``ds.train`` and
``ds.test`` are views of ``ds.features`` and ``ds.labels``; treat them as
read-only, since writing through them changes the dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from .telemetry import ResponseSeries


class InsufficientDataError(ValueError):
    """The series cannot support training (class absent or too few rows)."""


class ConvergenceError(RuntimeError):
    pass


@dataclass
class LabeledDataset:
    """Feature matrix with binary labels, train rows first: the leading
    ``n_train`` rows are the train split and the rest the test split, so
    ``train`` and ``test`` are views of ``features`` and ``labels``."""

    features: np.ndarray  # (rows, cols) float64
    labels: np.ndarray  # (rows,) int, 1 = fault
    n_train: int

    @property
    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[: self.n_train], self.labels[: self.n_train]

    @property
    def test(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[self.n_train :], self.labels[self.n_train :]


@dataclass(frozen=True)
class DetectionOutcome:
    """Detection score in [0, 1] for one (fault, response) evaluation; the
    runner checks the range when it reads the score."""

    score: float


MIN_CLASS_ROWS = 4
MAX_NEWTON_STEPS = 100
BOUNDARY_BAND = 64  # c of the logistic decision band c*eps*(1 + |x|.|w| + |b|)


def lagged_features(values: np.ndarray, window: int) -> np.ndarray:
    """Sliding window of current value plus ``window - 1`` lags.

    Lags before the start of the series repeat the first observation;
    zero-filling would hand the classifier an artificial "early row" marker
    that leaks the label on short series.
    """
    values = np.asarray(values, dtype=np.float64)
    padded = np.concatenate([np.repeat(values[:1], window - 1), values])
    return np.column_stack([padded[window - 1 - lag : len(padded) - lag] for lag in range(window)])


def build_dataset(
    series: ResponseSeries,
    split_ratio: float,
    rng: np.random.Generator,
    feature_window: int = 3,
) -> LabeledDataset:
    """Turn a labeled response series into a stratified train/test dataset.

    The train split is rebalanced by duplicating minority-class rows with
    replacement until class counts are exactly equal; the test split keeps
    the original imbalance.
    """
    if not 0.0 < split_ratio < 1.0:
        raise ValueError("split_ratio must be within (0, 1)")
    values = series.values
    labels = series.is_fault.astype(np.int64)

    n_fault = int(labels.sum())
    n_normal = int(len(labels) - n_fault)
    if n_fault == 0 or n_normal == 0:
        raise InsufficientDataError(
            f"class absent in series '{series.name}' "
            f"({n_fault} fault rows, {n_normal} normal rows)"
        )
    if n_fault < MIN_CLASS_ROWS or n_normal < MIN_CLASS_ROWS:
        raise InsufficientDataError(
            f"insufficient data in series '{series.name}': need at least "
            f"{MIN_CLASS_ROWS} rows per class, have {n_fault} fault / {n_normal} normal"
        )

    features = lagged_features(values, feature_window)

    is_train = np.zeros(len(labels), dtype=bool)
    counts = []  # train rows per class
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        counts.append(min(max(int(len(idx) * split_ratio), 1), len(idx) - 1))
        is_train[idx[: counts[cls]]] = True

    train_idx = np.flatnonzero(is_train)
    minority = int(counts[1] < counts[0])
    pool = train_idx[labels[train_idx] == minority]
    extra_rows = rng.choice(pool, size=abs(counts[1] - counts[0]), replace=True)

    order = np.concatenate([train_idx, extra_rows, np.flatnonzero(~is_train)])
    return LabeledDataset(
        features=features[order], labels=labels[order], n_train=len(train_idx) + len(extra_rows)
    )


def zscore_fit_apply(ds: LabeledDataset) -> LabeledDataset:
    """Normalize features to zero mean / unit variance using train-split
    statistics only; constant train columns are dropped with a warning."""
    x_train, _ = ds.train
    if x_train.shape[0] == 0:
        raise ValueError("train split is empty")
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)  # population std
    keep = std > 0.0
    if not keep.all():
        dropped = np.flatnonzero(~keep).tolist()
        warnings.warn(f"dropping constant feature columns {dropped}", stacklevel=2)
    if not keep.any():
        raise InsufficientDataError("all feature columns are constant on the train split")
    transformed = (ds.features[:, keep] - mean[keep]) / std[keep]
    return replace(ds, features=transformed)


def _loss_grad_p(
    xb: np.ndarray, y: np.ndarray, theta: np.ndarray, ridge: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, gradient, sigmoid(z)) at ``theta = [weights, bias]`` for the
    design matrix ``xb = [x, 1]`` and per-coordinate l2 weights ``ridge``."""
    z = xb @ theta
    e = np.exp(-np.abs(z))
    penalty = ridge * theta
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z)) + 0.5 * float(theta @ penalty)
    p = np.where(z >= 0, 1.0, e) / (1.0 + e)  # sigmoid(z), sharing e
    return loss, xb.T @ ((p - y) / len(y)) + penalty, p


class DetectionMechanism(Protocol):
    """Interface external detectors implement to plug into the runner."""

    def run(self, ds: LabeledDataset) -> DetectionOutcome: ...


@dataclass(frozen=True)
class LogisticRegressionMechanism:
    """Logistic regression with an l2 ridge on the weights (bias excluded);
    the score is the test-split accuracy."""

    l2: float = 1e-4
    tol: float = 1e-6

    def fit(self, ds: LabeledDataset) -> tuple[np.ndarray, list[float]]:
        """``[weights, bias]`` fitted on the train split by damped Newton
        iteration until the gradient infinity-norm drops below ``tol``, and
        the loss after each step."""
        x, y_int = ds.train
        if x.shape[0] == 0 or y_int.min() == y_int.max():
            raise InsufficientDataError("training split must contain both classes")

        n, d = x.shape
        xb = np.hstack([x, np.ones((n, 1))])
        y = y_int.astype(np.float64)
        ridge = np.append(np.full(d, self.l2), 0.0)
        damping = np.diag(ridge + 1e-12)
        theta = np.zeros(d + 1)
        loss, grad, p = _loss_grad_p(xb, y, theta, ridge)
        losses = [loss]
        for _ in range(MAX_NEWTON_STEPS):
            if np.max(np.abs(grad)) < self.tol:
                return theta, losses
            hessian = (xb * (p * (1.0 - p))[:, None]).T @ xb / n + damping
            step = np.linalg.solve(hessian, grad)

            # Armijo backtracking keeps the loss nonincreasing.
            t = 1.0
            slope = float(grad @ step)
            while t > 1e-12:
                theta_t = theta - t * step
                cand = _loss_grad_p(xb, y, theta_t, ridge)
                if cand[0] <= loss - 1e-4 * t * slope:
                    break
                t *= 0.5
            theta = theta_t
            loss, grad, p = cand
            losses.append(loss)

        raise ConvergenceError(
            f"logistic regression failed to converge after {MAX_NEWTON_STEPS} iterations; "
            f"gradient infinity-norm {np.max(np.abs(grad)):.3e}"
        )

    def run(self, ds: LabeledDataset) -> DetectionOutcome:
        normalized = zscore_fit_apply(ds)
        theta, _ = self.fit(normalized)
        x, y = normalized.test
        if x.shape[0] == 0:
            raise ValueError("test split is empty")
        weights, bias = theta[:-1], theta[-1]
        band = BOUNDARY_BAND * np.finfo(np.float64).eps * (1.0 + np.abs(x) @ np.abs(weights) + abs(bias))
        predicted = x @ weights + bias > band
        return DetectionOutcome(float(np.mean(predicted == y)))


@dataclass(frozen=True)
class ThresholdAlertMechanism:
    """Alert rule: flag a test row whose raw value leaves the mean +/- k*std
    band of the normal-labeled train rows (zero-width when they are
    constant); the score is the balanced accuracy of the flags."""

    k: float = 3.0

    def run(self, ds: LabeledDataset) -> DetectionOutcome:
        x, y = ds.train
        normal = x[y == 0, 0]
        if normal.size == 0:
            raise InsufficientDataError("no normal rows in the train split")
        x, y = ds.test
        if x.shape[0] == 0:
            raise ValueError("test split is empty")
        flagged = np.abs(x[:, 0] - normal.mean()) > self.k * normal.std()
        fault = y == 1
        tpr = float(flagged[fault].mean()) if fault.any() else 0.0
        tnr = float((~flagged[~fault]).mean()) if (~fault).any() else 0.0
        return DetectionOutcome((tpr + tnr) / 2.0)


_REGISTRY: dict[str, Callable[..., DetectionMechanism]] = {}


def register_mechanism(name: str, factory: Callable[..., DetectionMechanism]) -> None:
    _REGISTRY[name] = factory


def make_mechanism(name: str, **params) -> DetectionMechanism:
    # Looked up first, so a KeyError raised inside a factory propagates as is.
    if name not in _REGISTRY:
        raise KeyError(f"unknown detection mechanism '{name}'")
    return _REGISTRY[name](**params)


def _logistic_regression(l2=1e-4, tol=1e-6, **_) -> LogisticRegressionMechanism:
    return LogisticRegressionMechanism(l2=l2, tol=tol)


def _threshold_alert(alert_k=3.0, **_) -> ThresholdAlertMechanism:
    return ThresholdAlertMechanism(k=alert_k)


register_mechanism("logistic_regression", _logistic_regression)
register_mechanism("threshold_alert", _threshold_alert)
