from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oxn import config
from oxn.config import DetectionSpec, make_mechanism, register_mechanism, validate
from oxn.detection import (
    BOUNDARY_BAND,
    MIN_CLASS_ROWS,
    ConvergenceError,
    InsufficientDataError,
    LabeledDataset,
    LogisticRegressionMechanism,
    ThresholdAlertMechanism,
    _loss_grad_p,
    build_dataset,
    lagged_features,
    zscore_fit_apply,
)
from oxn.runner import run_experiment
from oxn.telemetry import ResponseSeries

from conftest import small_spec


def series_from(values, labels, name="s") -> ResponseSeries:
    timestamps = 1000 * np.arange(1, len(values) + 1, dtype=np.int64)
    return ResponseSeries(
        name, timestamps, np.asarray(values, dtype=np.float64), np.asarray(labels, dtype=bool)
    )


def train_first(x, y, is_train) -> LabeledDataset:
    """A dataset of the rows of ``x`` and ``y``, those where ``is_train``
    holds first, each group in its original order."""
    order = np.argsort(~is_train, kind="stable")
    return LabeledDataset(features=x[order], labels=y[order], n_train=int(is_train.sum()))


def synthetic_dataset(rng, n_normal=100, n_fault=100, shift=6.0, split=0.7):
    values = np.concatenate([rng.normal(0, 1, n_normal), rng.normal(shift, 1, n_fault)])
    labels = np.concatenate([np.zeros(n_normal, dtype=int), np.ones(n_fault, dtype=int)])
    order = rng.permutation(len(values))
    return build_dataset(
        series_from(values[order], labels[order]), split, rng, feature_window=1
    )


# Reference fit: a two-branch sigmoid, the loss through np.logaddexp, and a
# fresh sigmoid and product for every Hessian, with the same decision band.
# The fit under test must give its scores exactly and its weights to within
# rounding.
def oracle_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_loss_gradient(x, y, weights, bias, l2):
    z = x @ weights + bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(weights @ weights)
    p = oracle_sigmoid(z)
    residual = (p - y) / len(y)
    grad_w = x.T @ residual + l2 * weights
    grad_b = float(residual.sum())
    return loss, np.concatenate([grad_w, [grad_b]])


def oracle_fit(ds, l2=1e-4, tol=1e-6, max_iter=100_000):
    """``[weights, bias]`` of the reference fit."""
    x, y_int = ds.train
    y = y_int.astype(np.float64)
    if x.shape[0] == 0 or len(np.unique(y_int)) < 2:
        raise InsufficientDataError("training split must contain both classes")
    n, d = x.shape
    theta = np.zeros(d + 1)
    loss, grad = oracle_loss_gradient(x, y, theta[:d], theta[d], l2)
    xb = np.hstack([x, np.ones((n, 1))])
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            return theta
        p = oracle_sigmoid(xb @ theta)
        w = p * (1.0 - p)
        hessian = (xb * w[:, None]).T @ xb / n
        hessian[:d, :d] += l2 * np.eye(d)
        hessian += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        slope = float(grad @ step)
        while t > 1e-12:
            candidate = theta - t * step
            cand_loss, cand_grad = oracle_loss_gradient(x, y, candidate[:d], candidate[d], l2)
            if cand_loss <= loss - 1e-4 * t * slope:
                break
            t *= 0.5
        theta = theta - t * step
        loss, grad = cand_loss, cand_grad
    raise ConvergenceError(f"no convergence after {max_iter} iterations")


def oracle_predict(x, theta):
    """Fault iff z = x.w + b lies above the band c*eps*(1 + |x|.|w| + |b|)."""
    w, b = theta[:-1], theta[-1]
    band = BOUNDARY_BAND * np.finfo(np.float64).eps * (1.0 + np.abs(x) @ np.abs(w) + abs(b))
    return x @ w + b > band


# Reference lag columns: the per-lag loop with its own empty-series branch.
def oracle_lagged_features(values: np.ndarray, window: int) -> np.ndarray:
    cols = [values]
    for lag in range(1, window):
        if len(values) == 0:
            cols.append(values.copy())
            continue
        shifted = np.concatenate([np.full(min(lag, len(values)), values[0]), values[:-lag]])
        cols.append(shifted[: len(values)])
    return np.column_stack(cols) if len(values) else np.zeros((0, window))


@st.composite
def labeled_datasets(draw):
    """A train/test dataset from a random labeled series: 8 to 3,000 rows, a
    fault share of 5-95%, a class shift of 0 to 8 standard deviations, raw,
    integer-valued or with one class constant, and sometimes an extra
    constant feature column."""
    n = draw(st.integers(8, 3000))
    n_fault = min(max(round(n * draw(st.floats(0.05, 0.95))), MIN_CLASS_ROWS), n - MIN_CLASS_ROWS)
    shift = draw(st.floats(0.0, 8.0))
    form = draw(st.sampled_from(["raw", "integer", "constant_normal_class"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros(n, dtype=int)
    start = draw(st.integers(0, n - n_fault)) if draw(st.booleans()) else None
    if start is None:
        labels[rng.choice(n, n_fault, replace=False)] = 1
    else:
        labels[start : start + n_fault] = 1
    values = rng.normal(0.0, 1.0, n) + shift * labels
    if form == "integer":
        values = np.round(values)
    elif form == "constant_normal_class":
        values[labels == 0] = 0.0
    ds = build_dataset(series_from(values, labels), 0.7, rng, feature_window=draw(st.integers(1, 4)))
    if draw(st.booleans()):
        ds.features = np.column_stack([ds.features, np.full(len(ds.labels), 3.0)])
    return ds


# A draw whose three z-scored test rows at 0 sit on the boundary: the fit's
# bias is a rounding residue of about 1e-16 whose sign differs between fits.
TIED_DRAW = LabeledDataset(
    features=np.array([[2.0], [1.0], [1.0], [0.0], [1.0], [1.0], [1.0], [-1.0]]),
    labels=np.array([1, 1, 0, 0, 1, 1, 0, 0]),
    n_train=4,
)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(labeled_datasets())
    @example(TIED_DRAW)
    def test_scores_equal_and_weights_agree(self, ds):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns dropped
            try:
                normalized = zscore_fit_apply(ds)
            except InsufficientDataError:
                with pytest.raises(InsufficientDataError):
                    LogisticRegressionMechanism().run(ds)
                return
            score = LogisticRegressionMechanism().run(ds).score
        oracle_theta = oracle_fit(normalized)
        x_test, y_test = normalized.test
        predicted = oracle_predict(x_test, oracle_theta)
        assert score == float(np.mean(predicted.astype(np.int64) == y_test))
        theta, _ = LogisticRegressionMechanism().fit(normalized)
        assert np.max(np.abs(theta - oracle_theta)) <= 1e-9 * np.max(np.abs(oracle_theta))

    def test_sigmoid_equals_the_two_branch_form_bit_for_bit(self):
        rng = np.random.default_rng(15)
        z = np.concatenate(
            [
                rng.normal(0.0, 30.0, 10_000),
                rng.uniform(-800.0, 800.0, 10_000),
                [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf],
            ]
        )
        # With one column of z and theta = [1], the design product is z itself.
        with np.errstate(invalid="ignore"):  # the loss at z = +-inf
            _, _, p = _loss_grad_p(z[:, None], np.zeros(len(z)), np.ones(1), np.zeros(1))
        assert np.array_equal(p.view(np.uint64), oracle_sigmoid(z).view(np.uint64))


class TestDecisionBand:
    def test_rows_on_the_boundary_are_predicted_normal(self):
        # Train rows z-score to [sqrt 2, 0, 0, -sqrt 2]; the labels are
        # symmetric, so the fitted bias is a rounding residue. The test rows
        # z-score to [0, 0, 0, -2 sqrt 2]: z = b on the first three, inside
        # the band, so all four are predicted normal and two of four match.
        normalized = zscore_fit_apply(TIED_DRAW)
        theta, _ = LogisticRegressionMechanism().fit(normalized)
        assert theta[0] > 1.0 and abs(theta[1]) < 1e-15
        assert normalized.test[0][:3, 0].tolist() == [0.0, 0.0, 0.0]
        assert LogisticRegressionMechanism().run(TIED_DRAW).score == 0.5

    def test_rows_just_outside_the_band_are_predicted_by_sign(self):
        # The same train rows; test rows 1e-14 above and below the train mean
        # z-score to about +-1.4e-14, so z = w x + b sits a few band widths
        # (64 eps = 1.4e-14) off the boundary and its sign decides.
        delta = 1e-14
        features = np.array([[2.0], [1.0], [1.0], [0.0], [1.0 + delta], [1.0 - delta]])
        ds = LabeledDataset(features=features, labels=np.array([1, 1, 0, 0, 1, 0]), n_train=4)
        normalized = zscore_fit_apply(ds)
        theta, _ = LogisticRegressionMechanism().fit(normalized)
        x_test = normalized.test[0][:, 0]
        z = x_test * theta[0] + theta[1]
        band = BOUNDARY_BAND * np.finfo(np.float64).eps * (1.0 + np.abs(x_test) * abs(theta[0]) + abs(theta[1]))
        assert band[0] < z[0] < 10 * band[0] and band[1] < -z[1] < 10 * band[1]
        assert LogisticRegressionMechanism().run(ds).score == 1.0
        flipped = LabeledDataset(features=features, labels=np.array([1, 1, 0, 0, 0, 1]), n_train=4)
        assert LogisticRegressionMechanism().run(flipped).score == 0.0


class TestBuildDataset:
    def test_oversampling_balances_train_only(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([np.zeros(100), np.ones(20)])
        labels = np.concatenate([np.zeros(100, dtype=int), np.ones(20, dtype=int)])
        ds = build_dataset(series_from(values, labels), 0.7, rng)
        _, y_train = ds.train
        assert (y_train == 1).sum() == (y_train == 0).sum()
        head = ds.labels[: ds.n_train]
        assert (head == 1).sum() == (head == 0).sum()
        _, y_test = ds.test
        # test split keeps the original imbalance: 30% of each class
        assert (y_test == 0).sum() == 30
        assert (y_test == 1).sum() == 6

    def test_class_absent(self):
        values = np.arange(20.0)
        with pytest.raises(InsufficientDataError, match="class absent"):
            build_dataset(series_from(values, np.zeros(20, dtype=int)), 0.7, np.random.default_rng(0))

    def test_too_few_rows(self):
        values = np.arange(10.0)
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(InsufficientDataError, match="insufficient data"):
            build_dataset(series_from(values, labels), 0.7, np.random.default_rng(0))

    def test_fixed_seed_is_deterministic(self):
        values = np.concatenate([np.zeros(50), np.ones(10)])
        labels = np.concatenate([np.zeros(50, dtype=int), np.ones(10, dtype=int)])
        a = build_dataset(series_from(values, labels), 0.7, np.random.default_rng(7))
        b = build_dataset(series_from(values, labels), 0.7, np.random.default_rng(7))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.n_train == b.n_train

    def test_lagged_features_repeat_first_value(self):
        feats = lagged_features(np.array([5.0, 6.0, 7.0]), 3)
        assert feats.tolist() == [[5, 5, 5], [6, 5, 5], [7, 6, 5]]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(width=64), max_size=12).map(np.array),
        st.integers(1, 8),
    )
    def test_lagged_features_equal_the_per_lag_loop_bit_for_bit(self, values, window):
        reference = oracle_lagged_features(values, window)
        feats = lagged_features(values, window)
        assert feats.shape == reference.shape == (len(values), window)
        assert np.array_equal(feats.view(np.uint64), reference.view(np.uint64))

    def test_splits_are_views_of_the_dataset(self):
        ds = synthetic_dataset(np.random.default_rng(16), n_normal=60, n_fault=20)
        for rows in (ds, zscore_fit_apply(ds)):
            (x_train, y_train), (x_test, y_test) = rows.train, rows.test
            assert len(y_train) == rows.n_train and len(y_train) + len(y_test) == len(rows.labels)
            assert np.shares_memory(x_train, rows.features) and np.shares_memory(x_test, rows.features)
            assert np.shares_memory(y_train, rows.labels) and np.shares_memory(y_test, rows.labels)


class TestZScore:
    def make(self, column):
        x = np.asarray(column, dtype=float).reshape(-1, 1)
        return LabeledDataset(
            features=x,
            labels=np.array([0, 1, 0][: len(column)]),
            n_train=len(column),
        )

    def test_small_example(self):
        ds = zscore_fit_apply(self.make([1.0, 2.0, 3.0]))
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(ds.features[:, 0], expected, atol=1e-12)

    def test_already_normalized_is_identity(self):
        rng = np.random.default_rng(3)
        col = rng.normal(0, 1, 500)
        col = (col - col.mean()) / col.std()
        ds = zscore_fit_apply(
            LabeledDataset(
                features=col.reshape(-1, 1),
                labels=(rng.random(500) < 0.5).astype(int),
                n_train=500,
            )
        )
        assert np.allclose(ds.features[:, 0], col, atol=1e-12)

    def test_constant_column_dropped(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        ds = LabeledDataset(features=x, labels=np.array([0, 1, 0, 1, 0]), n_train=5)
        with pytest.warns(UserWarning, match="constant feature"):
            out = zscore_fit_apply(ds)
        assert out.features.shape[1] == 1

    def test_train_moments(self):
        rng = np.random.default_rng(11)
        ds = synthetic_dataset(rng)
        normalized = zscore_fit_apply(ds)
        x_train, _ = normalized.train
        assert np.all(np.abs(x_train.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(x_train.std(axis=0) - 1.0) < 1e-9)


def design(x):
    """``[x, 1]``, the design matrix of a fit on the rows ``x``."""
    return np.hstack([x, np.ones((len(x), 1))])


def ridge(l2, d):
    """The l2 weights over ``[weights, bias]``, the bias excluded."""
    return np.append(np.full(d, l2), 0.0)


class TestLogReg:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        h, l2 = 1e-5, 1e-4
        for _ in range(10):
            w = rng.normal(size=3)
            b = float(rng.normal())
            theta = np.concatenate([w, [b]])
            _, grad, _ = _loss_grad_p(design(x), y, theta, ridge(l2, 3))
            fd = np.zeros(4)
            for j in range(4):
                plus, minus = theta.copy(), theta.copy()
                plus[j] += h
                minus[j] -= h
                lp = _loss_grad_p(design(x), y, plus, ridge(l2, 3))[0]
                lm = _loss_grad_p(design(x), y, minus, ridge(l2, 3))[0]
                fd[j] = (lp - lm) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-5

    def test_separable_data_high_accuracy(self):
        rng = np.random.default_rng(1)
        outcome = LogisticRegressionMechanism().run(synthetic_dataset(rng))
        assert outcome.score >= 0.99

    def test_shuffled_labels_chance_level(self):
        rng = np.random.default_rng(2)
        outcome = LogisticRegressionMechanism().run(synthetic_dataset(rng, shift=0.0))
        assert 0.4 <= outcome.score <= 0.6

    def test_loss_nonincreasing(self):
        rng = np.random.default_rng(4)
        ds = zscore_fit_apply(synthetic_dataset(rng, shift=2.0))
        _, losses = LogisticRegressionMechanism().fit(ds)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_convergence_reaches_tolerance(self):
        rng = np.random.default_rng(6)
        ds = zscore_fit_apply(synthetic_dataset(rng, shift=1.0))
        theta, _ = LogisticRegressionMechanism(tol=1e-10).fit(ds)
        x, y = ds.train
        _, grad, _ = _loss_grad_p(design(x), y.astype(float), theta, ridge(1e-4, x.shape[1]))
        assert np.max(np.abs(grad)) < 1e-10

    def test_non_convergence_reports_gradient_norm(self):
        rng = np.random.default_rng(8)
        ds = zscore_fit_apply(synthetic_dataset(rng, shift=1.0))
        with pytest.raises(ConvergenceError, match="after 100 iterations; gradient infinity-norm"):
            LogisticRegressionMechanism(tol=1e-300).fit(ds)

    def test_deterministic_weights(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        theta1, _ = LogisticRegressionMechanism().fit(zscore_fit_apply(synthetic_dataset(rng1, shift=3.0)))
        theta2, _ = LogisticRegressionMechanism().fit(zscore_fit_apply(synthetic_dataset(rng2, shift=3.0)))
        assert np.array_equal(theta1, theta2)

    def test_feature_scaling_invariance(self):
        values = np.concatenate(
            [np.random.default_rng(10).normal(0, 1, 80), np.random.default_rng(12).normal(4, 1, 40)]
        )
        labels = np.concatenate([np.zeros(80, dtype=int), np.ones(40, dtype=int)])

        def run(scale):
            ds = build_dataset(
                series_from(values * scale, labels), 0.7, np.random.default_rng(42)
            )
            mech = LogisticRegressionMechanism()
            return mech.run(ds).score

        assert run(1.0) == run(1000.0) == run(0.001)


class TestEvaluate:
    def test_perfect_separation_scores_one(self):
        x = np.concatenate([np.zeros(20), np.ones(20)]).reshape(-1, 1)
        y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
        split = np.tile([True, True, True, False], 10)
        assert LogisticRegressionMechanism().run(train_first(x, y, split)).score == 1.0

    def test_majority_prediction_on_balanced_test(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 1)) * 1e-12  # effectively no signal
        y = np.tile([0, 1], 20)
        ds = train_first(x, y, np.tile([True, True, False, False], 10))
        assert ThresholdAlertMechanism(k=3.0).run(ds).score == 0.5  # flags nothing: TNR=1, TPR=0

    def test_threshold_alert_detects_band_violations(self):
        rng = np.random.default_rng(14)
        normal = rng.normal(10, 1, 60)
        fault = rng.normal(30, 1, 20)
        values = np.concatenate([normal, fault])
        labels = np.concatenate([np.zeros(60, dtype=int), np.ones(20, dtype=int)])
        ds = build_dataset(series_from(values, labels), 0.7, rng, feature_window=1)
        assert ThresholdAlertMechanism(k=3.0).run(ds).score > 0.95

    def test_threshold_alert_constant_normal_class_scaling_invariance(self):
        values = np.concatenate([np.zeros(40), np.full(20, 0.5)])
        labels = np.concatenate([np.zeros(40, dtype=int), np.ones(20, dtype=int)])

        def run(scale):
            ds = build_dataset(series_from(values * scale, labels), 0.7, np.random.default_rng(0), feature_window=1)
            return ThresholdAlertMechanism(k=3.0).run(ds).score

        # A constant normal class gives a zero-width band: every fault row departs from it.
        assert run(1.0) == run(1000.0) == run(0.001) == 1.0


class TestRegistry:
    def test_known_mechanisms(self):
        assert make_mechanism("logistic_regression").run
        assert make_mechanism("threshold_alert", alert_k=2.0).k == 2.0

    def test_unknown_mechanism(self):
        with pytest.raises(KeyError, match="unknown detection mechanism"):
            make_mechanism("clairvoyance")


@pytest.fixture
def register():
    """``register_mechanism`` that unregisters its names at teardown."""
    names = []

    def register_(name, factory):
        names.append(name)
        register_mechanism(name, factory)

    yield register_
    for name in names:
        config._REGISTRY.pop(name, None)


class TestCustomMechanism:
    def test_registered_mechanism_runs_end_to_end(self, register):
        register("mine", lambda alert_k=3.0, **_: ThresholdAlertMechanism(k=alert_k))
        mine = small_spec(detection=DetectionSpec(mechanism="mine"))
        assert validate(mine) == []
        report = run_experiment(mine, frozen_clock=True)
        assert report.mechanism == "mine"
        reference = small_spec(detection=DetectionSpec(mechanism="threshold_alert"))
        assert report.matrix.score_runs == run_experiment(reference, frozen_clock=True).matrix.score_runs

    def test_factory_key_error_propagates(self, register):
        error = KeyError("missing_setting")

        def factory(**_):
            raise error

        register("broken", factory)
        with pytest.raises(KeyError) as raised:
            make_mechanism("broken")
        assert raised.value is error
