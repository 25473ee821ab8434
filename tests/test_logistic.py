"""IRLS logistic regression: optimality, gradients, recovery, prediction."""

import logging

import numpy as np
import pytest

from hiddenpop.errors import HiddenPopError
from hiddenpop.features import FeatureSchema, LabeledDataset, feature_layout
from hiddenpop.models import (LogisticModel, fit_logistic, load_model, logistic, model_type,
                              predict_logistic, save_model)
from hiddenpop.models.logistic import _newton, penalized_gradient, penalized_loglik


def synth_logistic(n, beta, intercept, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(beta)))
    p = 1.0 / (1.0 + np.exp(-(intercept + X @ beta)))
    y = (rng.random(n) < p).astype(int)
    return LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])


def test_gradient_vanishes_at_solution():
    data = synth_logistic(500, np.array([1.0, -2.0, 0.5]), 0.3, seed=0)
    model = fit_logistic(data)
    assert model.converged
    assert model.max_abs_gradient < 1e-8
    X1 = np.hstack([np.ones((len(data.y), 1)), data.X])
    lam_vec = np.r_[0.0, np.full(3, model.ridge_lambda)]
    beta = np.r_[model.intercept, model.weights]
    grad = penalized_gradient(beta, X1, data.y.astype(float), lam_vec)
    assert np.max(np.abs(grad)) < 1e-8


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    data = synth_logistic(200, np.array([0.8, -1.2]), -0.4, seed=1)
    X1 = np.hstack([np.ones((200, 1)), data.X])
    y = data.y.astype(float)
    lam_vec = np.array([0.0, 1e-4, 1e-4])
    h = 1e-6
    for _ in range(5):
        beta = rng.normal(scale=0.8, size=3)
        analytic = penalized_gradient(beta, X1, y, lam_vec)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (
                penalized_loglik(beta + e, X1, y, lam_vec)
                - penalized_loglik(beta - e, X1, y, lam_vec)
            ) / (2 * h)
            assert abs(analytic[j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_coefficient_recovery_moderate_n():
    beta = np.array([1.5, -0.7, 0.0, 0.9])
    data = synth_logistic(20_000, beta, -0.5, seed=2)
    model = fit_logistic(data)
    assert np.max(np.abs(model.weights - beta)) < 0.1
    assert abs(model.intercept - (-0.5)) < 0.1


def test_quasi_separable_data_still_converges():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 1))
    y = (X[:, 0] > 0).astype(int)  # perfectly separable
    data = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(80)])
    model = fit_logistic(data)
    assert model.converged
    scores = predict_logistic(model, X)
    assert np.all((scores > 0.5) == (y == 1))


def test_predict_shapes_and_clamp():
    data = synth_logistic(100, np.array([3.0]), 0.0, seed=4)
    model = fit_logistic(data)
    one = predict_logistic(model, np.array([[1000.0]]))
    assert one.shape == (1,)
    assert 1e-12 <= one[0] <= 1 - 1e-12
    with pytest.raises(HiddenPopError, match=r"expected a \(rows, 1\) matrix, got shape \(1,\)"):
        predict_logistic(model, np.array([1000.0]))
    many = predict_logistic(model, data.X)
    assert many.shape == (100,)
    assert np.all((many > 0) & (many < 1))


def test_predict_dimension_mismatch():
    data = synth_logistic(50, np.array([1.0, 1.0]), 0.0, seed=5)
    model = fit_logistic(data)
    with pytest.raises(HiddenPopError, match=r"expected a \(rows, 2\) matrix, got shape \(1, 3\)"):
        predict_logistic(model, np.zeros((1, 3)))


def test_single_class_rejected():
    data = LabeledDataset(X=np.zeros((10, 2)), y=np.ones(10, dtype=int),
                          row_ids=[str(i) for i in range(10)])
    with pytest.raises(ValueError):
        fit_logistic(data)


def test_a_non_finite_design_matrix_is_rejected():
    X = np.zeros((4, 2))
    X[1, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite entries in design matrix$"):
        fit_logistic(LabeledDataset(X=X, y=np.array([0, 1, 0, 1]), row_ids=list("abcd")))


def test_model_type_rejects_an_unsupported_model():
    with pytest.raises(TypeError, match="^unsupported model type object$"):
        model_type(object())


def test_intercept_unpenalized():
    # with a huge ridge the weights shrink to ~0 but the intercept still
    # matches the base rate
    data = synth_logistic(2_000, np.array([1.0]), 1.2, seed=6)
    X1 = np.hstack([np.ones((len(data.y), 1)), data.X])
    (intercept, weight), _iterations, _gmax = _newton(X1, data.y.astype(float), 1e-2)
    small = fit_logistic(data)
    assert abs(weight) < abs(small.weights[0])
    base = np.log(data.y.mean() / (1 - data.y.mean()))
    assert abs(intercept) > 0.1 * abs(base)


def test_equal_rows_score_equally_wherever_they_stand():
    """A row's score does not depend on its position or on the rows beside it (BLAS's X @ w
    rounds the rows of a tiled matrix apart for about half of these weights)."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = LogisticModel(0.0, rng.normal(size=9), 1e-6, 1, 0.0)
        row = rng.normal(size=9)
        alone = predict_logistic(model, row[None])[0]
        for n in range(1, 40):
            X = rng.normal(size=(n, 9))
            X[::3] = row
            assert set(predict_logistic(model, X)[::3].tolist()) == {alone}
            assert set(predict_logistic(model, np.tile(row, (n, 1))).tolist()) == {alone}


def _singular(monkeypatch, times):
    """Make the first times Newton solves raise LinAlgError, as a singular system does."""
    newton, calls = logistic._newton, []

    def singular_newton(X1, y, lam):
        calls.append(lam)
        if len(calls) <= times:
            raise np.linalg.LinAlgError("Singular matrix")
        return newton(X1, y, lam)

    monkeypatch.setattr(logistic, "_newton", singular_newton)


@pytest.mark.parametrize("times, ridge, warned", [
    (1, 9.999999999999999e-06, ["1e-05"]),
    (4, 0.01, ["1e-05", "0.0001", "0.001", "0.01"]),  # FIT_RANGES' upper bound
])
def test_a_singular_newton_system_escalates_the_ridge(tmp_path, monkeypatch, caplog,
                                                      times, ridge, warned):
    """Each singular system restarts the fit at ten times the ridge, with one warning, and
    the model fitted at the ridge reached saves and loads."""
    _singular(monkeypatch, times)
    with caplog.at_level(logging.WARNING, logger="hiddenpop.models.logistic"):
        model = fit_logistic(synth_logistic(300, np.linspace(-1, 1, 9), 0.2, seed=7))
    assert model.ridge_lambda == ridge and model.converged
    assert [r.getMessage() for r in caplog.records] == [
        f"singular IRLS system; escalating ridge to {lam}" for lam in warned]
    schema = FeatureSchema(feature_layout({s: (0.0, 1.0)
                                           for s in ("years_enrolled", "ects_earned")}))
    save_model(tmp_path / "model.json", model, schema)
    loaded, _schema = load_model(tmp_path / "model.json")
    assert loaded.ridge_lambda == ridge
    np.testing.assert_array_equal(loaded.weights, model.weights)


def test_a_newton_system_singular_at_the_ceiling_raises(monkeypatch):
    _singular(monkeypatch, 5)
    with pytest.raises(HiddenPopError, match=r"^Newton system singular even at ridge 0\.01$"):
        fit_logistic(synth_logistic(300, np.linspace(-1, 1, 9), 0.2, seed=7))


def test_the_iteration_limit_returns_an_unconverged_model(monkeypatch, caplog):
    monkeypatch.setattr(logistic, "_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="hiddenpop.models.logistic"):
        model = fit_logistic(synth_logistic(300, np.array([1.0, -2.0, 0.5]), 0.3, seed=0))
    assert not model.converged and model.iterations == 1
    assert [r.getMessage().split(" with ")[0] for r in caplog.records] == [
        "IRLS stopped at max_iter=1"]


def test_a_fit_with_no_ascent_step_says_where_it_stopped(caplog):
    """At x = 1e160 no halving of the first Newton step ascends: the fit stops at
    iteration 1, and the warning says so rather than naming the iteration limit."""
    data = LabeledDataset(X=np.array([[0.0], [1.0], [2.0], [1e160]]), y=np.array([0, 1, 0, 1]),
                          row_ids=list("abcd"))
    with caplog.at_level(logging.WARNING, logger="hiddenpop.models.logistic"), \
            np.errstate(over="ignore", invalid="ignore"):
        model = fit_logistic(data)
    assert not model.converged and model.iterations == 1
    assert [r.getMessage() for r in caplog.records] == [
        "IRLS stopped at iteration 1 (no ascent step) with max|gradient|=5.000e+159"]


def test_step_halving_keeps_the_log_likelihood_ascending(monkeypatch):
    """Data whose full Newton step overshoots once: the halved step is taken, and the
    fit converges with a log-likelihood that never falls between iterations."""
    X = np.array([[-59, 130, .58], [11, 86, -.085], [47, 150, .63], [-26, 61, .71],
                  [-7.3, -30, 1.1], [-27, -100, .12], [270, 58, .6], [-240, -37, .75]])
    y = np.array([0, 0, 0, 1, 1, 1, 0, 1])
    evaluated, accepted = [], []  # every log-likelihood computed; each iteration's (beta, ...)

    def loglik(*args):
        evaluated.append(penalized_loglik(*args))
        return evaluated[-1]

    def gradient(*args):
        accepted.append(args)
        return penalized_gradient(*args)

    monkeypatch.setattr(logistic, "penalized_loglik", loglik)
    monkeypatch.setattr(logistic, "penalized_gradient", gradient)
    model = fit_logistic(LabeledDataset(X=X, y=y, row_ids=list("abcdefgh")))
    assert model.converged
    assert len(evaluated) > model.iterations + 1  # a candidate step was refused
    logliks = [penalized_loglik(*args) for args in accepted]
    assert all(b >= a for a, b in zip(logliks, logliks[1:]))
