"""IRLS logistic regression: optimality, gradients, recovery, prediction."""

import numpy as np
import pytest

from hiddenpop.errors import HiddenPopError
from hiddenpop.features import LabeledDataset
from hiddenpop.models import fit_logistic, predict_logistic
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
