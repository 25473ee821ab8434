"""Binary logistic regression fitted by iteratively reweighted least squares.

Models log{P(y=1)/P(y=0)} as intercept + w.x.  A small ridge penalty on the
weights (never the intercept) keeps the Newton system well-posed when the
classes are quasi-separable, which is plausible at a few hundred rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import HiddenPopError
from ..features import design_matrix

log = logging.getLogger(__name__)

_CLAMP = 1e-12
_RIDGE = 1e-6  # the starting ridge penalty on the weights
_LAMBDA_CEILING = 1e-2
_TOL = 1e-8  # bound on every penalized score-gradient component at convergence
_MAX_ITER = 100
# the range of each value fit_logistic returns, which a saved model must keep
FIT_RANGES = {"iterations": (0, _MAX_ITER), "ridge_lambda": (_RIDGE, _LAMBDA_CEILING),
              "max_abs_gradient": (0, np.inf)}


@dataclass
class LogisticModel:
    intercept: float
    weights: np.ndarray
    ridge_lambda: float
    iterations: int
    max_abs_gradient: float

    @property
    def width(self) -> int:
        return len(self.weights)

    @property
    def converged(self) -> bool:
        """fit_logistic's stopping rule: every gradient component is below _TOL."""
        return self.max_abs_gradient < _TOL


def _sigmoid(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def penalized_loglik(beta, X1, y, lam_vec):
    """Log-likelihood minus (lam/2)|w|^2; beta[0] is the unpenalized intercept."""
    eta = X1 @ beta
    # log(1 + e^eta) computed stably
    ll = y @ eta - np.sum(np.logaddexp(0.0, eta))
    return ll - 0.5 * np.sum(lam_vec * beta * beta)


def penalized_gradient(beta, X1, y, lam_vec):
    p = _sigmoid(X1 @ beta)
    return X1.T @ (y - p) - lam_vec * beta


def fit_logistic(data) -> LogisticModel:
    """Newton/IRLS until every penalized score-gradient component is < _TOL.

    The ridge starts at _RIDGE.  A singular Newton system triggers an
    automatic restart with the ridge escalated x10, up to 1e-2; past that
    HiddenPopError is raised.  Hitting _MAX_ITER returns the model with
    converged=False rather than raising.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite entries in design matrix")
    if y.min() == y.max():
        raise ValueError("both classes must be present")

    n, p = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    lam = _RIDGE
    while True:
        try:
            beta, iters, gmax = _newton(X1, y, lam)
            break
        except np.linalg.LinAlgError:
            if lam * 10 > _LAMBDA_CEILING:
                raise HiddenPopError(f"Newton system singular even at ridge {lam:g}") from None
            lam *= 10
            log.warning("singular IRLS system; escalating ridge to %g", lam)

    model = LogisticModel(float(beta[0]), beta[1:].copy(), lam, iters, float(gmax))
    if not model.converged:
        log.warning("IRLS stopped at max_iter=%d with max|gradient|=%.3e", _MAX_ITER, gmax)
    return model


def _newton(X1, y, lam):
    p_dim = X1.shape[1]
    lam_vec = np.full(p_dim, lam)
    lam_vec[0] = 0.0  # intercept unpenalized
    beta = np.zeros(p_dim)
    ll = penalized_loglik(beta, X1, y, lam_vec)
    for it in range(1, _MAX_ITER + 1):
        grad = penalized_gradient(beta, X1, y, lam_vec)
        gmax = np.max(np.abs(grad))
        if gmax < _TOL:
            return beta, it - 1, gmax
        prob = _sigmoid(X1 @ beta)
        w = prob * (1.0 - prob)
        hess = (X1 * w[:, None]).T @ X1 + np.diag(lam_vec)
        step = np.linalg.solve(hess, grad)
        # step-halving keeps quasi-separable fits from overshooting
        scale = 1.0
        for _ in range(50):
            candidate = beta + scale * step
            ll_new = penalized_loglik(candidate, X1, y, lam_vec)
            if ll_new >= ll - 1e-12:
                beta, ll = candidate, ll_new
                break
            scale *= 0.5
        else:
            # no ascent possible; report current gradient honestly
            return beta, it, gmax
    grad = penalized_gradient(beta, X1, y, lam_vec)
    return beta, _MAX_ITER, np.max(np.abs(grad))


def predict_logistic(model: LogisticModel, X) -> np.ndarray:
    """P(y=1 | x) per row of a (rows, width) matrix, clamped to [1e-12, 1-1e-12].

    Raises OverflowError when a row's linear predictor is not finite: finite
    but huge weights would otherwise score every row 0 or 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eta = model.intercept + design_matrix(X, model.width) @ model.weights
    overflows = np.count_nonzero(~np.isfinite(eta))
    if overflows:
        raise OverflowError(f"the logistic model's linear predictor overflows on {overflows} "
                             "rows: its weights are too large")
    return np.clip(_sigmoid(eta), _CLAMP, 1.0 - _CLAMP)
