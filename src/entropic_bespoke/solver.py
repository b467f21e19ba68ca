"""Safeguarded Newton minimizer for smooth convex duals.

Newton direction from the explicit Hessian, Armijo backtracking line
search, gradient-descent fallback whenever the Hessian solve fails or the
Newton direction is not a descent direction (possible for singular
Hessians when all softness parameters are zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, ConfigurationError

# Armijo sufficient-decrease fraction; step halvings before giving up
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


def check_stopping(tol: float, max_iter: int, prefix: str = ""):
    """The stopping rule of an iterative search: 0 < tol < inf and
    max_iter >= 1.  The messages name the two as `prefix` + tol and
    `prefix` + max_iter."""
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(
            f"{prefix}tol must be a finite positive tolerance, got {tol}")
    if max_iter < 1:
        raise ConfigurationError(
            f"{prefix}max_iter must be at least 1, got {max_iter}")


@dataclass
class NewtonResult:
    x: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int


def newton_minimize(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> NewtonResult:
    check_stopping(tol, max_iter)
    x = np.array(x0, dtype=float)
    value, grad = value_and_grad(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ConfigurationError("objective not finite at the starting point")
    for it in range(1, max_iter + 1):
        if np.max(np.abs(grad)) < tol:
            return NewtonResult(x=x, value=value, gradient=grad, iterations=it - 1)
        step = _direction(hessian(x), grad)
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = float(grad @ step)
        # absolute slack: near the optimum the predicted decrease sits below
        # float resolution of the objective, which must still count as accepted
        noise = 1e-14 * (1.0 + abs(value))
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand = x + t * step
            cand_value, cand_grad = value_and_grad(cand)
            if np.isfinite(cand_value) and (
                cand_value <= value + _ARMIJO * t * slope + noise
            ):
                break
            t *= 0.5
        else:
            raise CalibrationError(
                "line search failed to reduce the dual objective",
                gradient_norm=float(np.max(np.abs(grad))),
                iterations=it,
            )
        x, value, grad = cand, cand_value, cand_grad
    if np.max(np.abs(grad)) < tol:
        return NewtonResult(x=x, value=value, gradient=grad, iterations=max_iter)
    raise CalibrationError(
        "no convergence within the iteration limit",
        gradient_norm=float(np.max(np.abs(grad))),
        iterations=max_iter,
    )


def _direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return -grad
    if not np.all(np.isfinite(step)):
        return -grad
    return step
