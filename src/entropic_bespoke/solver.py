"""Safeguarded Newton minimizer for smooth convex duals.

The step is the minimum-norm Newton step, the least-squares solution of
H d = -g (Ben-Israel 1966), with an Armijo backtracking line search.  A
dual's Hessian is positive semidefinite, so the step descends whenever g
lies in the Hessian's range, as it does for consistent but linearly
dependent constraints; the step falls back to -g only when it would
climb or the Hessian has a non-finite entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, ConfigurationError

# Armijo sufficient-decrease fraction; step halvings before giving up
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


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
    """Minimize until the gradient's inf-norm is below `tol`; more than
    `max_iter` steps, or a step no backtracking can make descend, is a
    CalibrationError."""
    x = np.array(x0, dtype=float)
    value, grad = value_and_grad(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ConfigurationError("objective not finite at the starting point")
    for it in range(1, max_iter + 1):
        if np.max(np.abs(grad)) < tol:
            return NewtonResult(x=x, value=value, gradient=grad, iterations=it - 1)
        hess = hessian(x)
        step = (np.linalg.lstsq(hess, -grad, rcond=None)[0]
                if np.all(np.isfinite(hess)) else -grad)
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
