"""Semantic exception hierarchy.

Library code never raises bare ValueError for contract violations; every
failure mode a caller may want to catch has its own class, whose `code`
the CLI prints in its `ERROR <code>: message` line.
"""

from __future__ import annotations


class EntropicBespokeError(Exception):
    """Base class for all library errors."""
    code = "ERROR"


class ConfigurationError(EntropicBespokeError, ValueError):
    """Inputs violate a contract: bad parameter domain, missing file,
    mismatched grids or loss units."""
    code = "CONFIG"


class InvalidLoadingError(ConfigurationError):
    """Factor loadings leave no room for the idiosyncratic term."""

    def __init__(self, message: str, name_id: str | None = None):
        super().__init__(message)
        self.name_id = name_id


class _StoppedShort:
    """Mixin of the errors of an iterative search that stopped short.  The
    text ends with the facts known of its last step, in parentheses: the
    attribute that `_MEASURE` names, under its label, then `iterations`."""
    _MEASURE: tuple[str, str]  # (attribute, label)

    def __str__(self) -> str:
        name, label = self._MEASURE
        measure = getattr(self, name)
        facts = [] if measure is None else [f"{label} {measure:.3e}"]
        if self.iterations is not None:
            facts.append(f"iterations {self.iterations}")
        text = super().__str__()
        return f"{text} ({', '.join(facts)})" if facts else text


class CalibrationError(_StoppedShort, EntropicBespokeError):
    """Dual optimization failed to converge.  The text ends with the
    gradient inf-norm and the iteration count, when known."""
    code = "CALIBRATION"
    _MEASURE = ("gradient_norm", "grad inf-norm")

    def __init__(self, message: str, gradient_norm: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.gradient_norm, self.iterations = gradient_norm, iterations


class InfiniteDivergenceError(EntropicBespokeError):
    """KL divergence is +inf: the candidate measure puts mass where the
    reference measure has none."""


class InfeasibleAdjustmentError(EntropicBespokeError):
    """Requested expected loss lies outside what exponential tilting of the
    given measure can reach."""
    code = "INFEASIBLE"

    def __init__(self, message: str, attainable_range: tuple[float, float]):
        super().__init__(message)
        self.attainable_range = attainable_range


class MappingConvergenceError(_StoppedShort, EntropicBespokeError):
    """Probability-matching strike search found no fixed point.  The text
    ends with the last |K_target - K_i| and the iteration count, when
    known."""
    code = "MAPPING"
    _MEASURE = ("residual", "|K_target - K_i|")

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual, self.iterations = residual, iterations


class UndefinedSpreadError(EntropicBespokeError):
    """Par spread undefined because the risky annuity is zero."""
    code = "SPREAD"
