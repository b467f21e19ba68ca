"""Semantic exception hierarchy.

Library code never raises bare ValueError for contract violations; every
failure mode a caller may want to catch has its own class, whose `code`
the CLI prints in its `ERROR <code>: message` line.
"""

from __future__ import annotations


class EntropicBespokeError(Exception):
    """Base class for all library errors."""
    code = "ERROR"


def _with_facts(text: str, facts: list[str]) -> str:
    """The message followed by the known facts in parentheses."""
    return f"{text} ({', '.join(facts)})" if facts else text


class ConfigurationError(EntropicBespokeError, ValueError):
    """Inputs violate a contract: bad parameter domain, missing file,
    mismatched grids or loss units."""
    code = "CONFIG"


class InvalidLoadingError(ConfigurationError):
    """Factor loadings leave no room for the idiosyncratic term."""

    def __init__(self, message: str, name_id: str | None = None):
        super().__init__(message)
        self.name_id = name_id


class CalibrationError(EntropicBespokeError):
    """Dual optimization failed to converge.  The text ends with the
    gradient inf-norm and the iteration count, when known."""
    code = "CALIBRATION"

    def __init__(self, message: str, gradient_norm: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.gradient_norm = gradient_norm
        self.iterations = iterations

    def __str__(self) -> str:
        facts = []
        if self.gradient_norm is not None:
            facts.append(f"grad inf-norm {self.gradient_norm:.3e}")
        if self.iterations is not None:
            facts.append(f"iterations {self.iterations}")
        return _with_facts(super().__str__(), facts)


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


class MappingConvergenceError(EntropicBespokeError):
    """Probability-matching strike search found no fixed point.  The text
    ends with the last |K_target - K_i| and the iteration count, when
    known."""
    code = "MAPPING"

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def __str__(self) -> str:
        facts = []
        if self.residual is not None:
            facts.append(f"|K_target - K_i| {self.residual:.3e}")
        if self.iterations is not None:
            facts.append(f"iterations {self.iterations}")
        return _with_facts(super().__str__(), facts)


class UndefinedSpreadError(EntropicBespokeError):
    """Par spread undefined because the risky annuity is zero."""
    code = "SPREAD"
