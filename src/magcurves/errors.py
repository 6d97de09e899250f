"""Exception types shared across the package, and the typed-number check
behind every value read from a config or trajectory file."""
import sys
from numbers import Integral, Real


class InfeasibleAngleError(ValueError):
    """Requested contact angles cannot be realized by a unit tangent."""


class DegenerateDirectionError(ValueError):
    """A contact-distribution direction is required but the supplied one is zero."""


class InvalidParamsError(ValueError):
    """Closed-form parameter set violates one of its constraints."""


class WrongCaseError(InvalidParamsError):
    """Parameter set belongs to the other closed-form family."""


class InvalidGridError(ValueError):
    """Trajectory time grid is not uniform."""


class InsufficientDataError(ValueError):
    """Too few trajectory samples for the requested computation."""


class InconsistentCaseError(ValueError):
    """Inverse-strength request mixes incompatible case and curvature data."""


class DivergenceError(RuntimeError):
    """Integration produced a nonfinite state.

    Carries the last time at which the state was still finite.
    """

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


class ConfigError(ValueError):
    """A config or trajectory-file value has the wrong type or is missing."""


def typed_number(key: str, value, kind=Real):
    """value as an int (kind Integral) or a finite float (kind Real).

    bool, str, None and containers in the place of a number raise
    ConfigError naming the key, so nothing is silently coerced.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is Integral else "a real number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if kind is Integral:
        return int(value)
    if not abs(value) <= sys.float_info.max:  # NaN, infinite, or an integer beyond floats
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)
