"""Exception types shared across the package, the typed-number check
behind every value read from a config or trajectory file, and the memory
bound on the arrays a run allocates."""
import os
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
    """A trajectory run produced a nonfinite state.

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


def check_memory(nbytes: int, what: str) -> None:
    """Raise ConfigError when nbytes exceed the host's physical memory, so
    that a run too large to hold stops with a message before it allocates.

    nbytes is an int, exact however large (a size from a config can be
    beyond the float range).
    """
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > phys:
        size = f"{nbytes:.3g}" if nbytes <= sys.float_info.max else "over 1.8e308"
        raise ConfigError(
            f"{what} need {size} bytes, more than the {phys:.3g} bytes of physical memory"
        )
