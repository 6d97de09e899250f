"""Exception types shared across the package, the input checks of every
public entry, which the CLI shares (each names the argument in its error,
none coerces, and bool and str are not numbers to them; ``real_vector`` is
the rule of every vector), and the memory bound on the arrays a run allocates."""
import os
import sys
from numbers import Integral, Real

import numpy as np


class InfeasibleAngleError(ValueError):
    """Requested contact angles cannot be realized by a unit tangent."""


class DegenerateDirectionError(ValueError):
    """A contact-distribution direction is required but the supplied one is zero."""


class InvalidParamsError(ValueError):
    """Closed-form parameter set violates one of its constraints."""


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
    if type(value) is not float or kind is not Real:  # an exact float skips the ABC checks
        if not isinstance(value, kind) or isinstance(value, bool):
            what = "an integer" if kind is Integral else "a real number"
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        if kind is Integral:
            return int(value)
    if not abs(value) <= sys.float_info.max:  # NaN, infinite, or an integer beyond floats
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


_FLOAT = frozenset((float,))


def real_vector(name: str, values, length=None, batched=False):
    """values (a point, tangent, direction or constant vector) as a float64
    array, else ConfigError naming it.  In this order: every entry is a real
    number (an int or a float, numpy's included; not a bool, str, None,
    container or complex), there are length entries (with batched, on the
    last axis), and each is finite (an integer beyond the float range is
    not).  A float64 array comes back uncopied; every entry keeps its bits.
    Without a length only the entry rule applies, and the entries come back
    as a list of floats (nested as values is), as check_angles sums them."""
    if type(values) is list and _FLOAT.issuperset(map(type, values)):
        if length is None:
            return values
        arr = np.array(values)
    elif type(values) is np.ndarray and values.dtype.kind in "fiu":
        arr = values
    else:  # each entry as given, nothing converted yet
        arr = np.array(values, dtype=object)
        if not all(isinstance(v, Real) and not isinstance(v, bool) for v in arr.flat):
            raise ConfigError(f"{name} entries must be real numbers, got {values!r}")
    if length is not None and (arr.shape[-1:] if batched else arr.shape) != (length,):
        raise ConfigError(f"{name} must have {length} entries, got shape {arr.shape}")
    try:
        arr = arr.astype(float, copy=False)
        finite = length is None or np.isfinite(arr).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {values!r}")
    return arr if length is not None else arr.tolist()


def positive_int(name: str, value):
    """value if it is a positive integer (n, s, record_every), else ValueError."""
    if not ((type(value) is int or isinstance(value, Integral) and not isinstance(value, bool))
            and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def int_at_least(name: str, value, least: int):
    """value if it is an integer of at least least (a seed or a count), else
    ConfigError naming it."""
    if typed_number(name, value, Integral) < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")
    return value


def nonzero_real(name: str, value):
    """value if it is a finite nonzero real (the field strength q), else ValueError."""
    if not ((type(value) is float or isinstance(value, Real) and not isinstance(value, bool))
            and 0 < abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and nonzero, got {value!r}")
    return value


def positive_real(name: str, value):
    """value if it is a finite positive real (tol, t_end, step), else ValueError."""
    if not ((type(value) is float or isinstance(value, Real) and not isinstance(value, bool))
            and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


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
