"""Exception types shared across the package.

Everything that indicates bad user input or geometrically impossible data
derives from LaneError (a ValueError), so callers can catch one base class.
Numeric failures of iterative procedures derive from NumericError instead:
they mean the computation was well posed but did not succeed.
`require_finite` is the finiteness check every config shares; `require_within`
checks fields against documented closed ranges, which also excludes non-finite
values.
"""

import numpy as np


class LaneError(ValueError):
    """Base class for validation and geometry errors."""


class DegenerateProjectionError(LaneError):
    """3D point at or above the camera height; flat-ground projection undefined."""


class BehindCameraError(LaneError):
    """Point lies behind the camera's image plane."""


class InvalidLaneError(LaneError):
    """Polyline violates lane invariants (too short, y not increasing, non-finite)."""


class DegenerateSegmentError(LaneError):
    """Zero-length segment where a direction is required."""


class InsufficientPointsError(LaneError):
    """Too few points or lanes for the requested estimate."""


class InvalidSpecError(LaneError):
    """Scene or grid specification is internally inconsistent."""


class InvalidInputError(LaneError):
    """Numeric input outside the documented domain."""


def require_finite(obj, names, error=InvalidInputError) -> None:
    """Every named numeric field of obj that is set must be finite (None means unset)."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not np.isfinite(value).all():
            raise error(f"{name} must be finite, got {value!r}")


def require_within(obj, ranges, error=InvalidInputError) -> None:
    """Every named field of obj that is set lies in its closed range: ranges maps
    a name to (lo, hi), and every element of a tuple field must lie in it (None
    means unset; NaN lies in no range)."""
    for name, (lo, hi) in ranges.items():
        value = getattr(obj, name)
        if value is not None and not all(lo <= v <= hi for v in np.ravel(value)):
            raise error(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")


class NumericError(RuntimeError):
    """Base class for failures of iterative numeric procedures."""


class IllConditionedError(NumericError):
    """Problem too degenerate to solve (e.g. all lane pairs nearly coincident)."""


class DivergedError(NumericError):
    """Iteration diverged; carries the loss trace seen so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
