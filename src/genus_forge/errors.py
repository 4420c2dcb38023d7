"""Exception types shared across the package, and the base of its
immutable records.

Everything derives from GenusForgeError so callers can catch one base
class.  The Data and Numerical branches map onto the CLI exit codes 2
and 3.  A bad command line (exit code 1) is the CLI's own `UsageError`,
which is not a GenusForgeError.  Any other exception reaching the CLI is a
defect: it exits with code 4 and one `internal error: ...` line on stderr.

The entry points check a count with `whole`, a binary64 real with `real` and a
named choice with `choice`; each returns a value or raises DomainError, a ValueError.
"""

from __future__ import annotations

import math


class GenusForgeError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GenusForgeError):
    """Invalid or inconsistent input data (CLI exit code 2)."""


class NumericalError(GenusForgeError):
    """A numerical routine could not meet its contract (CLI exit code 3)."""


# -- truncated series ring ---------------------------------------------------

class TruncMismatch(DataError):
    """Binary operation on series with different truncation orders."""


class DivergentEvaluation(NumericalError):
    """Numeric evaluation of a q-series at |q| >= 1."""


# -- characteristic class calculus -------------------------------------------

class InsufficientData(DataError):
    """A manifold lacks the characteristic numbers the operation needs."""


class DimensionError(DataError):
    """Genus or index requested in a dimension where it is undefined."""


class InconsistentData(DataError):
    """Stored characteristic data contradicts a computed value."""


class UnknownManifold(DataError):
    """Name not found among builtins or catalog entries."""


# -- modular tools ------------------------------------------------------------

class FitError(DataError):
    """Eisenstein fit has no monomial, or no coefficient left to check it against."""


class ConvergenceRisk(NumericalError):
    """Numeric modular check requested at a point of slow convergence."""


# -- analytic bounds ----------------------------------------------------------

class RootNotBracketed(NumericalError):
    """Root finder could not bracket a sign change."""


class ExponentDomainError(DataError):
    """Bound exponents leave their domain (mu*(p-1) - p <= 0)."""


class DomainError(DataError, ValueError):
    """Scalar argument of the wrong kind or outside the documented domain."""


class FloatRangeError(NumericalError):
    """A binary64 intermediate leaves the range or resolution its formula
    needs: a power, product or quotient overflows, or mu - 1 rounds to zero."""


# -- covering lab --------------------------------------------------------------

class TooLarge(DataError):
    """Requested model or series exceeds a documented size cap (the BFS
    vertex cap, the tower depth and rank caps, the q-series truncation cap
    and its power cap of MAX_TRUNC, the real-dimension cap of manifold data)."""


# -- catalog -------------------------------------------------------------------

class CatalogError(DataError):
    """Catalog file fails schema or consistency validation."""


class NonIntegralIndexWarning(UserWarning):
    """Twisted index of a spin manifold came out non-integral."""


def shown(value) -> str:
    """repr(value) for an error message, or the size of an int past str()'s
    4,300-digit limit, whose repr raises ValueError (also inside a tuple)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(shown, value))})"
        return size_of(value)


def size_of(value: int) -> str:
    return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def is_int(value) -> bool:  # bool is an int subclass, but True is no count
    return isinstance(value, int) and not isinstance(value, bool)


def whole(name: str, value, low: int = 1, high: int | None = None) -> int:
    """value, if it is an int, not a bool, in [low, high]; else DomainError."""
    # an exact int skips is_int, which a subclass such as bool or IntEnum needs
    if (type(value) is int or is_int(value)) and low <= value and (high is None or value <= high):
        return value
    need = (f"an integer in [{low}, {high}]" if high is not None
            else "a positive integer" if low == 1 else f"an integer >= {low}")
    raise DomainError(f"{name} must be {need}, got {shown(value)}")


def real(name: str, value, low: float | None = None) -> float:
    """float(value), if value is an int or float, not a bool, finite in binary64, and
    positive (low None) or >= low (low = -inf: any finite real); else DomainError."""
    if type(value) is float:  # an exact float needs no conversion
        x = value
    else:
        try:
            x = float(value) if is_int(value) or isinstance(value, float) else math.nan
        except OverflowError:
            raise DomainError(f"{name} must be finite in binary64, got {size_of(value)}") from None
    if math.isfinite(x) and (x > 0 if low is None else x >= low):
        return x
    need = "positive real" if low is None else "real" if low == -math.inf else f"real >= {low}"
    raise DomainError(f"{name} must be a finite {need}, got {shown(value)}")


def choice(name: str, value, names):
    """names[value] for a key of the mapping `names`, else DomainError listing the keys."""
    try:
        return names[value]  # a str-mixin enum member hashes and compares as its value
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise DomainError(f"{name} must be one of {', '.join(map(repr, names))}, "
                          f"got {shown(value)}") from None


# -- records -------------------------------------------------------------------

class Record:
    """Immutable record, in place of a frozen dataclass, whose module imports
    `inspect`: the costliest import a cold command would otherwise pay.

    Its fields are what ``__init__`` stores with ``_set``, in that order;
    assigning or deleting an attribute then raises AttributeError.  Records
    of the same class compare field by field and hash if every field does;
    the repr names every field.
    """

    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({body})"
