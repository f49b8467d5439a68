"""Exception types shared across the package, and the argument rules that raise them.

Every documented rejection raises a subclass of :class:`DomainError`, which
itself subclasses ``ValueError`` so callers that do not care about the fine
distinction can catch the usual thing.  Three rules have their one home here,
each returning the argument as a plain int or float: an integer (valence,
order, count, scan cap) is any ``numbers.Integral`` but ``bool``, numpy
integers included (:func:`_require_int`); a tail index is such an integer or
an integer-valued float, at least p+1 (:func:`_require_index`,
:class:`IndexBelowValenceError`); a radius lies in (0, 1)
(:func:`_require_radius`, :class:`RadiusOutOfRangeError`, a
:class:`ParameterOutOfRangeError`).  The fractional-order and Bernardi rules
live in :mod:`pvalent.operators`, and the order rule, an order in [0, p)
(``_require_order``), in :mod:`pvalent.classes`.  This module imports no numpy.
"""

from __future__ import annotations

from numbers import Integral


class DomainError(ValueError):
    """An input violates a documented precondition."""


class NegativeCoefficientError(DomainError):
    """A tail coefficient is negative (or not a number)."""


class IndexBelowValenceError(DomainError):
    """A tail index is not an integer strictly above the valence p."""


class DuplicateIndexError(DomainError):
    """The same tail index appears twice."""


class OrderExceedsValenceError(DomainError):
    """Derivative order m exceeds p, so the leading term would vanish."""


class ValenceMismatchError(DomainError):
    """Two series with different valences were combined."""


class NonpositiveArgumentError(DomainError):
    """Gamma-function argument outside (0, inf): zero, negative, infinite or nan."""


class ParameterOutOfRangeError(DomainError):
    """A scalar parameter lies outside its admissible interval."""


class RadiusOutOfRangeError(ParameterOutOfRangeError):
    """Circle radius outside (0, 1)."""


class ExponentUnderflowError(ParameterOutOfRangeError):
    """A series' leading exponent p + shift would fall below zero (a fractional derivative of order past it)."""


class DivergentInputError(DomainError):
    """Evaluation point outside the open unit disk for an integral transform,
    or a transformed coefficient beyond double range."""


class DegenerateDenominatorError(DomainError):
    """A convolution-order denominator is zero or negative."""


class PoleOnGridError(DomainError):
    """A sampled circle passes through a zero of the denominator function."""


class SeriesFormatError(ValueError):
    """Series JSON does not match the documented schema (an I/O error, not a domain error)."""


class UncertifiedBoundWarning(UserWarning):
    """A printed bound is being evaluated outside its certified parameter regime."""


def _require_int(name: str, value: object, least: int, error: type = ParameterOutOfRangeError) -> int:
    """value as an int: any Integral but bool, at least least; a plain int takes the first test."""
    if type(value) is int and value >= least:
        return value
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise error(f"{name} must be an integer >= {least}, got {value!r}")


def _require_index(k: object, p: int) -> int:
    """k as an int: an integer or an integer-valued float, at least p+1."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    return _require_int("index", k, p + 1, IndexBelowValenceError)


def _require_radius(r: float) -> float:
    """r as a float, inside (0, 1); nan and inf are outside."""
    if not 0.0 < r < 1.0:
        raise RadiusOutOfRangeError(f"radius must lie in (0, 1), got {r}")
    return float(r)
