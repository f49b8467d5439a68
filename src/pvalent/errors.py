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

It is also the home of :class:`_Frozen`, the base of the package's twelve value and report types: slotted,
immutable classes compared, hashed and printed by their fields, which cost a cold import nothing beyond this
module.
"""

from __future__ import annotations

from numbers import Integral
from operator import attrgetter


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


_setattr = object.__setattr__  # how an __init__ of a _Frozen subclass stores a field


class _Frozen:
    """Base of the value and report types: the fields named in ``_fields``, in order, make the instance.

    A subclass lists its fields in ``_fields`` and in ``__slots__`` (which may add derived slots, formed from
    the fields), and writes its own ``__init__``, which validates and stores each value with ``_setattr``.
    Equality and hashing read the fields as one tuple, and ``repr`` prints them as ``name=value``; derived slots
    take no part.  ``replace`` (also ``copy.replace`` from Python 3.13) builds a new instance through ``__init__``,
    so validation runs again; ``copy``, ``deepcopy`` and ``pickle`` rebuild through it too.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)
            cls.__match_args__ = cls._fields

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def replace(self, **changes: object) -> _Frozen:
        """A copy with these fields changed, through ``__init__``; a derived slot raises ValueError."""
        kwargs = {name: getattr(self, name) for name in self._fields}
        for name in changes:
            if name not in kwargs and name in self.__slots__:
                raise ValueError(f"{name} is derived from the fields; it cannot be replaced")
        kwargs.update(changes)  # an unknown name reaches __init__, which raises TypeError
        return self.__class__(**kwargs)

    __replace__ = replace  # copy.replace, from Python 3.13

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
