"""Exception types shared across the package.

Every documented rejection raises a subclass of :class:`DomainError`, which
itself subclasses ``ValueError`` so callers that do not care about the fine
distinction can catch the usual thing.
"""

from __future__ import annotations


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
    """Gamma-function argument outside (0, inf)."""


class ParameterOutOfRangeError(DomainError):
    """A scalar parameter lies outside its admissible interval."""


class ExponentUnderflowError(DomainError):
    """Fractional differentiation would push an exponent to zero or below."""


class QuadratureUnavailableError(DomainError):
    """delta = 0 has no integrable Laguerre weight; only the closed form exists."""


class DivergentInputError(DomainError):
    """Evaluation point outside the open unit disk for an integral transform,
    or a transformed coefficient beyond double range."""


class DegenerateDenominatorError(DomainError):
    """A convolution-order denominator is zero or negative."""


class PoleOnGridError(DomainError):
    """A sampled circle passes through a zero of the denominator function."""


class RadiusOutOfRangeError(DomainError):
    """Circle radius outside (0, 1)."""


class SeriesFormatError(ValueError):
    """Series JSON does not match the documented schema (an I/O error, not a domain error)."""


class UncertifiedBoundWarning(UserWarning):
    """A printed bound is being evaluated outside its certified parameter regime."""
