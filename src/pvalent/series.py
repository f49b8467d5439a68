"""Truncated p-valent power series with nonnegative tail coefficients.

A series is stored as its valence p >= 1 together with the tail map
``{k: a_k}`` of

    f(z) = z^p - sum_{k=p+1}^{N} a_k z^k,       a_k >= 0,

where an absent index means a zero coefficient and the leading z^p
coefficient is always one and never stored.  Differentiation (integer or,
in :mod:`pvalent.operators`, fractional) leaves this normal form, so its
results live in :class:`FractionalSeries`: same integer index set, a real
exponent offset ``shift`` and an explicit leading coefficient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import (
    DivergentInputError,
    DuplicateIndexError,
    NegativeCoefficientError,
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    SeriesFormatError,
    ValenceMismatchError,
    _require_index,
    _require_int,
)


@dataclass(frozen=True)
class CoefficientSeries:
    """z^p minus a finite tail with nonnegative coefficients.

    Build through :func:`make_series`, which validates; the constructor
    itself trusts its inputs.  Instances are treated as immutable.
    """

    p: int
    coeffs: Mapping[int, float]

    @property
    def truncation_degree(self) -> int:
        """Largest stored index, or p for a bare monomial."""
        return max(self.coeffs, default=self.p)

    def coefficient(self, k: int) -> float:
        return self.coeffs.get(k, 0.0)


@dataclass(frozen=True)
class FractionalSeries:
    """Series with a real exponent offset and an explicit leading coefficient.

    Represents ``leading * z^(p+shift) + sum_k terms[k] * z^(k+shift)`` with
    integer indices k > p and signed tail values (operator images of a
    :class:`CoefficientSeries` keep their tails nonpositive).  Tail exponents
    must stay positive; the leading exponent may reach zero, which happens
    for the p-th derivative.
    """

    p: int
    shift: float
    leading: float
    terms: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_int("valence p", self.p, 1)
        if self.p + self.shift < 0:
            raise ParameterOutOfRangeError(
                f"leading exponent p+shift = {self.p + self.shift} is negative"
            )
        if not math.isfinite(self.leading):
            raise ParameterOutOfRangeError("leading coefficient is not finite")
        for k, c in self.terms.items():
            if type(k) is not int or k <= self.p:
                _require_index(k, self.p)
            if k + self.shift <= 0:
                raise ParameterOutOfRangeError(f"tail exponent {k + self.shift} not positive")
            if not math.isfinite(c):
                raise ParameterOutOfRangeError(f"coefficient at index {k} is not finite")

    @property
    def truncation_degree(self) -> int:
        return max(self.terms, default=self.p)

    def coefficient(self, k: int) -> float:
        if k == self.p:
            return self.leading
        return self.terms.get(k, 0.0)

    def evaluate(self, z: complex) -> complex:
        """Value at z: Horner recursion on the tail, then one multiplication by z^(p+shift).

        Python's complex power is the principal branch ``exp((p+shift) log z)``
        for fractional exponents, so on a circle |z| = r every term has modulus
        ``|coeff| * r^(k+shift)`` whatever the argument of z; for integral
        exponents up to 100 it is an exact repeated product.  At z = 0 the
        value is 0, or the leading coefficient when p+shift = 0.
        """
        z = complex(z)
        acc = 0j
        for k in range(self.truncation_degree, self.p, -1):
            acc = acc * z + self.terms.get(k, 0.0)
        return z ** (self.p + self.shift) * (self.leading + acc * z)


def make_series(p: int, coeffs: Iterable[tuple[int, float]] = ()) -> CoefficientSeries:
    """Validate and build a series from (index, coefficient) pairs.

    Args:
        p: valence, a positive integer (numpy integers too; stored as int).
        coeffs: pairs (k, a_k) with integer k >= p+1, an integer-valued float
            counting as its int, and finite a_k >= 0.
            Explicit zeros are kept so serialization round-trips exactly.

    Raises:
        ParameterOutOfRangeError: bad valence or non-finite coefficient.
        IndexBelowValenceError, DuplicateIndexError, NegativeCoefficientError.
    """
    p = _require_int("valence p", p, 1)
    tail: dict[int, float] = {}
    for k, a in coeffs:
        if type(k) is not int or k <= p:
            k = _require_index(k, p)
        if k in tail:
            raise DuplicateIndexError(f"index {k} appears more than once")
        a = float(a)
        if not math.isfinite(a):
            raise ParameterOutOfRangeError(f"coefficient at index {k} is not finite")
        if a < 0.0:
            raise NegativeCoefficientError(f"coefficient at index {k} is negative: {a}")
        tail[k] = a
    return CoefficientSeries(p=p, coeffs=tail)


def _as_fractional(f: CoefficientSeries | FractionalSeries) -> FractionalSeries:
    """f itself, or z^p - sum a_k z^k as leading 1.0, shift 0.0 and tail values -a_k."""
    if isinstance(f, FractionalSeries):
        return f
    terms = {k: -a for k, a in f.coeffs.items()}
    return FractionalSeries(p=f.p, shift=0.0, leading=1.0, terms=terms)


def _diagonal(g: FractionalSeries, image: Callable[[float, float], float], ds: float) -> FractionalSeries:
    """Image of g under c z^s -> image(s, c) z^(s+ds), s running over the exponents p+shift and k+shift.

    Every diagonal operator whose image leaves the normal form is this map
    with its own multiplier, applied to c by ``image``, and exponent step.
    """
    return FractionalSeries(
        p=g.p,
        shift=g.shift + ds,
        leading=image(g.p + g.shift, g.leading),
        terms={k: image(k + g.shift, c) for k, c in g.terms.items()},
    )


def evaluate(f: CoefficientSeries, z: complex) -> complex:
    """f(z) through :meth:`FractionalSeries.evaluate`, the one Horner evaluation."""
    return _as_fractional(f).evaluate(z)


def derivative_m(f: CoefficientSeries | FractionalSeries, m: int) -> FractionalSeries:
    """m-th derivative, m <= p + shift, as a generalized series.

    The result keeps the original index set with shift lowered by m: each
    term at exponent s is multiplied by s(s-1)...(s-m+1).  A FractionalSeries
    argument is accepted when its shift is an integer (repeated
    differentiation).
    """
    m = _require_int("derivative order", m, 0)
    g = _as_fractional(f)
    if not float(g.shift).is_integer():
        raise ParameterOutOfRangeError("integer derivative needs integer exponents")
    if m > g.p + g.shift:
        raise OrderExceedsValenceError(f"order {m} exceeds leading exponent {g.p + g.shift}")
    return _diagonal(g, lambda s, c: _falling(int(s), m, c), -m)


def _falling(s: int, m: int, c: float = 1.0) -> float:
    """c s(s-1)...(s-m+1), the order-m derivative multiplier on z^s applied to c: float(s!/(s-m)!) c,
    or past the range of that factorial the exact product rounded once, which raises past double range."""
    n = math.perm(s, m)
    try:
        return float(n) * c
    except OverflowError:
        num, den = c.as_integer_ratio()
        try:
            return c and n * num / den  # the int division rounds once; 0.0 and -0.0 stay as they are
        except OverflowError:
            raise DivergentInputError(f"order-{m} derivative of z^{s} times {c!r} exceeds double range") from None


def hadamard_product(f: CoefficientSeries, g: CoefficientSeries) -> CoefficientSeries:
    """Coefficientwise product; tails multiply where both series store an index."""
    if f.p != g.p:
        raise ValenceMismatchError(f"valences differ: {f.p} != {g.p}")
    shared = set(f.coeffs) & set(g.coeffs)
    return CoefficientSeries(p=f.p, coeffs={k: f.coeffs[k] * g.coeffs[k] for k in shared})


def to_json(f: CoefficientSeries) -> str:
    """Serialize as {"p": int, "coeffs": [[k, a_k], ...]} with indices sorted."""
    payload = {"p": f.p, "coeffs": [[k, f.coeffs[k]] for k in sorted(f.coeffs)]}
    return json.dumps(payload)


def from_json(text: str | bytes) -> CoefficientSeries:
    """Parse the schema written by :func:`to_json`.

    Malformed JSON raises ``json.JSONDecodeError``; well-formed JSON of the
    wrong shape raises :class:`SeriesFormatError`.  Domain violations inside
    a structurally valid document propagate from :func:`make_series`.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "p" not in doc:
        raise SeriesFormatError('series JSON must be an object with a "p" field')
    p = doc["p"]
    pairs = doc.get("coeffs", [])
    if not isinstance(pairs, list) or any(
        not isinstance(item, (list, tuple)) or len(item) != 2 for item in pairs
    ):
        raise SeriesFormatError('"coeffs" must be a list of [index, coefficient] pairs')
    if type(p) is not int:  # json gives int, float, bool or a non-number
        raise SeriesFormatError('"p" must be an integer')
    if any(type(a) not in (int, float) for _, a in pairs):  # a bool, string, null, list or object is no number
        raise SeriesFormatError("every coefficient must be a JSON number")
    return make_series(p, [(k, a) for k, a in pairs])
