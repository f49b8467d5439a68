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

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    DuplicateIndexError,
    IndexBelowValenceError,
    NegativeCoefficientError,
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    SeriesFormatError,
    ValenceMismatchError,
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
        if self.p < 1:
            raise ParameterOutOfRangeError(f"valence must be positive, got {self.p}")
        if self.p + self.shift < 0:
            raise ParameterOutOfRangeError(
                f"leading exponent p+shift = {self.p + self.shift} is negative"
            )
        for k, c in self.terms.items():
            if k <= self.p:
                raise IndexBelowValenceError(f"tail index {k} not above p = {self.p}")
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
        """Value at z using the principal branch for fractional powers.

        ``z^(k+shift)`` is read as ``exp((k+shift) log z)`` with the
        principal logarithm, so on a circle |z| = r every term has modulus
        ``|coeff| * r^(k+shift)`` regardless of the argument of z.
        """
        z = complex(z)
        if z == 0:
            return complex(self.leading) if self.p + self.shift == 0 else 0j
        acc = 0j
        for k in range(self.truncation_degree, self.p, -1):
            acc = acc * z + self.terms.get(k, 0.0)
        poly = self.leading + acc * z
        return cmath.exp((self.p + self.shift) * cmath.log(z)) * poly


def make_series(p: int, coeffs: Iterable[tuple[int, float]] = ()) -> CoefficientSeries:
    """Validate and build a series from (index, coefficient) pairs.

    Args:
        p: valence, a positive integer.
        coeffs: pairs (k, a_k) with integer k >= p+1 and finite a_k >= 0.
            Explicit zeros are kept so serialization round-trips exactly.

    Raises:
        ParameterOutOfRangeError: bad valence or non-finite coefficient.
        IndexBelowValenceError, DuplicateIndexError, NegativeCoefficientError.
    """
    if isinstance(p, bool) or not isinstance(p, int):
        raise ParameterOutOfRangeError(f"valence p must be an integer, got {p!r}")
    if p < 1:
        raise ParameterOutOfRangeError(f"valence p must be >= 1, got {p}")
    tail: dict[int, float] = {}
    for k, a in coeffs:
        if isinstance(k, float):
            if not k.is_integer():
                raise IndexBelowValenceError(f"index {k!r} is not an integer")
            k = int(k)
        if not isinstance(k, int):
            raise IndexBelowValenceError(f"index {k!r} is not an integer")
        if k < p + 1:
            raise IndexBelowValenceError(f"index {k} must be at least p+1 = {p + 1}")
        if k in tail:
            raise DuplicateIndexError(f"index {k} appears more than once")
        a = float(a)
        if not math.isfinite(a):
            raise ParameterOutOfRangeError(f"coefficient at index {k} is not finite")
        if a < 0.0:
            raise NegativeCoefficientError(f"coefficient at index {k} is negative: {a}")
        tail[k] = a
    return CoefficientSeries(p=p, coeffs=tail)


def evaluate(f: CoefficientSeries, z: complex) -> complex:
    """f(z) by Horner recursion in descending index order.

    The tail is accumulated as a polynomial in z before the single
    multiplication by z^p, which keeps the summation order fixed and
    stable for |z| <= 1.
    """
    z = complex(z)
    acc = 0j
    for k in range(f.truncation_degree, f.p, -1):
        acc = acc * z - f.coeffs.get(k, 0.0)
    return z**f.p * (1.0 + acc * z)


def _falling(k: int, m: int) -> float:
    # k (k-1) ... (k-m+1), exact for the integer indices used here
    return float(math.perm(k, m))


def derivative_m(f: CoefficientSeries | FractionalSeries, m: int) -> FractionalSeries:
    """m-th derivative, m <= p, as a generalized series.

    The result keeps the original index set with shift lowered by m:
    leading coefficient p(p-1)...(p-m+1) at exponent p-m and tail values
    -k(k-1)...(k-m+1) a_k at exponent k-m.  A FractionalSeries argument is
    accepted when its shift is an integer (repeated differentiation).
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ParameterOutOfRangeError(f"derivative order must be an integer >= 0, got {m!r}")
    if isinstance(f, CoefficientSeries):
        if m > f.p:
            raise OrderExceedsValenceError(f"order {m} exceeds valence {f.p}")
        lead = _falling(f.p, m)
        terms = {k: -_falling(k, m) * a for k, a in f.coeffs.items()}
        return FractionalSeries(p=f.p, shift=float(-m), leading=lead, terms=terms)
    if not float(f.shift).is_integer():
        raise ParameterOutOfRangeError("integer derivative needs integer exponents")
    if m > f.p + f.shift:
        raise OrderExceedsValenceError(
            f"order {m} exceeds leading exponent {f.p + f.shift}"
        )
    lead = _falling(f.p + int(f.shift), m) * f.leading
    terms = {k: _falling(k + int(f.shift), m) * c for k, c in f.terms.items()}
    return FractionalSeries(p=f.p, shift=f.shift - m, leading=lead, terms=terms)


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
    if isinstance(p, bool) or not isinstance(p, int):
        raise SeriesFormatError('"p" must be an integer')
    return make_series(p, [(k, a) for k, a in pairs])
