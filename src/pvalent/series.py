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
from typing import Callable, Iterable, Mapping

from .errors import (
    DivergentInputError,
    DuplicateIndexError,
    ExponentUnderflowError,
    NegativeCoefficientError,
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    SeriesFormatError,
    ValenceMismatchError,
    _Frozen,
    _require_index,
    _require_int,
    _setattr,
)


class CoefficientSeries(_Frozen):
    """z^p minus a finite tail with nonnegative coefficients; a series that exists is valid.

    The constructor is the one place for the rule: an integer valence p >= 1 (numpy integers too), integer
    indices k >= p+1 (an integer-valued float counting as its int) and finite a_k >= 0.  It raises
    ParameterOutOfRangeError for a bad valence or a value that is not finite, IndexBelowValenceError naming
    p+1, and NegativeCoefficientError.  Numpy scalars and float indices are stored as plain ints and floats,
    an all-plain ``coeffs`` as given.  Two derived slots hold what every reader of the indices takes: ``ks``,
    the indices sorted, and ``walk``, those through the last nonzero a_k (:func:`_store_tail`).  Instances are
    treated as immutable.
    """

    _fields = ("p", "coeffs")
    __slots__ = _fields + ("ks", "walk")

    def __init__(self, p: int, coeffs: Mapping[int, float]) -> None:
        _setattr(self, "p", _require_int("valence p", p, 1))
        _store_tail(self, "coeffs", coeffs, nonnegative=True)

    def coefficient(self, k: int) -> float:
        return self.coeffs.get(k, 0.0)


class FractionalSeries(_Frozen):
    """Series with a real exponent offset and an explicit leading coefficient.

    Represents ``leading * z^(p+shift) + sum_k terms[k] * z^(k+shift)`` with
    integer indices k > p and finite signed tail values (operator images of a
    :class:`CoefficientSeries` keep their tails nonpositive).  The shift is
    finite and the leading exponent p+shift may reach zero, which happens for
    the p-th derivative, but not fall below it (:class:`ExponentUnderflowError`);
    every tail exponent is then at least 1.  The tail is validated and stored
    as a :class:`CoefficientSeries` tail is, without the sign rule, with the
    same derived slots ``ks`` and ``walk``.
    """

    _fields = ("p", "shift", "leading", "terms")
    __slots__ = _fields + ("ks", "walk")

    def __init__(self, p: int, shift: float, leading: float, terms: Mapping[int, float] | None = None) -> None:
        p = _require_int("valence p", p, 1)
        if not math.isfinite(shift):
            raise ParameterOutOfRangeError(f"exponent shift must be finite, got {shift}")
        if p + shift < 0:
            raise ExponentUnderflowError(f"leading exponent p+shift = {p + shift} is negative")
        if not math.isfinite(leading):
            raise ParameterOutOfRangeError("leading coefficient is not finite")
        _setattr(self, "p", p)
        _setattr(self, "shift", float(shift))
        _setattr(self, "leading", float(leading))
        _store_tail(self, "terms", {} if terms is None else terms, nonnegative=False)

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
        value is 0, or the leading coefficient when p+shift = 0.  The recursion
        starts at the last nonzero tail value (``walk``), so a trailing
        0.0 or -0.0 costs no step.
        """
        z = complex(z)
        acc, walk = 0j, self.walk
        for k in range(walk[-1] if walk else self.p, self.p, -1):
            acc = acc * z + self.terms.get(k, 0.0)
        return z ** (self.p + self.shift) * (self.leading + acc * z)


def _store_tail(series: CoefficientSeries | FractionalSeries, name: str, tail: Mapping, nonnegative: bool) -> None:
    """Validate tail against series.p and store it as the field name, with the derived slots ks and walk.

    Each index is an integer above p, each value finite, and nonnegative where asked, refused in the tail's
    order; a numpy scalar would leak its arithmetic and its repr, and a float index would stay a float key, so
    a tail that is not all int keys and float values is stored converted.  ks is the indices sorted, and walk
    those through the last nonzero value, which is ks itself when that value is nonzero.  A zero, 0.0 or -0.0,
    adds nothing to a criterion sum, a sample or a Horner sum, so no reader forms a w_k, power of z, degree or
    Horner step past walk[-1]; a reader that reports per index reads a trailing zero off the tail.
    """
    p, plain = series.p, True
    for k, c in tail.items():
        if type(k) is not int or k <= p or type(c) is not float:
            k, plain = _require_index(k, p), False
        if not math.isfinite(c):  # a string or other non-number raises TypeError here
            raise ParameterOutOfRangeError(f"coefficient at index {k} is not finite")
        if nonnegative and c < 0.0:
            raise NegativeCoefficientError(f"coefficient at index {k} is negative: {float(c)}")
    if not plain:
        tail = {_require_index(k, p): float(c) for k, c in tail.items()}
    ks, n = sorted(tail), len(tail)
    while n and tail[ks[n - 1]] == 0.0:
        n -= 1
    _setattr(series, name, tail)
    _setattr(series, "ks", ks)
    _setattr(series, "walk", ks if n == len(ks) else ks[:n])


def make_series(p: int, coeffs: Iterable[tuple[int, float]] = ()) -> CoefficientSeries:
    """Build a series from (index, coefficient) pairs, refusing an index given twice.

    Args:
        p: valence, a positive integer (numpy integers too; stored as int).
        coeffs: pairs (k, a_k) with integer k >= p+1, an integer-valued float
            counting as its int, and finite a_k >= 0.
            Explicit zeros are kept so serialization round-trips exactly.

    Raises:
        DuplicateIndexError, before anything :class:`CoefficientSeries` refuses.
    """
    tail: dict = {}
    for k, a in coeffs:
        if k in tail:  # 2 and 2.0 are one key
            raise DuplicateIndexError(f"index {k} appears more than once")
        tail[k] = a
    return CoefficientSeries(p, tail)


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
    """Coefficientwise product; tails multiply where both series store an index, in f's sorted order."""
    if f.p != g.p:
        raise ValenceMismatchError(f"valences differ: {f.p} != {g.p}")
    a, b = f.coeffs, g.coeffs
    return CoefficientSeries(p=f.p, coeffs={k: a[k] * b[k] for k in f.ks if k in b})


def to_json(f: CoefficientSeries) -> str:
    """Serialize as {"p": int, "coeffs": [[k, a_k], ...]} with indices sorted, which :func:`from_json` reads back."""
    payload = {"p": f.p, "coeffs": [[k, f.coeffs[k]] for k in f.ks]}
    return json.dumps(payload)


def from_json(text: str | bytes) -> CoefficientSeries:
    """Parse the schema written by :func:`to_json`.

    Malformed JSON raises ``json.JSONDecodeError``; well-formed JSON of the
    wrong shape raises :class:`SeriesFormatError`.  Domain violations inside
    a structurally valid document propagate from :class:`CoefficientSeries`.
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
    if any(type(k) not in (int, float) for k, _ in pairs):  # 2.0 passes; the constructor rules on 2.5 or k <= p
        raise SeriesFormatError("every index must be a JSON number")
    if any(type(a) not in (int, float) for _, a in pairs):  # a bool, string, null, list or object is no number
        raise SeriesFormatError("every coefficient must be a JSON number")
    return make_series(p, pairs)
