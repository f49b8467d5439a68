"""Diagonal coefficient operators on p-valent series.

All four transforms act diagonally on monomials, so each is determined by
its multiplier sequence:

* Rafid-type smoothing operator (parameters 0 <= mu < 1, 0 <= delta <= 1):
    z^k  ->  (1-mu)^(k-p) Gamma(k+delta)/Gamma(p+delta) z^k,
  formed only by :func:`rafid_multipliers` as one running product (a lone k costs k-p steps).
  It arises from the integral kernel t^(delta-1) exp(-t/(1-mu)): with H = f/z^p and U ~ Gamma(p+delta, 1) it is
  z^p E[H(z (1-mu) U)], which the quadrature path integrates at every delta as an independent cross-check.
* Bernardi integral (c > -p):  z^k -> (c+p)/(c+k) z^k.
* Riemann-Liouville fractional integral of order eta > 0:
    z^s -> Gamma(s+1)/Gamma(s+1+eta) z^(s+eta).
* Riemann-Liouville fractional derivative of order 0 <= eta < 1:
    z^s -> Gamma(s+1)/Gamma(s+1-eta) z^(s-eta).

The first two preserve the negative-coefficient normal form.  Every image
that leaves it (the fractional pair, and Bernardi on a generalized series)
is built by one exponent map, ``series._diagonal``, from its multiplier
and exponent step, and is read through the one Horner evaluation,
:meth:`~pvalent.series.FractionalSeries.evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    DivergentInputError,
    ExponentUnderflowError,
    NonpositiveArgumentError,
    ParameterOutOfRangeError,
    _require_index,
    _require_int,
)
from .series import CoefficientSeries, FractionalSeries, _as_fractional, _diagonal

if TYPE_CHECKING:
    import numpy as np

_EXACT_GAP = 64  # integer argument gaps up to this use an exact rising product
_QUADRATURE_NODES = 64  # largest Gauss-Laguerre rule of rafid_quadrature: exact below degree p + 128


@dataclass(frozen=True)
class RafidParams:
    """Smoothing operator parameters: 0 <= mu < 1 and 0 <= delta <= 1, stored as floats."""

    mu: float = 0.0
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu < 1.0):
            raise ParameterOutOfRangeError(f"mu must lie in [0, 1), got {self.mu}")
        if not (0.0 <= self.delta <= 1.0):
            raise ParameterOutOfRangeError(f"delta must lie in [0, 1], got {self.delta}")
        for name in ("mu", "delta"):  # after the checks, which refuse a string; a numpy scalar would leak its arithmetic
            object.__setattr__(self, name, float(getattr(self, name)))


def gamma_ratio(x: float, y: float) -> float:
    """Gamma(x)/Gamma(y) for x, y > 0 as one double, without forming either Gamma value.

    Integer gaps |x - y| <= 64 are evaluated as an exact rising product
    (so e.g. gamma_ratio(k+1, k+2) is exactly 1/(k+1)); other gaps go
    through log-gamma differences.  Ratios beyond double range come back
    as inf or 0.0 rather than raising.  The fractional multipliers use it;
    the smoothing multiplier does not (see :func:`rafid_multipliers`).
    """
    x = float(x)
    y = float(y)
    if not (x > 0.0) or not (y > 0.0):
        raise NonpositiveArgumentError(f"gamma_ratio needs positive arguments, got {x}, {y}")
    gap = x - y
    if gap.is_integer() and abs(gap) <= _EXACT_GAP:
        n = int(gap)
        prod = 1.0
        if n >= 0:
            for j in range(n):
                prod *= y + j
            return prod
        for j in range(-n):
            prod *= x + j
        return 1.0 / prod
    try:
        return math.exp(math.lgamma(x) - math.lgamma(y))
    except OverflowError:
        return math.inf


def pow2_product(m: float, e: int, a: float = 1.0) -> float:
    """m 2^e a, rounded once.

    Inside double range this is the linear product bit for bit; a zero factor
    gives itself, sign included, also times inf; only true values beyond the range give inf or a subnormal.
    """
    ma, ea = math.frexp(a)
    try:
        return math.ldexp(m * ma, e + ea) if m and a else a if m else m  # the zero factor: inf 0 would read nan
    except OverflowError:
        return math.copysign(math.inf, m * ma)


def rafid_multipliers(p: int, rp: RafidParams, ks: Iterable[int]) -> Iterator[tuple[float, int]]:
    """(m, e) with w_k = m 2^e and 1/2 <= m < 1, for each index k of the nondecreasing ks.

    One running product, w_p = 1 and w_(k+1) = w_k (1-mu) (k+delta), renormalized exactly by
    frexp when it leaves [2^-500, 2^500]: no w_k overflows or underflows, and w_k does not
    depend on the other indices asked for.  Callers scale once with :func:`pow2_product`.
    """
    p = _require_int("valence p", p, 1)
    shrink, delta, k, m, e, frexp = 1.0 - rp.mu, rp.delta, p, 1.0, 0, math.frexp
    for target in ks:
        if target < k:  # k >= p, so an index below p lands here too
            if target < p:
                _require_index(target, p - 1)  # raises
            raise ParameterOutOfRangeError(f"indices must be nondecreasing, got {target} after {k}")
        while k < target:
            m = m * shrink * (k + delta)
            k += 1
            if not (2.0**-500 <= m <= 2.0**500):
                m, shift = frexp(m)
                e += shift
        mantissa, shift = frexp(m)
        yield mantissa, e + shift


def rafid_multiplier(k: int, p: int, rp: RafidParams) -> tuple[float, int]:
    """(m, e) with w_k = m 2^e: the lone-index case of :func:`rafid_multipliers`, k >= p."""
    p = _require_int("valence p", p, 1)
    return next(rafid_multipliers(p, rp, (_require_index(k, p - 1),)))  # w_p = 1 is a weight too


def rafid_weight(k: int, p: int, rp: RafidParams) -> float:
    """w_k as one double: inf or 0.0 only beyond double range."""
    return pow2_product(*rafid_multiplier(k, p, rp))


def apply_rafid(f: CoefficientSeries, rp: RafidParams) -> CoefficientSeries:
    """Image of f under the smoothing operator; each w_k a_k is rounded once, zeros stay 0.0."""
    ks = sorted(f.coeffs)
    weights = zip(ks, rafid_multipliers(f.p, rp, ks))
    return CoefficientSeries(f.p, {k: pow2_product(m, e, f.coeffs[k]) for k, (m, e) in weights})


def _laguerre_rule(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights summing to 1 of the n-point Gauss rule for the weight u^a e^-u on (0, inf), a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix J with
    diagonal 2i+a+1 and off-diagonal s_i = sqrt(i(i+a)).  J = B^T B for the
    upper-bidiagonal B with diagonal sqrt(i+a+1) and superdiagonal sqrt(i+1),
    and the nodes are taken as the squared singular values of B: these hold
    every node to a few ulp, where an eigensolver on J loses digits in the
    small nodes.  Each weight is the Christoffel number 1/sum_i q_i(x)^2 over
    the polynomials q_0 = 1, ..., q_{n-1} orthonormal for the weight over
    Gamma(a+1), which keeps its relative accuracy where the first eigenvector
    components do not.  Writing q_i = h_i t_i turns the recurrence s_i q_i =
    (x-2i-a+1) q_{i-1} - s_{i-1} q_{i-2} into t_i = e_i (x-2i-a+1) t_{i-1} -
    t_{i-2}, two in-place updates per degree.
    """
    import numpy as np

    i = np.arange(n)
    bidiagonal = np.diag(np.sqrt(i + a + 1.0))
    bidiagonal.flat[1 :: n + 1] = np.sqrt(i[1:])
    x = np.sort(np.linalg.svd(bidiagonal, compute_uv=False) ** 2)
    s = np.sqrt(i * (i + a)).tolist()
    h = [1.0, 1.0]
    for k in range(2, n):
        h.append(h[k - 2] * s[k - 1] / s[k])
    e = [h[k - 1] / (s[k] * h[k]) for k in range(1, n)]
    t = np.empty((n, n))
    np.multiply.outer(e, x, out=t[1:])
    t[1:] -= np.multiply(e, 2.0 * i[1:] + a - 1.0)[:, None]
    rows = list(t)
    rows[0][:] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n):
            rows[k] *= rows[k - 1]
            rows[k] -= rows[k - 2]
        total = np.square(h) @ np.square(t)
    # a sum past double range means a weight below 1/DBL_MAX, about 5.6e-309
    return x, np.where(np.isfinite(total), 1.0 / total, 0.0)


def rafid_quadrature(f: CoefficientSeries, rp: RafidParams, z: complex) -> complex:
    """Smoothing-operator value at z through generalized Gauss-Laguerre nodes.

    With H = f/z^p and U ~ Gamma(p+delta, 1) (u = t/(1-mu) in the kernel) the operator is the expectation

        z^p E[H(z (1-mu) U)] = z^p / Gamma(p+delta) * int_0^inf H(z (1-mu) u) u^(p+delta-1) e^-u du,

    which an n-node rule for the weight u^(p+delta-1) e^-u integrates exactly when D - p < 2n, with no
    special case at delta = 0.  D is the highest index with a nonzero coefficient (p if there is none), and
    n is the smallest size with D - p < 2n, kept within 8 and 64.  Only f's support sets n, and the rule
    comes from :func:`_laguerre_rule`, so the check stays independent of the closed-form multipliers; a
    weight below about 1e-308 comes back as 0.0.  A Horner sum past double range raises DivergentInputError.
    """
    z = complex(z)
    if not (abs(z) < 1.0):
        raise DivergentInputError(f"|z| must be < 1 for the transform, got {abs(z)}")
    import numpy as np

    degree = max((k for k, a in f.coeffs.items() if a != 0.0), default=f.p)
    u, w = _laguerre_rule(min(_QUADRATURE_NODES, max(8, (degree - f.p) // 2 + 1)), f.p + rp.delta - 1.0)
    # Horner in x / 2^s, 2^s near E|x| for x = z (1-mu) U: a large p's tiny a_k, times 2^(s(k-p)), stay normal
    s = max(0, math.frexp(abs(z) * (1.0 - rp.mu) * (f.p + rp.delta))[1])
    pts = z * (1.0 - rp.mu) * 2.0**-s * u
    vals = np.zeros_like(pts)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf step leaves the sum inf or nan, refused below
        for k in range(degree, f.p, -1):
            vals *= pts
            vals -= pow2_product(1.0, s * (k - f.p), f.coeffs.get(k, 0.0))
        mean = complex(np.dot(w, 1.0 + vals * pts))
    if not np.isfinite(mean):
        raise DivergentInputError(f"a Horner step of the quadrature at z = {z} exceeds double range")
    return z**f.p * mean


def _require_c(c: float, lowest: float) -> float:
    """c as a float: finite, with c + lowest > 0 for the lowest exponent (p for a CoefficientSeries)."""
    c = float(c)
    if not (math.isfinite(c) and c + lowest > 0.0):
        raise ParameterOutOfRangeError(f"need a finite c > -{lowest}, got c = {c}")
    return c


def _require_eta(eta: float, integral: bool) -> float:
    """eta as a float: a fractional integral order lies in (0, inf), a derivative order in [0, 1)."""
    eta = float(eta)
    if integral and not 0.0 < eta < math.inf:
        raise ParameterOutOfRangeError(f"integral order must be positive and finite, got {eta}")
    if not integral and not 0.0 <= eta < 1.0:
        raise ParameterOutOfRangeError(f"derivative order must lie in [0, 1), got {eta}")
    return eta


def bernardi(f: CoefficientSeries | FractionalSeries, c: float) -> CoefficientSeries | FractionalSeries:
    """Bernardi integral (c+p)/z^c int_0^z t^(c-1) f(t) dt, acting as (c+p)/(c+s) per exponent s.

    A CoefficientSeries keeps its normal form.  For the generalized series the
    antiderivative must converge at the origin, so c plus the smallest
    exponent has to stay positive.
    """
    if isinstance(f, CoefficientSeries):
        c = _require_c(c, f.p)
        scaled = {k: (c + f.p) / (c + k) * a for k, a in f.coeffs.items()}
        return CoefficientSeries(p=f.p, coeffs=scaled)
    c = _require_c(c, f.p + f.shift)
    return _diagonal(f, lambda s, a: (c + f.p) / (c + s) * a, 0.0)


def fractional_integral(f: CoefficientSeries | FractionalSeries, eta: float) -> FractionalSeries:
    """Fractional integral of order eta > 0; exponents shift up by eta."""
    eta = _require_eta(eta, integral=True)
    return _diagonal(_as_fractional(f), lambda s, a: gamma_ratio(s + 1.0, s + 1.0 + eta) * a, eta)


def fractional_derivative(
    g: CoefficientSeries | FractionalSeries, eta: float
) -> FractionalSeries:
    """Fractional derivative of order 0 <= eta < 1; exponents shift down by eta.

    Every exponent must exceed eta so the image keeps positive exponents
    (and every Gamma argument stays positive); otherwise the index is
    reported through :class:`ExponentUnderflowError`.
    """
    eta = _require_eta(eta, integral=False)
    g = _as_fractional(g)
    lead_exp = g.p + g.shift
    if lead_exp - eta < 0.0:
        raise ExponentUnderflowError(
            f"leading exponent {lead_exp} would drop below zero for order {eta}"
        )
    for k in g.terms:
        if k + g.shift - eta <= 0.0:
            raise ExponentUnderflowError(
                f"exponent {k + g.shift} would not stay positive for order {eta}"
            )
    return _diagonal(g, lambda s, a: gamma_ratio(s + 1.0, s + 1.0 - eta) * a, -eta)
