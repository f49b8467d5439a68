"""Diagonal coefficient operators on p-valent series.

All four transforms act diagonally on monomials, so each is determined by
its multiplier sequence:

* Rafid-type smoothing operator (parameters 0 <= mu < 1, 0 <= delta <= 1):
    z^k  ->  (1-mu)^(k-p) Gamma(k+delta)/Gamma(p+delta) z^k.
  It arises from the integral kernel t^(delta-1) exp(-t/(1-mu)), which the
  quadrature path integrates directly as an independent cross-check.
* Bernardi integral (c > -p):  z^k -> (c+p)/(c+k) z^k.
* Riemann-Liouville fractional integral of order eta > 0:
    z^s -> Gamma(s+1)/Gamma(s+1+eta) z^(s+eta).
* Riemann-Liouville fractional derivative of order 0 <= eta < 1:
    z^s -> Gamma(s+1)/Gamma(s+1-eta) z^(s-eta).

The first two preserve the negative-coefficient normal form; the fractional
pair moves into :class:`~pvalent.series.FractionalSeries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DivergentInputError,
    ExponentUnderflowError,
    IndexBelowValenceError,
    NonpositiveArgumentError,
    ParameterOutOfRangeError,
    QuadratureUnavailableError,
)
from .series import CoefficientSeries, FractionalSeries

if TYPE_CHECKING:
    import numpy as np

_EXACT_GAP = 64  # integer argument gaps up to this use an exact rising product
_LN2 = math.log(2.0)
_MIN_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class RafidParams:
    """Smoothing operator parameters: 0 <= mu < 1 and 0 <= delta <= 1."""

    mu: float = 0.0
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu < 1.0):
            raise ParameterOutOfRangeError(f"mu must lie in [0, 1), got {self.mu}")
        if not (0.0 <= self.delta <= 1.0):
            raise ParameterOutOfRangeError(f"delta must lie in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Size n of the generalized Gauss-Laguerre rule in :func:`rafid_quadrature`.

    The rule is exact for polynomials of degree below 2n; its nodes and
    weights need numpy alone.  A weight below about 1e-308 comes back as 0.0.
    """

    nodes: int = 64

    def __post_init__(self) -> None:
        if self.nodes < 8:
            raise ParameterOutOfRangeError(f"need at least 8 nodes, got {self.nodes}")


def gamma_ratio(x: float, y: float) -> float:
    """Gamma(x)/Gamma(y) for x, y > 0 as one double, without forming either Gamma value.

    Integer gaps |x - y| <= 64 are evaluated as an exact rising product
    (so e.g. gamma_ratio(k+1, k+2) is exactly 1/(k+1)); other gaps go
    through log-gamma differences.  Ratios beyond double range come back
    as inf or 0.0 rather than raising; the smoothing multiplier therefore
    takes this linear form only where it stays in range.
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


def log_rafid_weight(k: int, p: int, rp: RafidParams) -> float:
    """log w_k at log-gamma cost, finite at every index; the scans over k read this form."""
    return (k - p) * math.log1p(-rp.mu) + math.lgamma(k + rp.delta) - math.lgamma(p + rp.delta)


def split_log(x: float) -> tuple[float, int]:
    """(m, e) with exp(x) = m 2^e and 1/2 < m <= 1."""
    e = math.ceil(x / _LN2)
    return math.exp(x - e * _LN2), e


def pow2_product(m: float, e: int, a: float = 1.0) -> float:
    """m 2^e a, rounded once.

    Inside double range this is the linear product bit for bit; a zero factor
    gives 0.0, and only true values beyond the range give inf or a subnormal.
    """
    ma, ea = math.frexp(a)
    try:
        return math.ldexp(m * ma, e + ea)
    except OverflowError:
        return math.copysign(math.inf, m * ma)


def rafid_multiplier(k: int, p: int, rp: RafidParams) -> tuple[float, int]:
    """(m, e) with w_k = (1-mu)^(k-p) Gamma(k+delta)/Gamma(p+delta) = m 2^e, never 0 or inf.

    Where (1-mu)^(k-p) and w_k are normal doubles, m 2^e is exactly their
    linear product; beyond, it comes from :func:`log_rafid_weight`.  Callers
    fold their factors into m and scale once with :func:`pow2_product`.
    """
    if k < p:
        raise IndexBelowValenceError(f"index {k} below valence {p}")
    if p < 1:
        raise ParameterOutOfRangeError(f"valence must be positive, got {p}")
    power = (1.0 - rp.mu) ** (k - p)
    w = power * gamma_ratio(k + rp.delta, p + rp.delta)
    if power >= _MIN_NORMAL and _MIN_NORMAL <= w < math.inf:
        return math.frexp(w)
    return split_log(log_rafid_weight(k, p, rp))


def rafid_weight(k: int, p: int, rp: RafidParams) -> float:
    """w_k as one double: exact where representable, inf or 0.0 only beyond double range."""
    return pow2_product(*rafid_multiplier(k, p, rp))


def apply_rafid(f: CoefficientSeries, rp: RafidParams) -> CoefficientSeries:
    """Image of f under the smoothing operator; each w_k a_k is rounded once, zeros stay 0.0."""
    weighted = {k: pow2_product(*rafid_multiplier(k, f.p, rp), a) for k, a in f.coeffs.items()}
    return CoefficientSeries(p=f.p, coeffs=weighted)


def _laguerre_rule(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight u^a e^-u on (0, inf), a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix with
    diagonal 2i+a+1 and off-diagonal s_i = sqrt(i(i+a)).  Each weight is the
    Christoffel number 1/sum_i q_i(x)^2 over the orthonormal polynomials
    q_0..q_{n-1}, which keeps its relative accuracy where the first
    eigenvector components do not.  Writing q_i = h_i t_i turns the recurrence
    s_i q_i = (x-2i-a+1) q_{i-1} - s_{i-1} q_{i-2} into
    t_i = e_i (x-2i-a+1) t_{i-1} - t_{i-2}, two in-place updates per degree.
    """
    import numpy as np

    i = np.arange(n)
    s = np.sqrt(i * (i + a))
    jacobi = np.diag(2.0 * i + a + 1.0)
    jacobi.flat[n :: n + 1] = s[1:]
    x = np.linalg.eigvalsh(jacobi)
    s = s.tolist()
    h = [1.0, 1.0]
    for k in range(2, n):
        h.append(h[k - 2] * s[k - 1] / s[k])
    e = [h[k - 1] / (s[k] * h[k]) for k in range(1, n)]
    t = np.empty((n, n))
    np.multiply.outer(e, x, out=t[1:])
    t[1:] -= np.multiply(e, 2.0 * i[1:] + a - 1.0)[:, None]
    rows = list(t)
    rows[0][:] = 1.0 / math.sqrt(math.gamma(a + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        rows[1] *= rows[0]
        for k in range(2, n):
            rows[k] *= rows[k - 1]
            rows[k] -= rows[k - 2]
        total = np.square(h) @ np.square(t)
    # a sum past double range means a weight below 1/DBL_MAX, about 5.6e-309
    return x, np.where(np.isfinite(total), 1.0 / total, 0.0)


def rafid_quadrature(
    f: CoefficientSeries,
    rp: RafidParams,
    z: complex,
    q: QuadratureConfig = QuadratureConfig(),
    require_quadrature: bool = False,
) -> complex:
    """Smoothing-operator value at z through generalized Gauss-Laguerre nodes.

    After the substitution u = t/(1-mu) the operator reads

        (1-mu)^(-p) / Gamma(p+delta) * int_0^inf u^(delta-1) e^-u f(z (1-mu) u) du,

    which an n-node rule with weight u^(delta-1) e^-u integrates exactly for
    polynomial f of degree < 2n.  The rule comes from :func:`_laguerre_rule`,
    independently of the closed-form multipliers.  delta = 0 has no
    integrable weight; the closed-form multiplier path answers instead unless
    the caller insists.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DivergentInputError(f"|z| must be < 1 for the transform, got {abs(z)}")
    if rp.delta == 0.0:
        if require_quadrature:
            raise QuadratureUnavailableError("delta = 0 admits no Laguerre weight")
        from .series import evaluate

        return evaluate(apply_rafid(f, rp), z)
    import numpy as np

    u, w = _laguerre_rule(q.nodes, rp.delta - 1.0)
    pts = z * (1.0 - rp.mu) * u
    vals = np.zeros_like(pts)
    for k in range(f.truncation_degree, f.p, -1):
        vals *= pts
        vals -= f.coeffs.get(k, 0.0)
    vals = pts**f.p * (1.0 + vals * pts)
    total = complex(np.dot(w, vals))
    return total / ((1.0 - rp.mu) ** f.p * math.gamma(f.p + rp.delta))


def bernardi(f: CoefficientSeries | FractionalSeries, c: float) -> CoefficientSeries | FractionalSeries:
    """Bernardi integral (c+p)/z^c int_0^z t^(c-1) f(t) dt, acting as (c+p)/(c+s) per exponent s.

    For the generalized series the antiderivative must converge at the
    origin, so c plus the smallest exponent has to stay positive.
    """
    c = float(c)
    if isinstance(f, CoefficientSeries):
        if c <= -f.p:
            raise ParameterOutOfRangeError(f"need c > -p, got c = {c}, p = {f.p}")
        scaled = {k: (c + f.p) / (c + k) * a for k, a in f.coeffs.items()}
        return CoefficientSeries(p=f.p, coeffs=scaled)
    lead_exp = f.p + f.shift
    if c + lead_exp <= 0.0:
        raise ParameterOutOfRangeError(
            f"need c + leading exponent > 0, got c = {c}, exponent = {lead_exp}"
        )
    ratio = (c + f.p) / (c + lead_exp)
    terms = {k: (c + f.p) / (c + k + f.shift) * v for k, v in f.terms.items()}
    return FractionalSeries(p=f.p, shift=f.shift, leading=ratio * f.leading, terms=terms)


def fractional_integral(f: CoefficientSeries, eta: float) -> FractionalSeries:
    """Fractional integral of order eta > 0; exponents shift up by eta."""
    eta = float(eta)
    if not (eta > 0.0) or not math.isfinite(eta):
        raise ParameterOutOfRangeError(f"integral order must be positive, got {eta}")
    lead = gamma_ratio(f.p + 1.0, f.p + 1.0 + eta)
    terms = {k: -gamma_ratio(k + 1.0, k + 1.0 + eta) * a for k, a in f.coeffs.items()}
    return FractionalSeries(p=f.p, shift=eta, leading=lead, terms=terms)


def fractional_derivative(
    g: CoefficientSeries | FractionalSeries, eta: float
) -> FractionalSeries:
    """Fractional derivative of order 0 <= eta < 1; exponents shift down by eta.

    Every exponent must exceed eta so the image keeps positive exponents
    (and every Gamma argument stays positive); otherwise the index is
    reported through :class:`ExponentUnderflowError`.
    """
    eta = float(eta)
    if not (0.0 <= eta < 1.0):
        raise ParameterOutOfRangeError(f"derivative order must lie in [0, 1), got {eta}")
    if isinstance(g, CoefficientSeries):
        g = FractionalSeries(
            p=g.p, shift=0.0, leading=1.0, terms={k: -a for k, a in g.coeffs.items()}
        )
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
    lead = gamma_ratio(lead_exp + 1.0, lead_exp + 1.0 - eta) * g.leading
    terms = {
        k: gamma_ratio(k + g.shift + 1.0, k + g.shift + 1.0 - eta) * v
        for k, v in g.terms.items()
    }
    return FractionalSeries(p=g.p, shift=g.shift - eta, leading=lead, terms=terms)
