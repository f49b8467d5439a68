"""Independent reference values at 50 significant digits (mpmath).

Each function evaluates the closed forms stated in the pvalent module
docstrings directly from their definitions, with none of the package's
code: criterion multipliers, sharp bounds, radius candidates, Hadamard
order candidates Phi(k), the composed multipliers A0 and A1 (derived from
the operator definitions, not copied from the package), the source's
printed bounds, and the polynomial, subordination ratio and smoothed value
at a point.  Results come back as Python floats or complexes, rounded once.
Used only outside the timed sections.
"""

from __future__ import annotations

import mpmath as mp

from inputs import Params, Series

mp.mp.dps = 50


def _m(x) -> mp.mpf:
    return mp.mpf(x)


def log_weight(k: int, P: Params) -> mp.mpf:
    """log of the smoothing multiplier (1-mu)^(k-p) Gamma(k+delta)/Gamma(p+delta)."""
    return (k - P.p) * mp.log(1 - _m(P.mu)) + mp.loggamma(k + _m(P.delta)) - mp.loggamma(P.p + _m(P.delta))


def term(k: int, P: Params) -> mp.mpf:
    """Normalized R-criterion multiplier [(1-B)(k-p) + (A-B)(p-alpha)] w_k / ((A-B)(p-alpha))."""
    s = (_m(P.A) - _m(P.B)) * (P.p - _m(P.alpha))
    return ((1 - _m(P.B)) * (k - P.p) + s) * mp.exp(log_weight(k, P)) / s


def membership(P: Params, f: Series, family: str) -> dict:
    """Criterion sum; the P family carries the extra factor k/p. Zero coefficients contribute 0."""
    per_term = []
    for k, a in f[1]:
        c = term(k, P) * _m(a) * (_m(k) / P.p if family == "p" else 1)
        per_term.append((k, c))
    total = mp.fsum(c for _, c in per_term)
    return {
        "sum": float(total),
        "member": total <= 1,
        "margin": float(1 - total),
        "per_term": [(k, float(c)) for k, c in per_term],
    }


def bound(P: Params, k: int, family: str) -> float:
    t = term(k, P)
    return float(1 / t if family == "r" else P.p / (k * t))


def radius(P: Params, kind: str, zeta: float, k_max: int) -> dict:
    """Candidates [term(k) factor(k)]^(1/(k-p)), their minimum and the package's flags."""
    z = _m(zeta)
    s = (_m(P.A) - _m(P.B)) * (P.p - _m(P.alpha))
    log_1mu = mp.log(1 - _m(P.mu))
    lg0 = mp.loggamma(P.p + _m(P.delta))
    lg = lg0
    cands = []
    for k in range(P.p + 1, k_max + 1):
        lg += mp.log(k - 1 + _m(P.delta))  # loggamma(k + delta) by recurrence
        log_t = mp.log((1 - _m(P.B)) * (k - P.p) + s) + (k - P.p) * log_1mu + lg - lg0 - mp.log(s)
        if kind == "starlike":
            log_f = mp.log((P.p - z) / (k - z))
        elif kind == "convex":
            log_f = mp.log(P.p * (P.p - z) / (k * (k - z)))
        else:
            log_f = mp.log((P.p - z) / k)
        cands.append(float(mp.exp((log_t + log_f) / (k - P.p))))
    lo = min(cands)
    i = cands.index(lo)
    tail = cands[i:]
    return {
        "radius": lo,
        "argmin_k": P.p + 1 + i,
        "candidates": cands,
        "certified": all(a <= b * (1.0 + 1e-12) for a, b in zip(tail, tail[1:])),
        "whole_disk": lo >= 1.0,
    }


def order(P: Params, beta: float, k_max: int) -> dict:
    """Phi(k) = p - (1-B)(k-p) s_a (p-beta) / (brk_a brk_b w_k - s_a s_b); order = Phi(p+1)."""
    b = _m(beta)
    s_a = (_m(P.A) - _m(P.B)) * (P.p - _m(P.alpha))
    s_b = (_m(P.A) - _m(P.B)) * (P.p - b)
    lg0 = mp.loggamma(P.p + _m(P.delta))
    lg = lg0
    log_1mu = mp.log(1 - _m(P.mu))
    phi = []
    for k in range(P.p + 1, k_max + 1):
        lg += mp.log(k - 1 + _m(P.delta))
        w = mp.exp((k - P.p) * log_1mu + lg - lg0)
        d = (1 - _m(P.B)) * (k - P.p)
        den = (d + s_a) * (d + s_b) * w - s_a * s_b
        phi.append(float(P.p - d * s_a * (P.p - b) / den) if den > 0 else float("nan"))
    increasing = all(x == x and y == y and y >= x - 1e-12 for x, y in zip(phi, phi[1:]))
    return {"order": phi[0], "increasing": increasing, "p": P.p}


def distortion(P: Params, m: int, radii) -> list[tuple]:
    """(r, lower, upper, magnitude) with T = 1/term(p+1)."""
    T = 1 / term(P.p + 1, P)
    lead = mp.ff(P.p, m)
    tail_f = mp.ff(P.p + 1, m)
    rows = []
    for r in radii:
        rr = _m(r)
        a = lead * rr ** (P.p - m)
        t = T * tail_f * rr ** (P.p + 1 - m)
        rows.append((r, float(a - t), float(a + t), float(a + t)))
    return rows


def multipliers(theorem: int, p: int, c, eta) -> tuple:
    """(A0, A1, e0) from the operator definitions.

    Bernardi J_c:        z^s -> (c+p)/(c+s) z^s
    integral D^-eta:     z^s -> Gamma(s+1)/Gamma(s+1+eta) z^(s+eta)
    derivative D^eta:    z^s -> Gamma(s+1)/Gamma(s+1-eta) z^(s-eta)
    7: D^-eta J_c,  8: D^eta J_c,  9: J_c D^eta,  10: J_c D^-eta.
    """
    c, eta = _m(c), _m(eta)

    def J(s):
        return (c + p) / (c + s)

    def D(s, sign):  # sign -1: integral, +1: derivative
        return mp.gamma(s + 1) / mp.gamma(s + 1 - sign * eta), s - sign * eta

    sign = -1 if theorem in (7, 10) else 1
    if theorem in (7, 8):
        a0, e0 = D(p, sign)
        a1, _ = D(p + 1, sign)
        return a0 * J(p), a1 * J(p + 1), e0
    g0, e0 = D(p, sign)
    g1, e1 = D(p + 1, sign)
    return g0 * J(e0), g1 * J(e1), e0


def composition(P: Params, theorem: int, c: float, eta: float, radii, printed: bool) -> list[tuple]:
    """(r, lower, upper, magnitude[, printed_lower, printed_upper, printed_magnitude]) rows."""
    a0, a1, e0 = multipliers(theorem, P.p, c, eta)
    T = 1 / term(P.p + 1, P)
    rows = []
    for r in radii:
        rr = _m(r)
        x, y = a0 * rr**e0, a1 * T * rr ** (e0 + 1)
        row = (r, float(x - y), float(x + y), float(abs(x) + abs(y)))
        if printed:
            row += _printed(P, theorem, _m(c), _m(eta), rr)
        rows.append(row)
    return rows


def _printed(P: Params, theorem: int, c, eta, r) -> tuple:
    """The source's inequalities as printed, slips included (see calculus_bounds)."""
    p = P.p
    A, B, alpha = _m(P.A), _m(P.B), _m(P.alpha)
    s = (A - B) * (p - alpha)
    d_den = ((1 - B) + s) * (1 - _m(P.mu)) * (p + _m(P.delta))
    G = mp.gamma
    if theorem == 7:
        lead = G(p + 1) / G(p + 1 + eta)
        tail_low = (c + p) * G(p + 2) / G(p + eta + 2) * (B - A) * (p - alpha) / ((c + p + 1) * d_den)
        tail_up = (c + p) * G(p + 2) / G(p - eta + 2) * s / ((c + p + 1) * d_den)
        scale = r ** (p + eta)
        lo, up = (lead - tail_low * r) * scale, (lead + tail_up * r) * scale
        return float(lo), float(up), float((abs(lead) + abs(tail_low * r) + abs(tail_up * r)) * scale)
    tail = (c + p) * G(p + 2) * s / ((c + p + 1) * G(p + 1) * G(p + eta + 2) * d_den)
    if theorem == 8:
        lead, scale, sign = G(p + 1) / G(p + 1 + eta), r ** (p - eta), 1
    elif theorem == 9:
        lead, scale, sign = (c + p) / ((c - eta + 1) * G(p + 1 - eta)), r ** (p - eta), -1
    else:
        lead, scale, sign = (c + p) / ((c + eta + 1) * G(p + 1 + eta)), r ** (p + eta), 1
    lo, up = (lead - tail * r) * scale, (lead + sign * tail * r) * scale
    return float(lo), float(up), float((abs(lead) + abs(tail * r)) * scale)


# ---------------------------------------------------------------------------
# values at a point


def _coeffs(f: Series, P: Params | None) -> list[tuple]:
    """(exponent, coefficient) of f, or of its smoothed image when P is given."""
    out = [(f[0], mp.mpf(1))]
    for k, a in f[1]:
        w = mp.exp(log_weight(k, P)) if P is not None else 1
        out.append((k, -w * _m(a)))
    return out


def _poly(terms, z, deriv: int = 0):
    """sum c z^e after `deriv` applications of z d/dz."""
    return mp.fsum(c * mp.mpf(e) ** deriv * z**e for e, c in terms)


def smoothed_value(P: Params, f: Series, z: complex) -> complex:
    """Closed-form image of f under the smoothing operator, at z."""
    return complex(_poly(_coeffs(f, P), mp.mpc(z)))


def subordination_ratio(P: Params, f: Series, z: complex) -> float:
    """|(w - p)/(B w - [Bp + (A-B)(p-alpha)])| with w = z g'/g, g the smoothed image."""
    zz = mp.mpc(z)
    terms = _coeffs(f, P)
    w = _poly(terms, zz, 1) / _poly(terms, zz)
    B = _m(P.B)
    target = B * P.p + (_m(P.A) - B) * (P.p - _m(P.alpha))
    return float(abs((w - P.p) / (B * w - target)))


def circle_value(check: str, f: Series, z: complex) -> float:
    """Re(z f'/f), Re(1 + z f''/f') or |f'/z^(p-1) - p| at z."""
    zz = mp.mpc(z)
    terms = _coeffs(f, None)
    if check == "starlike":
        return float(mp.re(_poly(terms, zz, 1) / _poly(terms, zz)))
    if check == "convex":
        zf1 = _poly(terms, zz, 1)  # z f'
        zf2 = _poly(terms, zz, 2)  # z (z f')' = z f' + z^2 f''
        return float(mp.re(1 + (zf2 - zf1) / zf1))
    p = f[0]
    return float(abs(_poly(terms, zz, 1) / zz**p - p))
