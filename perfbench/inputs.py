"""Seeded inputs for the benchmark workloads.

Everything here uses only ``math`` and numpy's generator, never pvalent and
never mpmath: the setup probes build their warm-up inputs with this module
alone, and the program under test receives nothing but the series and
parameters made here.  Each workload is a list of ``Spec`` records; a round
is one pass over that list, and every round of a run repeats the same list,
so the share of fault operations is a constant of the workload.

Op counts per round are fixed and the sizes inside each class are
stratified (terms 1, 4, 7, ... rather than random counts), so the cost of a
round, and where the median and the 99th percentile fall, do not depend on
the seed; the seed moves only the parameters, indices and coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class Params(NamedTuple):
    """Family parameters as the harness sees them (converted to ClassParams at call time)."""

    p: int = 1
    alpha: float = 0.0
    A: float = 1.0
    B: float = -1.0
    mu: float = 0.0
    delta: float = 1.0

    @property
    def scale(self) -> float:
        return (self.A - self.B) * (self.p - self.alpha)


CANONICAL = Params()

# Series are (p, ((k, a_k), ...)) with indices in increasing order.
Series = tuple


@dataclass(frozen=True)
class Spec:
    """One operation: its kind, its inputs, and whether it hits the known overflow fault."""

    kind: str
    args: dict = field(hash=False)
    fault: bool = False


def log_term(k: int, P: Params) -> float:
    """log of the normalized R-criterion multiplier of a_k (float, log space)."""
    bracket = (1.0 - P.B) * (k - P.p) + P.scale
    return (
        math.log(bracket)
        + (k - P.p) * math.log1p(-P.mu)
        + math.lgamma(k + P.delta)
        - math.lgamma(P.p + P.delta)
        - math.log(P.scale)
    )


def draw_params(
    rng: np.random.Generator, mu_max: float = 0.9, delta_min: float = 0.0
) -> Params:
    """Admissible parameters: p in 1..4, alpha in [0, 0.8p), -1 <= B < 0.8, B+0.1 <= A <= 1."""
    p = int(rng.integers(1, 5))
    alpha = float(rng.uniform(0.0, 0.8 * p))
    B = float(rng.uniform(-1.0, 0.8))
    A = float(rng.uniform(B + 0.1, 1.0))
    mu = float(rng.uniform(0.0, mu_max))
    delta = float(rng.uniform(delta_min, 1.0))
    return Params(p, alpha, A, B, mu, delta)


def series_with_sum(
    rng: np.random.Generator,
    P: Params,
    n_terms: int,
    span: int,
    target: float,
    family: str = "r",
    zero_at: int | None = None,
) -> Series:
    """Series of n_terms coefficients among indices p+1..p+span with criterion sum ``target``.

    Each coefficient is its share of the target divided by its criterion
    multiplier (times k/p for the P family), so the sum is the target up to
    rounding.  ``zero_at`` adds one explicit zero coefficient.
    """
    ks = sorted(int(k) for k in rng.choice(np.arange(P.p + 1, P.p + 1 + span), n_terms, replace=False))
    u = rng.random(n_terms) + 0.05
    u = u / u.sum()
    pairs = []
    for k, share in zip(ks, u):
        weight = math.exp(log_term(k, P)) * (k / P.p if family == "p" else 1.0)
        pairs.append((k, target * float(share) / weight))
    if zero_at is not None:
        pairs = sorted(pairs + [(zero_at, 0.0)])
    return (P.p, tuple(pairs))


def _member_params(rng: np.random.Generator, span: int, **kw) -> Params:
    # the criterion implies the disk-wide ratio bound only when B*(k-p) <= scale
    # on the support (B <= 0 always qualifies); redraw until the span is covered
    while True:
        P = draw_params(rng, **kw)
        if P.B <= 0.0 or P.B * span <= P.scale:
            return P


def _radii(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    lo = float(rng.uniform(0.02, 0.2))
    hi = float(rng.uniform(0.8, 0.98))
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


def _phi_values(P: Params, beta: float, k_max: int) -> list[float]:
    """Hadamard order candidates Phi(k), k = p+1..k_max, in float log space (nan where den <= 0)."""
    s_a = P.scale
    s_b = (P.A - P.B) * (P.p - beta)
    out = []
    for k in range(P.p + 1, k_max + 1):
        lw = log_term(k, P) - math.log((1.0 - P.B) * (k - P.p) + s_a) + math.log(s_a)
        d = (1.0 - P.B) * (k - P.p)
        big = math.log(d + s_a) + math.log(d + s_b) + lw
        if big > 700.0:
            out.append(P.p - d * s_a * (P.p - beta) * math.exp(-big))
            continue
        den = math.exp(big) - s_a * s_b
        if abs(den) < 1e-6 * s_a * s_b:
            return []  # too close to a sign change to call
        out.append(P.p - d * s_a * (P.p - beta) / den if den > 0.0 else math.nan)
    return out


def _order_spec(rng: np.random.Generator, mu_max: float, k_max: int, same: bool) -> dict:
    # Redraw until every verdict in the report is clear-cut: the k = p+1
    # denominator positive (else the report is a documented
    # DegenerateDenominatorError), no candidate pair within rounding of the
    # 1e-12 monotonicity tolerance, and the order clear of 0.
    while True:
        P = draw_params(rng, mu_max=mu_max)
        beta = P.alpha if same else float(rng.uniform(0.0, 0.9 * P.p))
        phi = _phi_values(P, beta, k_max)
        if not phi or math.isnan(phi[0]) or abs(phi[0]) < 1e-6:
            continue
        if any(abs(b - a + 1e-12) < 1e-13 for a, b in zip(phi, phi[1:])):
            continue
        return {"P": P, "beta": None if same else beta, "k_max": k_max}


def _radius_spec(rng: np.random.Generator, k_max: int) -> tuple[Params, float]:
    # Redraw until argmin, the certified flag and whole_disk are clear-cut.
    kinds = ("starlike", "convex", "close-to-convex")
    while True:
        P = draw_params(rng)
        zeta = float(rng.uniform(0.0, 0.9 * P.p))
        if all(_radius_clear(P, zeta, k_max, kind) for kind in kinds):
            return P, zeta


def log_radius_factor(kind: str, k: int, p: int, zeta: float) -> float:
    if kind == "starlike":
        return math.log((p - zeta) / (k - zeta))
    if kind == "convex":
        return math.log(p * (p - zeta) / (k * (k - zeta)))
    return math.log((p - zeta) / k)


def _radius_clear(P: Params, zeta: float, k_max: int, kind: str) -> bool:
    cands = [
        math.exp((log_term(k, P) + log_radius_factor(kind, k, P.p, zeta)) / (k - P.p))
        for k in range(P.p + 1, k_max + 1)
    ]
    lo = min(cands)
    i = cands.index(lo)
    if sum(1 for c in cands if c <= lo * (1.0 + 1e-9)) > 1 or abs(lo - 1.0) < 1e-9:
        return False
    tail = cands[i:]
    return all(abs(a - b * (1.0 + 1e-12)) > 1e-13 * b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# closed-form

DEEP_RADIUS_KMAX = 2000
DEEP_ORDER_KMAX = 1000
# (1-mu)^(k-p) underflows to 0 for mu > ~0.52 before k = 1000 while the linear
# gamma ratio has already overflowed, so deep orders are drawn with mu <= 0.5;
# the fixed-input fault op F4 keeps the mu = 0.6 case in the workload.
DEEP_ORDER_MU_MAX = 0.5
F1_KS = (172, 178, 184, 190)
F1_PARAMS = Params(mu=0.5)
F4_PARAMS = Params(mu=0.6)


def zero_fault_series() -> list[Series]:
    """Inputs of F2 and F3: a canonical member with an explicit zero at k = 171 or 180."""
    return [(1, ((2, 0.125), (3, 0.02), (k0, 0.0))) for k0 in (171, 180)]


def closed_form_round(rng: np.random.Generator) -> list[Spec]:
    """One round of the closed-form workload: 99 ops, 7 of them fault ops."""
    specs: list[Spec] = []
    for family in ("r", "p"):
        for i in range(20):
            n = 1 + 3 * i  # 1, 4, ..., 58 terms
            P = draw_params(rng)
            target = float(rng.uniform(0.05, 0.95) if i % 2 == 0 else rng.uniform(1.05, 2.0))
            zero_at = P.p + 81 + int(rng.integers(0, 40)) if i % 10 == 3 else None
            f = series_with_sum(rng, P, n, min(80, n + 12), target, family, zero_at)
            specs.append(Spec("check_" + family, {"P": P, "f": f}))
    for kind, count in (("bound_r", 8), ("bound_p", 8), ("extremal_r", 4), ("extremal_p", 4)):
        for _ in range(count):
            P = draw_params(rng)
            specs.append(Spec(kind, {"P": P, "k": int(rng.integers(P.p + 1, 161))}))
    for k in F1_KS:
        specs.append(Spec("bound_r", {"P": F1_PARAMS, "k": k}, fault=True))
    for f in zero_fault_series():
        specs.append(Spec("check_r", {"P": CANONICAL, "f": f}, fault=True))
    for k_max, triples in ((200, 3), (DEEP_RADIUS_KMAX, 1)):
        for _ in range(triples):
            P, zeta = _radius_spec(rng, k_max)
            for kind in ("starlike", "convex", "close-to-convex"):
                specs.append(Spec("radius", {"P": P, "kind": kind, "zeta": zeta, "k_max": k_max}))
    for pairs, mu_max, k_max in ((3, 0.9, 64), (1, DEEP_ORDER_MU_MAX, DEEP_ORDER_KMAX)):
        for _ in range(pairs):
            specs.append(Spec("order", _order_spec(rng, mu_max, k_max, same=True)))
            specs.append(Spec("order", _order_spec(rng, mu_max, k_max, same=False)))
    specs.append(Spec("order", {"P": F4_PARAMS, "beta": None, "k_max": DEEP_ORDER_KMAX}, fault=True))
    for _ in range(4):
        P = draw_params(rng)
        m = int(rng.integers(0, P.p + 1))
        specs.append(Spec("distortion", {"P": P, "m": m, "radii": _radii(rng, 50)}))
    for theorem in (7, 8, 9, 10):
        P = draw_params(rng)
        c, eta = _composition_ce(rng, theorem, P.p)
        specs.append(
            Spec(
                "composition",
                {
                    "P": P,
                    "theorem": theorem,
                    "c": c,
                    "eta": eta,
                    "radii": _radii(rng, 50),
                    "printed": theorem in (7, 9),
                },
            )
        )
    return specs


def _composition_ce(rng: np.random.Generator, theorem: int, p: int) -> tuple[float, float]:
    if theorem in (7, 10):
        eta = float(rng.uniform(0.1, 1.5))
        return float(rng.uniform(-p + 0.5, 3.0)), eta
    eta = float(rng.uniform(0.05, 0.95))
    low = -p + 0.5 if theorem == 8 else max(-p + 0.5, eta - p + 0.5)
    return float(rng.uniform(low, 3.0)), eta


# ---------------------------------------------------------------------------
# oracle

DENSE_GRID = (tuple(round(0.05 + i * (0.99 - 0.05) / 19, 6) for i in range(20)), 512)
LONG_DEFAULT_TERMS = (40, 62, 84, 106, 128, 150)
# three equal-size dense-grid ops are the costliest items of a round (~2.5%
# of its ops), so the 99th percentile falls inside them, not between items
LONG_DENSE_TERMS = (60, 60, 60)
# frozen counterexample: criterion sum 0.9 at B = 1/2, yet the ratio exceeds 1
B_HALF_PARAMS = Params(B=0.5)
B_HALF_SERIES = (1, ((6, 0.9 / 4320.0),))


def _member(rng: np.random.Generator, n_terms: int, span: int, **kw) -> tuple[Params, Series]:
    P = _member_params(rng, span, **kw)
    return P, series_with_sum(rng, P, n_terms, span, float(rng.uniform(0.05, 0.95)))


def _circle_safe(f: Series, r: float, factor: bool) -> bool:
    # f (or f' when factor) must not vanish on |z| = r: the tail must stay
    # below the leading term there
    p, pairs = f
    return sum((k / p if factor else 1.0) * a * r ** (k - p) for k, a in pairs) < 0.9


def oracle_round(rng: np.random.Generator) -> list[Spec]:
    """One round of the oracle workload: 121 ops, 2 of them fault ops."""
    specs: list[Spec] = []
    for i in range(60):
        P, f = _member(rng, 1 + i % 5, 12)
        specs.append(Spec("subordination", {"P": P, "f": f, "grid": None, "expect_pass": True}))
    for i in range(20):
        P, f = _member(rng, 1 + i % 5, 12)
        specs.append(Spec("subordination", {"P": P, "f": f, "grid": DENSE_GRID, "expect_pass": True}))
    for terms, grid in [(t, None) for t in LONG_DEFAULT_TERMS] + [(t, DENSE_GRID) for t in LONG_DENSE_TERMS]:
        P, f = _member(rng, terms, 160)
        specs.append(Spec("subordination", {"P": P, "f": f, "grid": grid, "expect_pass": True}))
    specs.append(
        Spec("subordination", {"P": B_HALF_PARAMS, "f": B_HALF_SERIES, "grid": None, "expect_pass": False})
    )
    for i, check in enumerate(("starlike", "convex", "ctc") * 5):
        while True:
            P, f = _member(rng, 1 + 4 * (i // 3), 24)
            r = float(rng.uniform(0.1, 0.95))
            if _circle_safe(f, r, factor=check == "convex"):
                break
        zeta = float(rng.uniform(0.0, 0.9 * P.p))
        specs.append(Spec("circle", {"check": check, "P": P, "f": f, "zeta": zeta, "r": r}))
    for _ in range(10):
        P, f = _member(rng, int(rng.integers(1, 6)), 12, delta_min=0.1)
        theta = 2.0 * math.pi * float(rng.random())
        rad = float(rng.uniform(0.1, 0.9))
        z = complex(rad * math.cos(theta), rad * math.sin(theta))
        specs.append(Spec("quadrature", {"P": P, "f": f, "z": z}))
    for _ in range(4):
        P = draw_params(rng)
        k = P.p + 1
        bracket = (1.0 - P.B) + P.scale
        # the cap keeps the smoothed tail below one, so the real segment is pole-free
        s = float(rng.uniform(1.05, min(1.9, 0.5 * (1.0 + bracket / P.scale))))
        f = (P.p, ((k, s * math.exp(-log_term(k, P))),))
        specs.append(Spec("locate", {"P": P, "f": f}))
    for f in zero_fault_series():
        specs.append(Spec("subordination", {"P": CANONICAL, "f": f, "grid": None, "expect_pass": True}, fault=True))
    return specs


# ---------------------------------------------------------------------------
# cli-cold

SELFTEST_SEEDS = (0, 1, 2)


def cli_round(rng: np.random.Generator) -> list[Spec]:
    """One round of cold CLI calls: three blocks of 12 calls plus two selftests each."""
    specs: list[Spec] = []
    for seed in SELFTEST_SEEDS:
        P = draw_params(rng)
        for family in ("r", "p"):
            target = float(rng.uniform(0.05, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.9))
            f = series_with_sum(rng, P, int(rng.integers(1, 11)), 14, target, family)
            specs.append(Spec("cli_check", {"P": P, "f": f, "family": family}))
        family = "r" if rng.random() < 0.5 else "p"
        k = int(rng.integers(P.p + 1, P.p + 30))
        specs.append(Spec("cli_extremal", {"P": P, "k": k, "family": family}))
        specs.append(Spec("cli_check_extremal", {"P": P, "k": k, "family": family}))
        R, zeta = _radius_spec(rng, 200)
        for kind in ("starlike", "convex", "ctc"):
            specs.append(Spec("cli_radius", {"P": R, "kind": kind, "zeta": zeta}))
        m = int(rng.integers(0, P.p + 1))
        specs.append(Spec("cli_distortion", {"P": P, "m": m, "rmin": 0.05, "rmax": 0.95, "steps": 50}))
        specs.append(Spec("cli_hadamard", _order_spec(rng, 0.9, 64, same=False)))
        theorem = int(rng.integers(7, 11))
        c, eta = _composition_ce(rng, theorem, P.p)
        specs.append(
            Spec(
                "cli_fracbound",
                {"P": P, "theorem": theorem, "c": c, "eta": eta, "rmin": 0.05, "rmax": 0.95,
                 "steps": 50, "printed": bool(rng.random() < 0.5)},
            )
        )
        S, f = _member(rng, int(rng.integers(1, 6)), 12)
        specs.append(Spec("cli_oracle", {"P": S, "f": f, "check": "subordination"}))
        while True:
            S, f = _member(rng, int(rng.integers(1, 6)), 12)
            if _circle_safe(f, 0.9, factor=False):
                break
        specs.append(Spec("cli_oracle", {"P": S, "f": f, "check": "starlike", "zeta": float(rng.uniform(0.0, 0.5 * S.p)), "r": 0.9}))
        specs += [Spec("cli_selftest", {"seed": seed})] * 2
    return specs


ROUNDS = {"closed-form": closed_form_round, "oracle": oracle_round, "cli-cold": cli_round}


def workload_round(workload: str, seed: int) -> list[Spec]:
    """The round a run repeats; seed stream 0."""
    return ROUNDS[workload](np.random.default_rng([seed, 0]))


def warmup_round(workload: str, seed: int) -> list[Spec]:
    """Inputs for the untimed warm-up pass, from a stream the timed phase never uses."""
    return ROUNDS[workload](np.random.default_rng([seed, 1]))
