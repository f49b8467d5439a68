"""The selftest harness: one name, one generator, one clock and one guard per check."""

import itertools
import re
import time
import types

import numpy as np
import pytest

from pvalent import classes, selftest
from pvalent.errors import ParameterOutOfRangeError
from pvalent.series import CoefficientSeries
from test_frozen import battery

# the first helper each check calls, so that raising in all of them makes every check raise
HELPERS = (
    "make_series", "random_params", "coeff_bound_r", "coeff_bound_p", "radius_starlike",
    "schild_silverman_lambda", "composition_bound",
)


def test_a_raising_check_keeps_its_name(monkeypatch):
    names = [r.name for r in battery(0)]

    def boom(*args, **kwargs):
        raise RuntimeError("helper down")

    for helper in HELPERS:
        monkeypatch.setattr(selftest, helper, boom)
    results = selftest.run_all(seed=0)
    assert [r.name for r in results] == names
    for r in results:
        assert not r.passed
        assert r.detail == "raised RuntimeError('helper down')", r


def test_a_body_past_its_budget_fails_with_the_note():
    def body(failures, rng):
        time.sleep(0.01)
        return "done"

    result = selftest._check("slow", budget_s=0.001)(body)(seed=0)
    assert result.name == "slow" and not result.passed
    assert result.detail.startswith("took ") and result.detail.endswith(" s (budget 0.001 s)")
    assert result.elapsed >= 0.01


def test_the_body_gets_the_seeded_generator():
    def body(failures, rng):
        """A pass that reports its draw."""
        return repr(rng.random())

    check = selftest._check("draw")(body)
    result = check(7)
    assert result.passed and result.name == "draw"
    assert result.detail == repr(np.random.default_rng(7).random())
    assert check.__name__ == "body" and check.__doc__ == "A pass that reports its draw."
    assert check(np.int64(7)).detail == result.detail


@pytest.mark.parametrize("seed", [-1, True, 1.5, None])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_once(seed):
    """selftest --seed -1 once printed nine FAIL rows, each with the generator's ValueError."""
    calls = []
    check = selftest._check("draw")(lambda failures, rng: calls.append(rng) or "drawn")
    with pytest.raises(ParameterOutOfRangeError, match="seed must be an integer >= 0"):
        check(seed)
    assert calls == []


def test_failures_fail_the_row_and_replace_the_detail():
    def body(failures, rng):
        failures.extend(f"note {i}" for i in range(6))
        return "unused"

    result = selftest._check("noisy")(body)(seed=0)
    assert not result.passed
    assert result.detail == "note 0; note 1; note 2; note 3"


def _missed_on_draw(real, draw, move):
    """real, but at call draw (counted from 0) with (lower, upper) moved by move: a distortion pair or a
    composition bound."""
    calls = itertools.count()

    def bound(*args, **kwargs):
        got = real(*args, **kwargs)
        if next(calls) != draw:
            return got
        if isinstance(got, tuple):
            return move(*got)
        lower, upper = move(got.lower, got.upper)
        return got.replace(lower=lower, upper=upper)

    return bound


@pytest.mark.parametrize("check, bound", [("check_distortion", "distortion_bounds"),
                                          ("check_fractional_compositions", "composition_bound")])
def test_a_draw_outside_its_bound_fails_the_containment_check_at_that_draw(monkeypatch, check, bound):
    """Criteria 5 and 8: a value above the upper bound at draw 3, or a lower bound the extremal misses at draw 10,
    fails the row and names the draw."""
    real = getattr(selftest, bound)
    monkeypatch.setattr(selftest, bound, _missed_on_draw(real, 3, lambda lower, upper: (-2.0, -1.0)))
    result = getattr(selftest, check)(seed=0)
    assert not result.passed
    assert result.detail.startswith("draw 3: |") and result.detail.endswith(" outside [-2.0, -1.0]"), result.detail
    monkeypatch.setattr(selftest, bound, _missed_on_draw(real, 10, lambda lower, upper: (lower - 1e-6, upper)))
    result = getattr(selftest, check)(seed=0)
    assert not result.passed
    assert result.detail.startswith("draw 10: extremal value "), result.detail



def _replaced(real, **changes):
    """real, with these fields of the report it returns replaced."""
    return lambda *args, **kwargs: real(*args, **kwargs).replace(**changes)


def _fixed(real, *args, **kwargs):
    """A fake that returns real(*args, **kwargs) whatever it is called with."""
    return lambda *_, **__: real(*args, **kwargs)


def _audit_edit(theorem, p, key, value):
    """audit_rows, with value(row) in place of row[key] in the row of (theorem, p)."""
    real = selftest.audit_rows

    def rows():
        out = real()
        for row in out:
            if (row["theorem"], row["p"]) == (theorem, p):
                row[key] = value(row)
        return out

    return rows


def _doubled_terms(real):
    """real, its tail doubled: the fractional roundtrip then returns -2 a_k for a_k."""
    def fake(g, eta):
        got = real(g, eta)
        return got.replace(terms={k: 2.0 * t for k, t in got.terms.items()})

    return fake


def _lead_off_at_eta_1(real):
    """real, the leading coefficient 0.25 at eta = 1 (an integral of z, whose leading coefficient is 1/2)."""
    def fake(f, eta):
        got = real(f, eta)
        return got.replace(leading=0.25) if eta == 1.0 else got

    return fake


def _xi_off_at_beta_alpha(real):
    """real, 0.1 off wherever beta = alpha, as in criterion 7's collapse draws but not its canonical xi."""
    def fake(cp, beta):
        rep = real(cp, beta)
        return rep.replace(order=rep.order + 0.1) if beta == cp.alpha else rep

    return fake


def _saturation_off_past_canonical(real):
    """real, its saturation margin 1e-12 off (inside the 1e-10 tolerance) at every class but the canonical one."""
    def fake(cp):
        rep = real(cp)
        return rep if cp == S.CANONICAL else rep.replace(saturation_margin=rep.saturation_margin + 1e-12)

    return fake


def _clock(step):
    """A time module whose perf_counter advances by step at each read."""
    return types.SimpleNamespace(perf_counter=itertools.count(0.0, step).__next__)


S = selftest  # the real functions, read once here, before any test patches them
# name: (check, {selftest name: fake}, regex the row's detail must match); each fake breaks one value the check reads
MISSES = {
    "1 bound": ("check_coefficient_bound", {"coeff_bound_r": lambda k, cp: 0.3},
                r"coeff_bound_r\(2\) = 0\.3, expected exactly 0\.25"),
    "1 terms": ("check_coefficient_bound", {"r_criterion_term": lambda k, cp: 5.0},
                r"canonical criterion terms differ from 4 and 18"),
    "1 margin": ("check_coefficient_bound", {"extremal_r": _fixed(S.make_series, 1, [(2, 0.125)])},
                 r"extremal margin 5\.000e-01 exceeds 1e-12"),
    "1 flip": ("check_coefficient_bound", {"make_series": _fixed(S.extremal_r, 2, S.CANONICAL)},
               r"1\+1e-9 scaled extremal still reported as member"),
    "1 speed": ("check_coefficient_bound", {"time": _clock(0.002)},
                r"canonical check took 2\.000 ms \(budget 1 ms\)"),
    "2": ("check_criterion_oracle_agreement",
          {"subordination_margin": _replaced(S.subordination_margin, passed=False),
           "locate_real_axis_violation": lambda f, cp: (False, 0.5, 0.75)},
          r"member draw 0 failed: max ratio [0-9.]+ at .+; "
          r"super-extremal draw 0 \(sum [0-9.]+\) not caught; best ratio 0\.750000 at r = 0\.500000"),
    "3": ("check_quadrature_closed_form", {"rafid_quadrature": lambda f, rp, z: 0j},
          r"draw 0: relative error 1\.000e\+00 at z = .+"),
    "4 routes": ("check_family_correspondence", {"zf_prime_over_p": lambda f: f},
                 r"draw 0: per-term values differ"),
    "4 bound": ("check_family_correspondence", {"coeff_bound_p": lambda k, cp: 0.3},
                r"canonical P bound 0\.3, expected 0\.125"),
    "6 canonical": ("check_radii",
                    {"radius_starlike": _replaced(S.radius_starlike, candidates=((2, 2.5), (3, 2.0)), argmin_k=3)},
                    r"canonical candidates \(\(2, 2\.5\), \(3, 2\.0\)\) differ from \(2, sqrt 6\); "
                    r"canonical starlike report lost argmin 2 / whole-disk flags; "
                    r"canonical candidate sequence not increasing"),
    "6 convex": ("check_radii", {"radius_convex": _replaced(S.radius_convex, radius=1.0)},
                 r"convex radius 1\.0 exceeds starlike radius 0\.[0-9]+"),
    "6 sign": ("check_radii", {"starlike_min_re": lambda f, zeta, r: types.SimpleNamespace(extremum=zeta)},
               r"no sign change at radius 0\.[0-9]{6} \(in 0\.00e\+00, out 0\.00e\+00\)"),
    "6 draws": ("check_radii",  # the canonical report, radius 2, for every draw
                {"radius_starlike": _fixed(S.radius_starlike, S.CANONICAL, 0.0, k_max=60)},
                r"only 0 radius<1 draws in 4000 attempts"),
    "7 lambda": ("check_hadamard_orders",
                 {"schild_silverman_lambda": _replaced(S.schild_silverman_lambda, order=0.8, verified_best=False)},
                 r"canonical lambda 0\.8 differs from 6/7; canonical saturation not verified \(margin .+\)"),
    "7 xi": ("check_hadamard_orders", {"mixed_order_xi": _replaced(S.mixed_order_xi, order=0.8)},
             r"canonical xi 0\.8 differs from 10/11"),
    "7 collapse": ("check_hadamard_orders", {"mixed_order_xi": _xi_off_at_beta_alpha(S.mixed_order_xi)},
                   r"xi\(beta=alpha\) = .+ differs from lambda .+"),
    "7 saturation": ("check_hadamard_orders",
                     {"schild_silverman_lambda": _saturation_off_past_canonical(S.schild_silverman_lambda)},
                     r"saturation margin \S+ differs from the product's \S+"),
    "8 roundtrip lead, eta 1": (
        "check_fractional_compositions",
        {"fractional_derivative": _replaced(S.fractional_derivative, leading=2.0),
         "gamma_ratio": lambda x, y: 0.5,
         "fractional_integral": _lead_off_at_eta_1(S.fractional_integral)},
        r"draw 0: roundtrip leading 2\.0; eta = 1 multiplier differs from classical 1/\(k\+1\); "
        r"eta = 1 antiderivative of the canonical extremal not exact"),
    "8 roundtrip tail": ("check_fractional_compositions",
                         {"fractional_derivative": _doubled_terms(S.fractional_derivative)},
                         r"draw 0: roundtrip off at indices \[.+\]"),
    "9 T7 lower": ("check_printed_audit", {"audit_rows": _audit_edit(7, 1, "printed_lower", lambda row: 0.0)},
                   r"T7 sign slip not reproduced: printed lower 0\.0 vs derived upper 0\.13194444444444445"),
    "9 T7 upper": ("check_printed_audit", {"audit_rows": _audit_edit(7, 1, "printed_upper", lambda row: row["upper"])},
                   r"T7 printed upper unexpectedly matches the derived value"),
    "9 T8": ("check_printed_audit", {"audit_rows": _audit_edit(8, 1, "printed_lower", lambda row: row["lower"])},
             r"T8 printed leading factor unexpectedly matches"),
    "9 T9": ("check_printed_audit", {"audit_rows": _audit_edit(9, 1, "printed_upper", lambda row: row["upper"])},
             r"T9 printed upper should repeat the printed lower \(sign slip\); "
             r"T9 printed upper unexpectedly matches the derived value"),
    "9 T10": ("check_printed_audit", {"audit_rows": _audit_edit(10, 2, "printed_upper", lambda row: 2.0)},
              r"T10 p=2 tail ratio .+, expected 5/8"),
}


@pytest.mark.parametrize("check, fakes, detail", MISSES.values(), ids=MISSES.keys())
def test_a_missed_criterion_fails_its_row_with_its_text(monkeypatch, check, fakes, detail):
    """Criteria 1-4, 6, 7, 9 and the roundtrip and eta = 1 halves of 8: a broken canonical value, draw or
    printed audit value fails the row, and the detail says which."""
    for name, fake in fakes.items():
        monkeypatch.setattr(selftest, name, fake)
    result = getattr(selftest, check)(seed=0)
    assert not result.passed
    assert re.fullmatch(detail, result.detail), result.detail


def test_criterion_4_catches_a_wrong_zf_prime_over_p(monkeypatch):
    """Both P reports criterion 4 compares go through zf_prime_over_p, so a wrong map agrees with itself; the
    terms (k/p) t_k a_k formed without it do not."""
    def wrong(f):
        return CoefficientSeries(p=f.p, coeffs={k: (f.p / k) * a for k, a in f.coeffs.items()})

    for module in (classes, selftest):
        monkeypatch.setattr(module, "zf_prime_over_p", wrong)
    result = selftest.check_family_correspondence(seed=0)
    assert not result.passed
    assert re.fullmatch(r"draw 0: P terms differ from \(k/p\) t_k a_k at indices \[[0-9, ]+\]", result.detail)
