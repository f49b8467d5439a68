"""The argument rules: integers, tail indices, radii, fractional orders and the Bernardi c.

Each rule has one home (``pvalent.errors``, or ``pvalent.operators`` for eta
and c), so every entry point accepts the same inputs and refuses the rest
with the same error type and message.
"""

import json
import math

import numpy as np
import pytest

from pvalent import (
    ClassParams,
    CoefficientSeries,
    FractionalSeries,
    RafidParams,
    SampleGrid,
    apply_rafid,
    bernardi,
    budget_certified,
    check_p_membership,
    check_r_membership,
    class_order_candidate,
    coeff_bound_p,
    coeff_bound_r,
    composition_bound,
    convex_min_re,
    ctc_max_dev,
    derivative_m,
    distortion_bounds,
    distortion_curve,
    extremal_p,
    extremal_r,
    fractional_derivative,
    fractional_integral,
    from_json,
    gamma_ratio,
    locate_real_axis_violation,
    lower_bound_peak,
    make_series,
    mixed_order_candidate,
    mixed_order_xi,
    r_criterion_term,
    radius_close_to_convex,
    radius_convex,
    radius_starlike,
    rafid_quadrature,
    rafid_weight,
    schild_silverman_lambda,
    starlike_min_re,
    subordination_certified,
    subordination_margin,
    subordination_ratio_real,
)
from pvalent.classes import log_r_criterion_term
from pvalent.cli import main
from pvalent.errors import (
    IndexBelowValenceError, NonpositiveArgumentError, ParameterOutOfRangeError, RadiusOutOfRangeError,
    SeriesFormatError,
)

CP = ClassParams(p=2, alpha=0.5, mu=0.3, delta=0.5)
F1 = make_series(1, [(2, 0.1), (4, 0.02)])
F2 = make_series(2, [(3, 0.05), (5, 0.01)])
RP = RafidParams(mu=0.3, delta=0.5)
CANON = ["--alpha", "0", "--A", "1", "--B", "-1"]


def _plain(x):
    """A comparable form of an entry's result: reports as dicts, curves as sample tuples."""
    if hasattr(x, "to_dict"):
        return x.to_dict()
    return x.samples if hasattr(x, "samples") else x


# entry name -> (call with the integer argument, a valid value, the documented error type)
INTEGER_ENTRIES = {
    "make_series p": (lambda v: make_series(v, [(3, 0.1)]), 2, ParameterOutOfRangeError),
    "make_series index": (lambda v: make_series(2, [(v, 0.1)]), 4, IndexBelowValenceError),
    "FractionalSeries p": (
        lambda v: FractionalSeries(p=v, shift=0.0, leading=1.0, terms={3: -0.1}).evaluate(0.5),
        2,
        ParameterOutOfRangeError,
    ),
    "ClassParams p": (lambda v: ClassParams(p=v, alpha=0.5), 2, ParameterOutOfRangeError),
    "derivative_m": (lambda v: derivative_m(F2, v), 1, ParameterOutOfRangeError),
    "budget_certified": (lambda v: budget_certified(CP, v), 1, ParameterOutOfRangeError),
    "distortion_bounds": (lambda v: distortion_bounds(CP, v, 0.5), 1, ParameterOutOfRangeError),
    "distortion_curve": (lambda v: distortion_curve(CP, v, [0.2, 0.5]), 1, ParameterOutOfRangeError),
    "r_criterion_term": (lambda v: r_criterion_term(v, CP), 4, IndexBelowValenceError),
    "log_r_criterion_term": (lambda v: log_r_criterion_term(v, CP), 4, IndexBelowValenceError),
    "coeff_bound_r": (lambda v: coeff_bound_r(v, CP), 4, IndexBelowValenceError),
    "coeff_bound_p": (lambda v: coeff_bound_p(v, CP), 4, IndexBelowValenceError),
    "extremal_r": (lambda v: extremal_r(v, CP), 4, IndexBelowValenceError),
    "extremal_p": (lambda v: extremal_p(v, CP), 4, IndexBelowValenceError),
    "mixed_order_candidate": (lambda v: mixed_order_candidate(v, CP, 1.0), 4, IndexBelowValenceError),
    "class_order_candidate": (lambda v: class_order_candidate(v, CP), 4, IndexBelowValenceError),
    "rafid_weight k": (lambda v: rafid_weight(v, 2, RP), 4, IndexBelowValenceError),
    "rafid_weight p": (lambda v: rafid_weight(4, v, RP), 2, ParameterOutOfRangeError),
    "radius_starlike": (lambda v: radius_starlike(CP, 0.5, k_max=v), 40, ParameterOutOfRangeError),
    "radius_convex": (lambda v: radius_convex(CP, 0.5, k_max=v), 40, ParameterOutOfRangeError),
    "radius_close_to_convex": (
        lambda v: radius_close_to_convex(CP, 0.5, k_max=v), 40, ParameterOutOfRangeError
    ),
    "schild_silverman_lambda": (
        lambda v: schild_silverman_lambda(CP, k_max=v), 40, ParameterOutOfRangeError
    ),
    "mixed_order_xi": (lambda v: mixed_order_xi(CP, 1.0, k_max=v), 40, ParameterOutOfRangeError),
    "composition_bound theorem": (
        lambda v: composition_bound(v, CP, 1.0, 0.5, 0.5), 7, ParameterOutOfRangeError
    ),
    "SampleGrid angles": (
        lambda v: subordination_margin(F1, ClassParams(), SampleGrid(angles_per_radius=v)),
        64,
        ParameterOutOfRangeError,
    ),
    "SampleGrid refinement": (
        lambda v: subordination_margin(F1, ClassParams(), SampleGrid(angles_per_radius=16, refinement=v)),
        1,
        ParameterOutOfRangeError,
    ),
    "starlike_min_re": (lambda v: starlike_min_re(F1, 0.0, 0.5, n_angles=v), 64, ParameterOutOfRangeError),
    "convex_min_re": (lambda v: convex_min_re(F1, 0.0, 0.5, n_angles=v), 64, ParameterOutOfRangeError),
    "ctc_max_dev": (lambda v: ctc_max_dev(F1, 0.0, 0.5, n_angles=v), 64, ParameterOutOfRangeError),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_arguments_take_numpy_integers_and_refuse_the_rest(entry):
    call, valid, error = INTEGER_ENTRIES[entry]
    assert _plain(call(np.int64(valid))) == _plain(call(valid))
    for bad in (True, 2.5, None):
        with pytest.raises(error):
            call(bad)


def test_numpy_valence_gives_plain_results():
    """A numpy valence is stored as an int, and a series' or grid's other numpy scalars as plain numbers, so JSON
    and reports read the same."""
    assert repr(ClassParams(p=np.int64(2))) == repr(ClassParams(p=2))
    assert repr(make_series(np.int64(1), [(np.int64(3), 0.1)])) == repr(make_series(1, [(3, 0.1)]))
    assert repr(extremal_r(np.int64(3), ClassParams())) == repr(extremal_r(3, ClassParams()))
    assert schild_silverman_lambda(ClassParams(p=np.int64(2))).to_dict()["saturating_k"] == 3
    numpy_series = FractionalSeries(p=np.int64(2), shift=np.float64(0.5), leading=np.float64(1.0), terms={3: -0.1})
    assert repr(numpy_series) == repr(FractionalSeries(p=2, shift=0.5, leading=1.0, terms={3: -0.1}))
    numpy_terms = FractionalSeries(1, 0.0, 1.0, {np.int64(3): np.float64(-0.1), 2.0: -0.1})
    assert repr(numpy_terms) == repr(FractionalSeries(1, 0.0, 1.0, {3: -0.1, 2: -0.1}))
    assert [(type(k), type(c)) for k, c in numpy_terms.terms.items()] == [(int, float)] * 2
    numpy_grid = SampleGrid(radii=[np.float64(0.5)], angles_per_radius=np.int64(16), refinement=np.int64(1))
    assert repr(numpy_grid) == repr(SampleGrid(radii=(0.5,), angles_per_radius=16, refinement=1))


# entry -> (call with a float argument, a valid value): the float the call returns
FLOAT_ENTRIES = {
    "ClassParams delta": (lambda v: ClassParams(delta=v).delta, 0.5),
    "mixed_order_xi beta": (lambda v: mixed_order_xi(ClassParams(p=2, alpha=0.5, mu=0.3), v).order, 1.0),
    "schild_silverman_lambda alpha": (
        lambda v: schild_silverman_lambda(ClassParams(p=2, alpha=v, mu=0.3)).order, 0.5
    ),
    "composition_bound c": (lambda v: composition_bound(7, CP, v, 0.5, 0.5).lower, 1.0),
    "composition_bound eta": (lambda v: composition_bound(8, CP, 1.0, v, 0.5).upper, 0.5),
    "lower_bound_peak c": (lambda v: lower_bound_peak(10, CP, v, 0.5), 1.0),
    "radius_starlike zeta": (lambda v: radius_starlike(CP, v).zeta, 0.5),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
def test_numpy_float_arguments_give_plain_floats(entry):
    call, valid = FLOAT_ENTRIES[entry]
    got = call(np.float64(valid))
    assert type(got) is float and got == call(valid)


def test_order_refused_as_a_bool_after_its_integer_was_cached():
    cp = ClassParams(p=2, mu=0.6, delta=0.2)
    expected = budget_certified(cp, 1)
    with pytest.raises(ParameterOutOfRangeError):
        budget_certified(cp, True)
    assert budget_certified(cp, 1) == expected


@pytest.mark.parametrize("p", [1.5, True])
def test_fractional_series_refuses_a_valence_that_is_not_an_integer(p):
    # both were once accepted, and evaluate() then raised a bare TypeError
    with pytest.raises(ParameterOutOfRangeError, match="valence p must be an integer >= 1"):
        FractionalSeries(p=p, shift=0.0, leading=1.0, terms={3: -0.1})


def test_indices_may_be_integer_valued_floats():
    assert make_series(2, [(4.0, 0.1)]) == make_series(2, [(4, 0.1)])
    assert coeff_bound_r(4.0, CP) == coeff_bound_r(4, CP)
    assert extremal_p(4.0, CP) == extremal_p(4, CP)
    assert class_order_candidate(4.0, CP) == class_order_candidate(4, CP)


# every function that reads a series' indices, each through series._support
SERIES_READERS = {
    "check_r_membership": check_r_membership,
    "check_p_membership": check_p_membership,
    "apply_rafid": lambda f, cp: apply_rafid(f, cp.rafid),
    "rafid_quadrature": lambda f, cp: rafid_quadrature(f, cp.rafid, 0.5),
    "subordination_certified": subordination_certified,
    "subordination_margin": subordination_margin,
    "subordination_ratio_real": lambda f, cp: subordination_ratio_real(f, cp, 0.5),
    "locate_real_axis_violation": locate_real_axis_violation,
    "starlike_min_re": lambda f, cp: starlike_min_re(f, 0.0, 0.5),
    "convex_min_re": lambda f, cp: convex_min_re(f, 0.0, 0.5),
    "ctc_max_dev": lambda f, cp: ctc_max_dev(f, 0.0, 0.5),
}
INDEX_ENTRIES = {
    "make_series": lambda k, cp: make_series(cp.p, [(k, 0.1)]),
    "FractionalSeries": lambda k, cp: FractionalSeries(p=cp.p, shift=0.0, leading=1.0, terms={k: -0.1}),
    **{
        name: lambda k, cp, read=read: read(CoefficientSeries(cp.p, {k: 0.1}), cp)
        for name, read in SERIES_READERS.items()
    },
    "r_criterion_term": r_criterion_term,
    "log_r_criterion_term": log_r_criterion_term,
    "coeff_bound_r": coeff_bound_r,
    "coeff_bound_p": coeff_bound_p,
    "extremal_r": extremal_r,
    "extremal_p": extremal_p,
    "mixed_order_candidate": lambda k, cp: mixed_order_candidate(k, cp, 0.0),
    "class_order_candidate": class_order_candidate,
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("p", [1, 2])
def test_index_at_the_valence_raises_index_below_valence(entry, p):
    with pytest.raises(IndexBelowValenceError, match=f"index must be an integer >= {p + 1}, got {p}"):
        INDEX_ENTRIES[entry](p, ClassParams(p=p))


@pytest.mark.parametrize("entry", sorted(SERIES_READERS))
@pytest.mark.parametrize("coeffs", [{1: 0.0}, {1: -0.0, 2: 0.0}, {0: 0.1}], ids=["zero", "zeros", "nonzero"])
def test_an_index_below_the_valence_is_refused_by_every_reader(entry, coeffs):
    """A zero or nonzero index below p was once read by five readers and refused naming p, the walk's own bound,
    by four: every reader names p+1."""
    low = min(coeffs)
    with pytest.raises(IndexBelowValenceError, match=f"^index must be an integer >= 3, got {low}$"):
        SERIES_READERS[entry](CoefficientSeries(2, coeffs), ClassParams(p=2))


RADIUS_ENTRIES = {
    "distortion_bounds": lambda r: distortion_bounds(ClassParams(), 1, r),
    "distortion_curve": lambda r: distortion_curve(ClassParams(), 1, [0.5, r]),
    "composition_bound": lambda r: composition_bound(7, ClassParams(), 1.0, 0.5, r),
    "composition_bound derived only": lambda r: composition_bound(
        8, ClassParams(), 1.0, 0.5, r, include_printed=False
    ),
    "SampleGrid": lambda r: SampleGrid(radii=(r,)),
    "subordination_ratio_real": lambda r: subordination_ratio_real(F1, ClassParams(), r),
    "starlike_min_re": lambda r: starlike_min_re(F1, 0.0, r),
    "convex_min_re": lambda r: convex_min_re(F1, 0.0, r),
    "ctc_max_dev": lambda r: ctc_max_dev(F1, 0.0, r),
}


@pytest.mark.parametrize("entry", sorted(RADIUS_ENTRIES))
@pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_radius_outside_the_unit_interval_refused_alike(entry, r):
    RADIUS_ENTRIES[entry](0.5)  # a call that fills the per-parameter memo does not let a bad r through
    with pytest.raises(RadiusOutOfRangeError, match=r"radius must lie in \(0, 1\)") as info:
        RADIUS_ENTRIES[entry](r)
    assert isinstance(info.value, ParameterOutOfRangeError)


NUMBER = "every coefficient must be a JSON number"
INDEX = "every index must be a JSON number"
# entry -> (call, the documented error type, its message)
REFUSALS = {
    "composition_bound theorem 11": (
        lambda: composition_bound(11, CP, 1.0, 0.5, 0.5),
        ParameterOutOfRangeError,
        r"theorem must be one of \(7, 8, 9, 10\), got 11",
    ),
    "gamma_ratio at 0": (
        lambda: gamma_ratio(0.0, 1.0), NonpositiveArgumentError, "gamma_ratio needs finite positive arguments, got 0.0, 1.0"
    ),
    "make_series inf": (
        lambda: make_series(1, [(2, math.inf)]), ParameterOutOfRangeError, "coefficient at index 2 is not finite"
    ),
    "derivative_m at shift 0.5": (
        lambda: derivative_m(FractionalSeries(p=1, shift=0.5, leading=1.0), 1),
        ParameterOutOfRangeError,
        "integer derivative needs integer exponents",
    ),
    "from_json float p": (lambda: from_json('{"p": 1.0}'), SeriesFormatError, '"p" must be an integer'),
    "from_json string coefficient": (lambda: from_json('{"p": 1, "coeffs": [[2, "0.5"]]}'), SeriesFormatError, NUMBER),
    "from_json bool coefficient": (lambda: from_json('{"p": 1, "coeffs": [[2, true]]}'), SeriesFormatError, NUMBER),
    "from_json null coefficient": (lambda: from_json('{"p": 1, "coeffs": [[2, null]]}'), SeriesFormatError, NUMBER),
    "from_json list coefficient": (lambda: from_json('{"p": 1, "coeffs": [[2, [0.5]]]}'), SeriesFormatError, NUMBER),
    "from_json string index": (lambda: from_json('{"p": 1, "coeffs": [["2", 0.5]]}'), SeriesFormatError, INDEX),
    "from_json bool index": (lambda: from_json('{"p": 1, "coeffs": [[true, 0.5]]}'), SeriesFormatError, INDEX),
    "from_json null index": (lambda: from_json('{"p": 1, "coeffs": [[null, 0.5]]}'), SeriesFormatError, INDEX),
    "from_json list index": (lambda: from_json('{"p": 1, "coeffs": [[[2], 0.5]]}'), SeriesFormatError, INDEX),
    "from_json fractional index": (
        lambda: from_json('{"p": 1, "coeffs": [[2.5, 0.5]]}'), IndexBelowValenceError, "index must be an integer >= 2"
    ),
    "from_json index p": (
        lambda: from_json('{"p": 1, "coeffs": [[1, 0.5]]}'), IndexBelowValenceError, "index must be an integer >= 2"
    ),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_refusals_name_their_rule(entry):
    call, error, message = REFUSALS[entry]
    with pytest.raises(error, match=message):
        call()


def _message(call):
    with pytest.raises(ParameterOutOfRangeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("c", [-1.0, -3.0, math.nan, math.inf])
def test_bernardi_constant_refused_alike_by_operator_and_bounds(c):
    msg = _message(lambda: bernardi(F1, c))
    assert _message(lambda: composition_bound(7, ClassParams(), c, 0.5, 0.5)) == msg


@pytest.mark.parametrize("theorem, eta", [(7, 0.0), (7, math.inf), (10, -1.0), (8, 1.0), (9, math.nan)])
def test_fractional_order_refused_alike_by_operator_and_bounds(theorem, eta):
    op = fractional_integral if theorem in (7, 10) else fractional_derivative
    msg = _message(lambda: op(F1, eta))
    assert _message(lambda: composition_bound(theorem, ClassParams(), 1.0, eta, 0.5)) == msg


def _cli_error(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    return json.loads(out.err)["error"]


def test_cli_error_names_follow_the_rules(capsys):
    bound = ["fracbound", "--theorem", "7", "--c", "1", "--eta", "1", "--rmax", "0.5", *CANON]
    assert _cli_error(capsys, [*bound, "--rmin", "1", "--steps", "1"]) == "RadiusOutOfRangeError"
    assert _cli_error(capsys, [*bound, "--rmin", "0.5", "--steps", "0"]) == "ParameterOutOfRangeError"
    assert _cli_error(capsys, ["extremal", "--k", "1", "--class", "r", *CANON]) == "IndexBelowValenceError"
