"""End-to-end command behavior: JSON reports, CSV curves, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvalent
from pvalent.cli import build_parser, main

CANON = ["--alpha", "0", "--A", "1", "--B", "-1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_reports_membership(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.25]]}')
    code, out, err = run(capsys, ["check", str(path), "--class", "r", *CANON])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["member"] is True
    assert rep["margin"] == 0.0


def test_extremal_check_round_trip(tmp_path, capsys):
    for family in ("r", "p"):
        argv = ["extremal", "--k", "3", "--class", family, "--alpha", "0.2",
                "--A", "0.9", "--B", "-0.7", "--mu", "0.1", "--delta", "0.8"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        path = tmp_path / f"ext_{family}.json"
        assert run(capsys, [*argv, "--out", str(path)]) == (0, "", "")
        assert path.read_text() == out
        code, out, _ = run(
            capsys,
            ["check", str(path), "--class", family, "--alpha", "0.2",
             "--A", "0.9", "--B", "-0.7", "--mu", "0.1", "--delta", "0.8"],
        )
        assert code == 0
        assert abs(json.loads(out)["margin"]) <= 1e-10


def test_extremal_near_mu_one(capsys):
    """The k = 66 term underflows in linear space at mu = 0.99999; the bound is ~2.78e230."""
    code, out, err = run(
        capsys, ["extremal", "--k", "66", "--class", "r", *CANON, "--mu", "0.99999"]
    )
    assert code == 0 and err == ""
    [[k, a]] = json.loads(out)["coeffs"]
    assert k == 66 and a == pytest.approx(2.7834e230, rel=1e-4)


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"p": 1, "coeffs": [[2, 0.1]]}'))
    code, out, _ = run(capsys, ["check", "-", "--class", "r", *CANON])
    assert code == 0
    assert json.loads(out)["sum"] == pytest.approx(0.4, rel=1e-15)


def test_radius_json(capsys):
    code, out, _ = run(capsys, ["radius", "--kind", "starlike", "--zeta", "0", *CANON])
    assert code == 0
    rep = json.loads(out)
    assert rep["argmin_k"] == 2
    assert rep["radius"] == pytest.approx(2.0, abs=1e-12)


def test_distortion_csv_header(capsys):
    code, out, _ = run(
        capsys,
        ["distortion", "--m", "1", "--rmin", "0.1", "--rmax", "0.5", "--steps", "3", *CANON],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,lower,upper"
    assert len(lines) == 4
    r, lo, up = (float(x) for x in lines[-1].split(","))
    assert (r, lo, up) == (0.5, 0.75, 1.25)


def test_distortion_past_the_factorial_range(capsys):
    # fallfac(171, 170) = 171! is no double, yet both bounds are: a CSV row, not a traceback
    argv = ["distortion", "--p", "170", "--m", "170", *CANON, "--rmin", "0.5", "--rmax", "0.5", "--steps", "1"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out.splitlines() == ["r,lower,upper", "0.5,3.649928321149052e+306,1.0864902909466946e+307"]
    # at p = 171, A0 = 171! itself is past double range: exit 1 with the JSON error line
    code, out, err = run(capsys, [argv[0], "--p", "171", "--m", "171", *argv[5:]])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DivergentInputError"


def test_fracbound_csv_with_printed_columns(capsys):
    code, out, _ = run(
        capsys,
        ["fracbound", "--theorem", "7", "--c", "1", "--eta", "1",
         "--rmin", "0.5", "--rmax", "0.5", "--steps", "1", "--as-printed", *CANON],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,lower,upper,printed_lower,printed_upper"
    row = [float(x) for x in lines[1].split(",")]
    assert row[1] == 17.0 / 144.0
    assert row[3] == pytest.approx(row[2], rel=1e-15)  # the T7 sign slip


def test_fracbound_csv_without_printed(capsys):
    code, out, _ = run(
        capsys,
        ["fracbound", "--theorem", "7", "--c", "1", "--eta", "1",
         "--rmin", "0.25", "--rmax", "0.75", "--steps", "3", *CANON],
    )
    assert code == 0
    assert out.strip().splitlines()[0] == "r,lower,upper"


def test_hadamard_extremal_mode(capsys):
    code, out, _ = run(capsys, ["hadamard", "--extremal", "--beta", "0.5", *CANON])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == pytest.approx(10.0 / 11.0, abs=1e-12)
    assert rep["product"]["member"] is True


def test_hadamard_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"p": 1, "coeffs": [[2, 0.25]]}')
    b.write_text('{"p": 1, "coeffs": [[2, 0.1]]}')
    code, out, _ = run(capsys, ["hadamard", str(a), str(b), *CANON])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert rep["product"]["member"] is True


def test_hadamard_wrong_file_count_exits_two(tmp_path):
    a = tmp_path / "a.json"
    a.write_text('{"p": 1, "coeffs": [[2, 0.25]]}')
    with pytest.raises(SystemExit) as exc:
        main(["hadamard", str(a), *CANON])
    assert exc.value.code == 2


def test_oracle_subordination_json(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.25]]}')
    code, out, _ = run(capsys, ["oracle", str(path), "--check", "subordination", *CANON])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert set(rep) == {"check", "extremum", "threshold", "arg_z", "pass", "tolerance", "n_angles", "warnings"}
    assert rep["tolerance"] == 1e-9
    assert rep["n_angles"] == 512  # the samples of 256 angles pass, but U between them needs one doubling


def test_oracle_failure_still_exits_zero(tmp_path, capsys):
    # the verdict lives in the JSON, not the exit status
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.3]]}')
    code, out, _ = run(capsys, ["oracle", str(path), "--check", "subordination", *CANON])
    assert code == 0
    assert json.loads(out)["pass"] is False


def test_oracle_subordination_samples_the_given_radius(tmp_path, capsys):
    # --r once went unread by the subordination check, which sampled 0.99 whatever was given
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.1], [3, 0.05]]}')
    argv = ["oracle", str(path), "--check", "subordination", *CANON]
    reports = {r: json.loads(run(capsys, argv + ([] if r is None else ["--r", r]))[1]) for r in (None, "0.3", "0.9")}
    assert [rep["arg_z"] for rep in reports.values()] == [{"re": x, "im": 0.0} for x in (0.99, 0.3, 0.9)]
    assert reports["0.3"]["extremum"] < reports["0.9"]["extremum"] < reports[None]["extremum"]
    code, out, err = run(capsys, argv + ["--r", "1.0"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "RadiusOutOfRangeError"


@pytest.mark.parametrize("check", ["subordination", "starlike", "convex", "ctc"])
def test_oracle_too_few_angles_exits_one(tmp_path, capsys, check):
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.1]]}')
    code, out, err = run(capsys, ["oracle", str(path), "--check", check, "--angles", "0", *CANON])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParameterOutOfRangeError"


@pytest.mark.parametrize("check", ["starlike", "convex", "ctc"])
def test_oracle_order_outside_zero_to_p_exits_one(tmp_path, capsys, check):
    # zeta = 5 at p = 1 once printed a threshold of -4.0 and exited 0
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.26]]}')
    argv = ["oracle", str(path), "--check", check, "--zeta", "5", "--r", "0.5", *CANON]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParameterOutOfRangeError", "message": "zeta must lie in [0, p), got 5.0"}


def test_domain_error_exits_one(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, -0.5]]}')
    code, out, err = run(capsys, ["check", str(path), "--class", "r", *CANON])
    assert code == 1
    msg = json.loads(err)
    assert msg["error"] == "NegativeCoefficientError"


def test_alpha_out_of_range_exits_one(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"p": 1, "coeffs": [[2, 0.1]]}')
    code, _, err = run(capsys, ["check", str(path), "--class", "r",
                                "--alpha", "2", "--A", "1", "--B", "-1"])
    assert code == 1
    assert json.loads(err)["error"] == "ParameterOutOfRangeError"


def test_io_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, ["check", str(tmp_path / "missing.json"),
                                "--class", "r", *CANON])
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 1')
    code, _, err = run(capsys, ["check", str(bad), "--class", "r", *CANON])
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_non_number_coefficient_exits_two(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"p": 1, "coeffs": [[2, null]]}'))
    code, out, err = run(capsys, ["check", "-", "--class", "r", *CANON])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "SeriesFormatError", "message": "every coefficient must be a JSON number"}


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--kind", "wobbly", *CANON])
    assert exc.value.code == 2


def test_selftest_runs_clean(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "11"])
    assert code == 0
    assert "9/9 checks passed (seed 11)" in out
    assert "printed-vs-derived audit" in out


def test_selftest_refuses_a_negative_seed(capsys):
    # -1 once failed all nine rows with the generator's ValueError, as if the package were broken
    assert build_parser().parse_args(["selftest"]).seed == 0
    code, out, err = run(capsys, ["selftest", "--seed", "-1"])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ParameterOutOfRangeError", "message": "seed must be an integer >= 0, got -1"
    }


def _child(*argv):
    # the child finds the package where this process found it, installed or not
    src = str(Path(pvalent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _child("-m", "pvalent.cli", "--help")
    assert proc.returncode == 0
    assert "selftest" in proc.stdout


IMPORT_FOOTPRINT = """
import contextlib, io, json, sys
import pvalent
assert "scipy" not in sys.modules
import pvalent.cli
canon = ["--alpha", "0", "--A", "1", "--B", "-1"]
calls = [
    ["check", "-", "--class", "r"],
    ["extremal", "--k", "3", "--class", "p"],
    ["radius", "--kind", "starlike"],
    ["distortion", "--m", "1", "--rmin", "0.1", "--rmax", "0.9", "--steps", "3"],
    ["hadamard", "--extremal", "--beta", "0.5"],
    ["fracbound", "--theorem", "7", "--c", "1", "--eta", "1", "--rmin", "0.1", "--rmax", "0.9"],
]
sys.stdin = io.StringIO('{"p": 1, "coeffs": [[2, 0.25]]}')
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert pvalent.cli.main(argv + canon) == 0, argv
    assert out.getvalue(), argv
print(json.dumps(sorted({"numpy", "scipy"} & set(sys.modules))))
names = sorted(pvalent.__all__)
margin = pvalent.subordination_margin(pvalent.make_series(1), pvalent.ClassParams())
namespace = {}
exec("from pvalent import *", namespace)
print(json.dumps([names, margin.passed, callable(namespace["subordination_ratio_real"])]))
"""

# every public name, the oracle's included although they load on first access
PUBLIC_NAMES = {
    "BoundCurve", "ClassParams", "CoefficientSeries", "CompositionBound",
    "ConvolutionOrderReport", "DegenerateDenominatorError", "DivergentInputError",
    "DomainError", "DuplicateIndexError", "ExponentUnderflowError", "FractionalSeries",
    "IndexBelowValenceError", "MembershipReport", "NegativeCoefficientError",
    "NonpositiveArgumentError", "OracleReport", "OrderExceedsValenceError",
    "ParameterOutOfRangeError", "PoleOnGridError", "RadiusOutOfRangeError", "RadiusReport",
    "RafidParams", "SampleGrid", "SeriesFormatError", "UncertifiedBoundWarning", "ValenceMismatchError",
    "apply_rafid", "bernardi", "budget_certified", "calculus_bounds", "check_p_membership",
    "check_r_membership", "class_order_candidate", "classes", "coeff_bound_p",
    "coeff_bound_r", "composed_extremal", "composition_bound", "composition_certified",
    "convex_min_re", "ctc_max_dev", "derivative_m", "distortion_bounds", "distortion_curve",
    "errors", "evaluate", "extremal_p", "extremal_r", "fractional_derivative",
    "fractional_integral", "from_json", "gamma_ratio", "geometry", "hadamard",
    "hadamard_product", "locate_real_axis_violation", "lower_bound_peak", "make_series",
    "mixed_order_candidate", "mixed_order_xi", "operators", "oracle", "r_criterion_term",
    "radius_close_to_convex", "radius_convex", "radius_starlike", "rafid_quadrature",
    "rafid_weight", "random_member", "random_params", "schild_silverman_lambda", "series",
    "starlike_min_re", "subordination_certified", "subordination_margin",
    "subordination_ratio_real", "to_json", "zf_prime_over_p",
}


def test_non_sampling_subcommands_run_without_numpy():
    proc = _child("-c", IMPORT_FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    loaded, rest = proc.stdout.splitlines()
    assert json.loads(loaded) == []
    names, passed, star = json.loads(rest)
    assert set(names) == PUBLIC_NAMES
    assert passed and star


PARSER_FOOTPRINT = """
import json, sys
import pvalent.cli
parser = pvalent.cli.build_parser()
loaded = "pvalent.calculus_bounds" in sys.modules
fracbound = parser._subparsers._group_actions[0].choices["fracbound"]
theorem = next(a for a in fracbound._actions if a.dest == "theorem")
print(json.dumps([loaded, list(theorem.choices)]))
"""


def test_fracbound_theorem_choices_are_the_composition_table():
    # the parser spells the set out so that building it does not import calculus_bounds (cold start)
    from pvalent.calculus_bounds import THEOREMS

    proc = _child("-c", PARSER_FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    loaded, choices = json.loads(proc.stdout)
    assert not loaded
    assert tuple(choices) == THEOREMS


SUBCOMMAND_FOOTPRINT = """
import contextlib, io, json, sys
import pvalent.cli
sys.stdin = io.StringIO('{"p": 1, "coeffs": [[2, 0.25]]}')
with contextlib.redirect_stdout(io.StringIO()):
    assert pvalent.cli.main(sys.argv[1:] + ["--alpha", "0", "--A", "1", "--B", "-1"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("pvalent."))))
"""


@pytest.mark.parametrize(
    "argv", [["check", "-", "--class", "r"], ["extremal", "--k", "3", "--class", "p"]]
)
def test_check_and_extremal_load_only_their_modules(argv):
    proc = _child("-c", SUBCOMMAND_FOOTPRINT, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == [
        "pvalent.classes", "pvalent.cli", "pvalent.errors", "pvalent.operators", "pvalent.series"
    ]


@pytest.mark.parametrize("printed", [[], ["--as-printed"]])
def test_fracbound_infinite_order_exits_one(capsys, printed):
    code, out, err = run(
        capsys,
        ["fracbound", "--theorem", "7", "--c", "1", "--eta", "inf",
         "--rmin", "0.5", "--rmax", "0.5", "--steps", "1", *printed, *CANON],
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParameterOutOfRangeError"


@pytest.mark.parametrize("eta", ["3e305", "1e300"])
def test_fracbound_at_a_huge_integral_order(capsys, eta):
    # at 3e305 this once exited 1 with an OverflowError traceback, then with A0 = inf "past double range"
    code, out, err = run(
        capsys,
        ["fracbound", "--theorem", "10", "--c", "1", "--eta", eta,
         "--rmin", "0.5", "--rmax", "0.5", "--steps", "1", *CANON],
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["r,lower,upper", "0.5,0.0,0.0"]


@pytest.mark.parametrize("theorem, c, eta", [("9", "-0.5", "0.5"), ("10", "-1.5", "0.5"), ("7", "1", "4")])
def test_fracbound_undefined_printed_form_exits_one(capsys, theorem, c, eta):
    # 9 and 10: a printed denominator c -+ eta + 1 of 0; 7: Gamma(p - eta + 2) at eta = p + 2
    argv = ["fracbound", "--theorem", theorem, "--c", c, "--eta", eta, "--rmin", "0.2", "--rmax", "0.8",
            "--p", "2", *CANON]
    code, out, err = run(capsys, [*argv, "--as-printed"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError" and "include_printed=False" in payload["message"]
    code, out, err = run(capsys, argv)  # the derived bounds alone are defined there
    assert code == 0 and err == "" and out.startswith("r,lower,upper\n")


@pytest.mark.parametrize("theorem", ["8", "9", "10"])
def test_fracbound_as_printed_past_double_range(capsys, theorem):
    code, out, err = run(
        capsys,
        ["fracbound", "--theorem", theorem, "--c", "1", "--eta", "0.5", "--rmin", "0.2", "--rmax", "0.8",
         "--steps", "3", "--as-printed", "--p", "200", *CANON],
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "r,lower,upper,printed_lower,printed_upper" and len(lines) == 4
    for line in lines[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(","))
