"""The contract of the twelve value and report types: construction, repr, equality, hashing, immutability,
copies and ``replace``, each read the same way for every type."""

import copy
import pickle

import numpy as np
import pytest

from pvalent import (
    BoundCurve, ClassParams, CoefficientSeries, CompositionBound, ConvolutionOrderReport, FractionalSeries,
    MembershipReport, OracleReport, ParameterOutOfRangeError, RadiusReport, RafidParams, SampleGrid,
)
from pvalent.selftest import CheckResult

# type -> (field names in order, one valid positional argument tuple, a field and another valid value for it)
TYPES = {
    ClassParams: (("p", "alpha", "A", "B", "mu", "delta"), (2, 0.5, 0.8, -0.5, 0.3, 0.7), "mu", 0.4),
    MembershipReport: (("sum", "member", "margin", "per_term"), (0.25, True, 0.75, ((2, 0.25),)), "margin", 0.5),
    RafidParams: (("mu", "delta"), (0.3, 0.7), "delta", 0.5),
    CoefficientSeries: (("p", "coeffs"), (1, {2: 0.25}), "coeffs", {3: 0.1}),
    FractionalSeries: (("p", "shift", "leading", "terms"), (1, 0.5, 2.0, {2: -0.1}), "shift", -0.5),
    BoundCurve: (("m", "samples"), (1, ((0.5, 0.25, 0.75),)), "m", 0),
    RadiusReport: (
        ("kind", "radius", "argmin_k", "zeta", "candidates", "certified", "whole_disk"),
        ("starlike", 0.5, 2, 0.0, ((2, 0.5), (3, 0.6)), True, False), "radius", 0.25,
    ),
    ConvolutionOrderReport: (
        ("order", "saturating_k", "verified_best", "phi_increasing", "saturation_margin"),
        (0.5, 2, True, True, 0.0), "order", 0.25,
    ),
    CompositionBound: (
        ("theorem", "c", "eta", "r", "lower", "upper", "printed_lower", "printed_upper"),
        (7, 1.0, 0.5, 0.5, 0.1, 0.9, 0.2, 0.8), "upper", 1.0,
    ),
    SampleGrid: (("radii", "angles_per_radius", "refinement"), ((0.5, 0.9), 64, 1), "refinement", 0),
    OracleReport: (
        ("check", "extremum", "threshold", "arg_z", "passed", "tolerance", "n_angles", "warnings"),
        ("subordination", 0.5, 1.0, 0.9 + 0j, True, 1e-9, 256, ("a warning",)), "extremum", 0.75,
    ),
    CheckResult: (("name", "passed", "detail", "elapsed"), ("radii", True, "ok", 0.01), "detail", "changed"),
}

# type -> the defaults of its trailing fields
DEFAULTS = {
    ClassParams: {"p": 1, "alpha": 0.0, "A": 1.0, "B": -1.0, "mu": 0.0, "delta": 1.0},
    RafidParams: {"mu": 0.0, "delta": 1.0},
    FractionalSeries: {"terms": {}},
    CompositionBound: {"printed_lower": None, "printed_upper": None},
    SampleGrid: {
        "radii": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99), "angles_per_radius": 256, "refinement": 2,
    },
    OracleReport: {"warnings": ()},
}

# the series hold a dict, so they compare but do not hash
UNHASHABLE = {CoefficientSeries, FractionalSeries}

names = pytest.mark.parametrize("cls", list(TYPES), ids=lambda cls: cls.__name__)


def _instance(cls):
    return cls(*TYPES[cls][1])


@names
def test_repr_names_every_field_in_order(cls):
    fields, args, _, _ = TYPES[cls]
    assert repr(_instance(cls)) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, args))})"


@names
def test_keyword_and_positional_construction_agree(cls):
    fields, args, _, _ = TYPES[cls]
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == _instance(cls)
    assert [getattr(by_keyword, f) for f in fields] == list(args)
    match by_keyword:
        case cls(first, second):  # positional patterns read the fields in order
            assert (first, second) == args[:2]
        case _:
            pytest.fail(f"{by_keyword!r} does not match {cls.__name__}(first, second)")


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda cls: cls.__name__)
def test_defaults(cls):
    fields, args, _, _ = TYPES[cls]
    defaults = DEFAULTS[cls]
    required = args[: len(fields) - len(defaults)]
    made = cls(*required)
    assert {f: getattr(made, f) for f in defaults} == defaults
    assert tuple(defaults) == fields[len(required):]
    if cls is FractionalSeries:  # each instance gets its own empty tail
        assert made.terms is not cls(*required).terms


@names
def test_equality_and_hash(cls):
    _, _, field, other = TYPES[cls]
    a, b = _instance(cls), _instance(cls)
    changed = a.replace(**{field: other})
    assert a == b and not a != b
    assert a != changed and getattr(changed, field) == other
    assert a.__eq__(TYPES[cls][1]) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, changed}) == 2


def test_class_params_with_numpy_scalars_equal_and_hash_as_their_plain_twin():
    plain = ClassParams(2, 0.5, 0.8, -0.5, 0.3, 0.7)
    numpy = ClassParams(np.int64(2), np.float64(0.5), np.float64(0.8), np.float64(-0.5), np.float64(0.3), 0.7)
    assert numpy == plain and hash(numpy) == hash(plain)
    assert {plain: "x"}[numpy] == "x"
    assert plain != ClassParams(2, 0.5, 0.8, -0.5, 0.3, 0.75)


@names
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields = TYPES[cls][0]
    made = _instance(cls)
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(made, name, 1)
    with pytest.raises(AttributeError):
        delattr(made, fields[0])
    assert getattr(made, fields[0]) == TYPES[cls][1][0]


@names
def test_copy_deepcopy_and_pickle_round_trip(cls):
    made = _instance(cls)
    for twin in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        assert type(twin) is cls and twin == made and repr(twin) == repr(made)
    if cls is ClassParams:  # the derived fields are formed again
        twin = pickle.loads(pickle.dumps(made))
        assert (twin.rafid, twin.scale) == (made.rafid, made.scale)


@pytest.mark.parametrize(
    "cls", [MembershipReport, RadiusReport, ConvolutionOrderReport, CompositionBound], ids=lambda cls: cls.__name__
)
def test_to_dict_keys_come_in_field_order(cls):
    fields, args, _, _ = TYPES[cls]
    assert list(_instance(cls).to_dict().items()) == list(zip(fields, args))


def test_replace_validates_again_and_refuses_derived_and_unknown_fields():
    cp = ClassParams(p=2, alpha=0.5)
    assert cp.replace(alpha=1.5) == ClassParams(p=2, alpha=1.5)
    assert cp.replace() == cp
    with pytest.raises(ParameterOutOfRangeError):
        cp.replace(alpha=cp.p)
    with pytest.raises(ParameterOutOfRangeError):
        SampleGrid().replace(radii=(0.5, 0.4))
    with pytest.raises(ValueError):
        cp.replace(rafid=RafidParams())
    with pytest.raises(TypeError):
        cp.replace(gamma=1.0)
    if hasattr(copy, "replace"):  # Python 3.13
        assert copy.replace(cp, alpha=1.5) == cp.replace(alpha=1.5)
