"""Coefficient criteria, operators, bounds and radii for p-valent series
with negative coefficients, plus sampling oracles for every closed form.

Every public name and submodule loads on first access, so a caller pays only
for the modules it uses, and only the oracle names bring in numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "calculus_bounds": (
        "CompositionBound", "composed_extremal", "composition_bound", "composition_certified",
        "lower_bound_peak",
    ),
    "classes": (
        "ClassParams", "MembershipReport", "budget_certified", "check_p_membership",
        "check_r_membership", "coeff_bound_p", "coeff_bound_r", "extremal_p", "extremal_r",
        "r_criterion_term", "random_member", "random_params", "zf_prime_over_p",
    ),
    "errors": (
        "DegenerateDenominatorError", "DivergentInputError", "DomainError", "DuplicateIndexError",
        "ExponentUnderflowError", "IndexBelowValenceError", "NegativeCoefficientError",
        "NonpositiveArgumentError", "OrderExceedsValenceError", "ParameterOutOfRangeError",
        "PoleOnGridError", "RadiusOutOfRangeError", "SeriesFormatError", "UncertifiedBoundWarning",
        "ValenceMismatchError",
    ),
    "geometry": (
        "BoundCurve", "RadiusReport", "distortion_bounds", "distortion_curve",
        "radius_close_to_convex", "radius_convex", "radius_starlike",
    ),
    "hadamard": (
        "ConvolutionOrderReport", "class_order_candidate", "mixed_order_candidate",
        "mixed_order_xi", "schild_silverman_lambda",
    ),
    "operators": (
        "RafidParams", "apply_rafid", "bernardi", "fractional_derivative", "fractional_integral",
        "gamma_ratio", "rafid_quadrature", "rafid_weight",
    ),
    "series": (
        "CoefficientSeries", "FractionalSeries", "derivative_m", "evaluate", "from_json",
        "hadamard_product", "make_series", "to_json",
    ),
    "oracle": (
        "OracleReport", "SampleGrid", "ctc_max_dev", "convex_min_re", "locate_real_axis_violation",
        "starlike_min_re", "subordination_certified", "subordination_margin",
        "subordination_ratio_real",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_HOME, *_EXPORTS})


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
