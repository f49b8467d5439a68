"""Coefficient criteria, operators, bounds and radii for p-valent series
with negative coefficients, plus sampling oracles for every closed form.

The oracle names load :mod:`pvalent.oracle`, and with it numpy, on first
access, so the closed forms import without numpy.
"""

from .calculus_bounds import (
    CompositionBound,
    composed_extremal,
    composition_bound,
    composition_certified,
    lower_bound_peak,
)
from .classes import (
    ClassParams,
    MembershipReport,
    budget_certified,
    check_p_membership,
    check_r_membership,
    coeff_bound_p,
    coeff_bound_r,
    extremal_p,
    extremal_r,
    r_criterion_term,
    random_member,
    random_params,
    zf_prime_over_p,
)
from .errors import (
    DegenerateDenominatorError,
    DivergentInputError,
    DomainError,
    DuplicateIndexError,
    ExponentUnderflowError,
    IndexBelowValenceError,
    NegativeCoefficientError,
    NonpositiveArgumentError,
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    PoleOnGridError,
    QuadratureUnavailableError,
    RadiusOutOfRangeError,
    SeriesFormatError,
    UncertifiedBoundWarning,
    ValenceMismatchError,
)
from .geometry import (
    BoundCurve,
    RadiusReport,
    distortion_bounds,
    distortion_curve,
    radius_close_to_convex,
    radius_convex,
    radius_starlike,
)
from .hadamard import (
    ConvolutionOrderReport,
    class_order_candidate,
    mixed_order_candidate,
    mixed_order_xi,
    schild_silverman_lambda,
)
from .operators import (
    QuadratureConfig,
    RafidParams,
    apply_rafid,
    bernardi,
    fractional_derivative,
    fractional_integral,
    gamma_ratio,
    rafid_quadrature,
    rafid_weight,
)
from .series import (
    CoefficientSeries,
    FractionalSeries,
    derivative_m,
    evaluate,
    from_json,
    hadamard_product,
    make_series,
    to_json,
)

__version__ = "0.1.0"

_ORACLE_NAMES = (
    "OracleReport",
    "SampleGrid",
    "ctc_max_dev",
    "convex_min_re",
    "locate_real_axis_violation",
    "starlike_min_re",
    "subordination_certified",
    "subordination_margin",
    "subordination_ratio_real",
)

__all__ = sorted({name for name in dir() if not name.startswith("_")} | {"oracle", *_ORACLE_NAMES})


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value
