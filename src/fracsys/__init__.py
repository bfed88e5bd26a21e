"""Pseudospectral lab for coupled fractional-Laplacian systems on a periodic box."""

from .constants import (
    ConstantsReport,
    QuotientResult,
    coercivity_lhs,
    coercivity_sweep,
    convexity_radius,
    measure_constants,
    minimize_quotient,
    ratio_formula,
    smallness_threshold,
    sobolev_quotient,
    vector_quotient,
    verify_strictness,
)
from .energy import EnergyBreakdown, energy, gradient, hessian_quadform, small_t_sign_scan
from .fieldio import load_field, save_field
from .forcing import (
    Functional,
    build_density,
    dual_pairing,
    gaussian_density,
    indicator_density,
    kernel_match_check,
    make_forcing,
    mode_density,
    riesz_representer,
    save_functional,
    scale_functional,
    scale_to_norm,
)
from .grids import (
    Field,
    Grid,
    RegimeOperator,
    SystemParams,
    coupling_integral,
    frac_laplacian,
    from_powers,
    hs_full_norm,
    hs_seminorm,
    l2_inner,
    lp_norm,
    make_grid,
    pair_norm,
    pow_plus,
)
from .options import ConvergenceError, MinimizeOpts
from .profiles import (
    BubbleParams,
    decay_exponent_fit,
    ground_state_residual,
    paired_minimizer,
    subcritical_ground_state,
    talenti_bubble,
)
from .solve import (
    SolveReport,
    linear_response,
    neumann_series_sanity,
    positivity_check,
    residual,
    solve_system,
)

__version__ = "0.1.0"
