"""Pseudospectral lab for coupled fractional-Laplacian systems on a periodic box."""

from .constants import (
    ConstantsReport,
    QuotientResult,
    coercivity_lhs,
    coercivity_sweep,
    convexity_radius,
    measure_constants,
    minimize_quotient,
    paired_minimizer,
    ratio_formula,
    smallness_threshold,
    sobolev_quotient,
    vector_quotient,
)
from .energy import EnergyBreakdown, energy, gradient, hessian_quadform, small_t_sign_scan
from .fieldio import load_field, save_field
from .forcing import (
    Functional,
    build_density,
    gaussian_density,
    indicator_density,
    make_forcing,
    mode_density,
    riesz_representer,
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
    l2_inner,
    lp_norm,
    make_grid,
    pair_norm,
    pow_plus,
)
from .options import ConfigError, ConvergenceError, MinimizeOpts
from .profiles import (
    BubbleParams,
    decay_exponent_fit,
    ground_state_residual,
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
