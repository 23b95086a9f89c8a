"""Numerical engine for forward-rate models driven by long-memory Gaussian noise.

Subpackage map:

* :mod:`fhjm.kernels`     -- covariance density, exact cell integrals,
  fractional integral/derivative, Volterra kernel and its calibration
* :mod:`fhjm.fbm`         -- path generators (Cholesky / Volterra / polygonal)
* :mod:`fhjm.vol`         -- deterministic factor volatilities and diagnostics
* :mod:`fhjm.drift`       -- the no-arbitrage drift functional and oracles
* :mod:`fhjm.hjm`         -- forward-surface simulation and bond pricing
* :mod:`fhjm.noarb`       -- constant-expectation checks, oscillation probe
* :mod:`fhjm.ledger`      -- measure-valued strategies under proportional costs
* :mod:`fhjm.consistency` -- curve-family tangency (invariance) verdicts
* :mod:`fhjm.cli`         -- JSON-config command-line frontend
"""

__version__ = "0.1.0"

from .kernels import (
    FracOrder,
    HurstParam,
    SampledFunction,
    calibrate_kernel_scale,
    cov_cell_integral,
    cov_density,
    cov_segment_integral,
    frac_derivative,
    frac_integral,
    kernel_scale_beta_formula,
    volterra_kernel,
)
from .fbm import (
    BrownianDriver,
    FbmPathSet,
    TimeGrid,
    fbm_covariance,
    fbm_covariance_matrix,
    generate_cholesky,
    generate_polygonal,
    generate_volterra,
)
from .vol import (
    ExpDecayVol,
    FlatVol,
    MaturityGrid,
    TabulatedVol,
    VolatilitySpec,
    eval_vol,
    ho_lee,
    hull_white,
    integrated_vol,
    validate_regularity,
)
from .drift import (
    DriftField,
    drift_field,
    expectation_kernel,
    exp_damped_cov_integral,
    ho_lee_drift,
    hull_white_drift,
    log_expectation,
    solve_market_price_of_risk,
)
from .hjm import (
    BondSurface,
    ForwardSurface,
    InitialCurve,
    PairPrices,
    ZRows,
    affine_batches,
    affine_draws,
    bond_surface,
    closed_form_bond,
    discounted_surface,
    drift_for_simulation,
    money_account,
    simulate_forward,
    simulation_grids,
)
from .noarb import (
    check_quasi_martingale,
    drift_identity_check,
    oscillation_probe,
)
from .ledger import (
    DiscreteMeasure,
    Gate,
    Holdings,
    LedgerResult,
    Strategy,
    StrategyLeg,
    holdings,
    integration_by_parts_check,
    liquidation_value,
    total_variation,
)
from .consistency import (
    CurveFamily,
    check_drift_and_vol_condition,
    check_shift_condition,
    controlled_path,
    default_membership_grid,
    family_fit_distance,
    nagumo_full_check,
    nelson_siegel_family,
    tangent_residual,
)
