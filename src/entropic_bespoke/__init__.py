"""Cross-entropy calibration of credit-index sub-portfolio loss laws and
bespoke CDO tranche pricing on a two-factor lattice."""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigurationError,
    EntropicBespokeError,
    InfeasibleAdjustmentError,
    InfiniteDivergenceError,
    InvalidLoadingError,
    MappingConvergenceError,
    UndefinedSpreadError,
)
from .prior import (
    FactorParams,
    IndexPortfolio,
    MarketFactorGrid,
    NameSpec,
    TwoFactorLoadings,
    build_market_grid,
    derive_two_factor_loadings,
    pairwise_correlation,
)
from .loss import (
    ConditionalLossDist,
    LossDist,
    LossGrid,
    build_conditional_prior,
    default_loss_unit,
    mixture_unconditional,
)
from .calibrate import (
    CalibrationResult,
    MceCalibrator,
    PricingConstraint,
    calibrate,
    conditional_mutual_information,
    factor_only_calibrate,
    payoff_eval,
    prior_expected_losses,
)
from .pricing import (
    BespokeSpec,
    DiscountCurve,
    TranchePrice,
    TrancheSpec,
    adjust_bespoke_names,
    assemble_bespoke,
    bespoke_loss_dist,
    default_leg,
    price_tranche,
    risky_annuity,
    tranche_el_curve,
    tranche_expected_loss,
)
from .basecorr import (
    BaseCorrCurve,
    base_tranche_el,
    implied_base_correlation,
    map_strike,
    onefactor_loss_dist,
)
from .dynamic import (
    DynamicModel,
    DynamicState,
    PeriodKernel,
    birth_death_kernel,
    build_conditional_loss_prior,
    build_factor_chain_prior,
)
