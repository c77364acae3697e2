"""Joint choice of source weights and transfer quantities for weighted
maximum likelihood transfer, with Monte Carlo and brute-force oracles."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    ConvergenceError,
    ParameterError,
    RegimeError,
    SupportError,
    TransferOptError,
    UnsupportedFamilyError,
)
from .families import Categorical, GaussianIso, SoftmaxRegression, get_family  # noqa: F401
from .fisher import analytic_fisher, projected_gram  # noqa: F401
from .kl import kl_exact, mc_expected_kl, mse_kl_bridge, predict_kl_multi, predict_kl_single  # noqa: F401
from .planner import (  # noqa: F401
    TransferPlan,
    build_qp_matrix,
    composed_quantity_derivative,
    composed_quantity_objective,
    optimal_plan,
    plan_from_parameters,
    single_source_weight,
    solve_simplex_qp,
)
from .harness import (  # noqa: F401
    SweepResult,
    TaskEnsemble,
    brute_force_simplex,
    sweep_quantity,
    sweep_weight,
)
from .config import build_ensemble, verify_claim  # noqa: F401
from .rng import derive_rng  # noqa: F401
from .trainer import (  # noqa: F401
    TrainConfig,
    TrainTrace,
    train_multi_source,
    train_multi_task,
)
from .weighted_mle import fit_weighted_mle  # noqa: F401
