"""Selfish rate control over a shared FCFS queue.

Closed-form equilibria and efficiency ratios, synthesis of dropping policies
that steer the equilibrium, best-response dynamics, and a slotted stochastic
simulator of the whole loop.
"""

from .analysis import (
    WelfareKind,
    WelfareReport,
    ne_closed_form,
    no_drop_report,
    optimal_total_rate,
    poa_closed_form,
    poa_of_equilibrium,
    social_optimum_log,
    social_optimum_sum,
    welfare,
)
from .dynamics import (
    Trajectory,
    UpdateMode,
    best_response,
    response_field,
    run_dynamics,
    triangular_grid,
    verify_equilibrium,
)
from .mechanism import (
    DesignDiagnostics,
    DesignInfeasibleError,
    DesignSpec,
    EquilibriumCensus,
    PolicyDesign,
    design_linear,
    designed_with_diagnostics,
    equilibrium_census,
    poa_at_symmetric_rate,
    step_policy,
    target_effective_rate,
    validate_design,
)
from .model import (
    SERVICE_RATE_LIMIT,
    DropPolicy,
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    StepPolicy,
    UnstableQueueError,
    UnsupportedGameError,
    feasible,
    keep_probability,
    marginal_utility,
    potential,
    utility,
)
from .simulator import (
    OverloadError,
    QueueMode,
    SimConfig,
    SimReport,
    SweepCell,
    empirical_poa,
    run,
    sweep,
)

__version__ = "0.1.0"
