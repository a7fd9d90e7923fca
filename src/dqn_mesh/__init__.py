"""Distributed quasi-Newton optimization over peer-to-peer mesh networks.

Simulates networks of agents that cooperatively minimize a separable
objective, with or without a shared linear equality constraint, by mixing
iterates, tracked gradients, and curvature-informed directions with their
neighbors.  Includes a first-order gradient-tracking baseline, benchmark
problem generators, and an experiment harness with exact communication
accounting.
"""

from .topology import (
    CommGraph,
    MixingMatrix,
    connectivity_ratio,
    metropolis_weights,
    random_connected_graph,
    spectral_contraction,
)
from .quasi_newton import (
    curvature_ok,
    pd_safeguard,
    refresh_hessian_batch,
    refresh_inverse_batch,
)
from .problems import (
    BasisPursuitLocalData,
    LocalObjective,
    LogRegLocalData,
    QpLocalData,
    SeparableProblem,
    basis_pursuit_family,
    load_problem,
    logreg_family,
    qp_family,
    save_problem,
    solve_reference,
)
from .dqn import (
    DivergedError,
    DqnState,
    RunConfig,
    RunTrace,
    SyncNetwork,
    diging_atc_run,
    dqn_run,
    dqn_step,
    init_dqn_states,
    safe_step_size,
    track_gradient,
)
from .ecdqn import (
    EcDqnState,
    EcRunConfig,
    KktFactorizationError,
    KktSystem,
    ecdqn_run,
    ecdqn_step,
    init_ecdqn_states,
    kkt_solve,
)
from .harness import (
    ExperimentConfig,
    SummaryRow,
    SummaryTable,
    emit_report,
    run_algo,
    run_experiment,
    tune_step_size,
    validate_run,
)

__version__ = "0.1.0"
