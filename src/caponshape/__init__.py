"""Capon-family beamformers with beam-pattern-shaping penalties, a ULA
simulator, and a Monte Carlo SINR benchmark."""

from .arrays import (
    ArrayGeometry,
    ArrayManifold,
    ManifoldSplit,
    Scenario,
    SnapshotMatrix,
    SourceSpec,
    build_manifold,
    db_to_linear,
    difference_operator,
    linear_to_db,
    sample_covariance,
    snm_weighting,
    split_manifold,
    steering_vector,
    synthesize_snapshots,
)
from .beamformers import (
    BeamformerKind,
    BeamformerSpec,
    WeightVector,
    capon_closed_form,
    mspr_capon,
    solve_method,
    solve_trials,
)
from .evaluation import (
    BeamPattern,
    SinrReport,
    beam_pattern,
    gamma_sweep,
    monte_carlo,
    mspr,
    optimal_sinr,
    select_gamma,
    sinr,
)
from .solver import (
    NumericalError,
    PenaltyKind,
    PenaltyTerm,
    ProblemSpec,
    SolverOptions,
    SolverResult,
    SolverStatus,
    admm_solve,
    cone_solve,
    eliminate_constraint,
    smooth_solve,
)

__version__ = "0.1.0"
