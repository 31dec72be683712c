"""Variational solver for the free-particle action eigenvalue.

The package evolves quadratic wave-functional coefficients along world
lines, evaluates the action eigenvalue in three independent forms, finds
its stationary point over initial data and invariant duration, and checks
that the stationary value reproduces the classical extremal action.
"""

from .errors import (
    BadGrid,
    ConfigError,
    DegenerateQ,
    FlowSingularity,
    GridMismatch,
    IndexOutOfRange,
    NoConvergence,
    NonPositiveLapse,
    NonTimelikeVelocity,
    NotMeasured,
    NullSeparation,
    NumericalOverflow,
    NumericalUnderflow,
    SpacelikeSeparation,
    WavelineError,
    ZeroDuration,
    ZeroMass,
)
from .minkowski import (
    IntervalClass,
    canonical_momentum,
    classical_action,
    classify_interval,
    dot,
    hamiltonian_constraint,
    interval_squared,
    lower_index,
    raise_index,
    timelike_interval_squared,
)
from .worldline import (
    Worldline,
    perturb_interior,
    reparametrize,
    straight_line,
    velocities,
    velocity,
)
from .phase_flow import (
    FlowCoefficients,
    FlowInitialData,
    closed_form_at,
    denominator,
    frozen_coefficients,
    integrate_flow,
    sample_closed_form,
    singularity_time,
)
from .eigenvalue import (
    LambdaBreakdown,
    RealCoefficients,
    WaveParameters,
    apply_action_operator,
    constant_real_part,
    lambda_boundary_form,
    lambda_closed_form,
    lambda_lattice,
    operator_residual,
    predicted_action_eigenvalue,
    reality_residual,
)
from .stationarity import (
    StationarityReport,
    numeric_stationary_search,
    optimal_C,
    optimal_sigma1,
    reduced_lambda,
    stationary_lambda,
)
from .phase_functional import (
    PhaseGeometry,
    consistency_gap,
    log_duration,
    phase_difference,
    phase_eval_c,
    phase_eval_q,
    phase_geometry,
    predicted_phase_offset,
    resample_on_log_clock,
    shift_point,
)
from .config import RunConfig, Tolerances, load_config

__version__ = "0.1.0"
