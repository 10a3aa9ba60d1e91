"""chillwave: energy-stable second-order time stepping for the
Cahn-Hilliard equation on a 2-D Legendre-Galerkin spectral discretization,
with an experiment harness for dissipation, conservation, and convergence
studies."""

from .errors import (
    ChillwaveError,
    MeanNotZero,
    NonFinite,
    QuadratureError,
    SolveFailed,
)
from .potential import (
    potential_deriv,
    potential_value,
)
from .spectral1d import (
    Basis1D,
    assemble_basis,
    gauss_legendre,
)
from .field2d import (
    Field,
    h1_seminorm_sq,
    hminus1_norm,
    inner_hminus1,
    inner_l2,
    mean_value,
    norm_l2,
    read_snapshot,
    write_snapshot,
)
from .timestepping import (
    SchemeParams,
    StepOperator,
    bdf2_smallstep_threshold,
    bootstrap_first_step,
    build_step_operator,
    march,
    sufficient_stabilizers,
)
from .diagnostics import (
    EnergyTrace,
    error_norms,
    stability_verdict,
)
from .harness import (
    RunConfig,
    SweepConfig,
    SweepResult,
    convergence_study,
    default_ladder,
    prepare_phi1,
    run_simulation,
    splitmix64,
    sweep_min_stabilizer,
)

__version__ = "0.1.0"
