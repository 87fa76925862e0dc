"""capwave: steady periodic capillary-gravity water waves in the conformal
formulation -- spectral operators, the explicit pure-capillary family,
linearisation diagnostics, Newton continuation of the solution sheet in the
scaled parameters (alpha, beta), and surface geometry checks."""

from .spectral import (
    DegenerateMetricError,
    PeriodicFunction,
    derivative,
    hilbert,
    hilbert_strip,
    mean,
)
from .crapper import beta_of, crapper_theta, crapper_wave, q_of, verify_identity
from .operators import (
    WaveParams,
    bernoulli_b,
    q_hat,
    residual_G,
    residual_fd,
    residual_inf,
    theta_of,
)
from .linearization import (
    KernelReport,
    OperatorMatrix,
    dG_matrix,
    jacobian_fd,
    recurrence_scan,
)
from .continuation import (
    Branch,
    NewtonError,
    StepUnderflowError,
    WaveSolution,
    continue_branch,
    crapper_curve_check,
    newton_solve,
)
from .geometry import (
    InjectivityReport,
    SurfaceCurve,
    check_injective,
    critical_self_intersection_A,
    steepness,
    surface_profile,
)

__version__ = "0.1.0"
