"""Normal magnetic trajectories on the model space R^(2n+s).

Simulation (fixed-step RK4 of the Lorentz equation, and its exact flow),
exact closed-form generation, Frenet-curvature extraction, and
classification of the resulting curve families, with a CLI for runs,
sweeps and verification.
"""
from .model_space import (
    SpaceSignature,
    Point,
    Tangent,
    origin,
    metric,
    phi,
    eta,
    xi,
    orthonormal_frame,
    christoffel,
    covariant_acceleration,
    nabla_phi_check,
)
from .dynamics import (
    MagneticSetup,
    IntegratorConfig,
    Trajectory,
    lorentz_force,
    initial_tangent,
    magnetic_rhs,
    integrate,
    integrate_many,
    exact_flow,
    speed_drift,
    angle_drift,
)
from .frenet import FrenetSeries, frenet_apparatus, osculating_order
from .closed_form import (
    CaseAParams,
    CaseBParams,
    lambda_,
    sample_case_a,
    sample_case_b,
    random_params,
    residual,
)
from .classify import (
    CurveKind,
    CurveClass,
    InverseResult,
    predict_class,
    order_bound_curvatures,
    invert_q,
    check_circle_existence,
    rho,
    fit_field_strength,
    classify_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "SpaceSignature", "Point", "Tangent", "origin",
    "metric", "phi", "eta", "xi", "orthonormal_frame", "christoffel",
    "covariant_acceleration", "nabla_phi_check",
    "MagneticSetup", "IntegratorConfig", "Trajectory",
    "lorentz_force", "initial_tangent", "magnetic_rhs", "integrate",
    "integrate_many", "exact_flow",
    "speed_drift", "angle_drift",
    "FrenetSeries", "frenet_apparatus", "osculating_order",
    "CaseAParams", "CaseBParams", "lambda_", "sample_case_a", "sample_case_b",
    "random_params", "residual",
    "CurveKind", "CurveClass", "InverseResult", "predict_class",
    "order_bound_curvatures", "invert_q", "check_circle_existence", "rho",
    "fit_field_strength", "classify_trajectory",
    "__version__",
]
