"""Normal magnetic trajectories on the model space R^(2n+s).

Simulation (fixed-step RK4 of the Lorentz equation, and its exact flow),
exact closed-form generation, Frenet-curvature extraction, and
classification of the resulting curve families, with a CLI for runs,
sweeps and verification.
"""
from .model_space import SpaceSignature
from .dynamics import (
    MagneticSetup,
    IntegratorConfig,
    Trajectory,
    initial_tangent,
    integrate,
    integrate_many,
    exact_flow,
    speed_drift,
    angle_drift,
)
from .frenet import FrenetSeries, fit_field_strength, frenet_apparatus, residual
from .closed_form import (
    CaseAParams,
    CaseBParams,
    lambda_,
    sample_case_a,
    sample_case_b,
    random_params,
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
    classify_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "SpaceSignature",
    "MagneticSetup", "IntegratorConfig", "Trajectory",
    "initial_tangent", "integrate",
    "integrate_many", "exact_flow",
    "speed_drift", "angle_drift",
    "FrenetSeries", "frenet_apparatus", "residual",
    "CaseAParams", "CaseBParams", "lambda_", "sample_case_a", "sample_case_b",
    "random_params",
    "CurveKind", "CurveClass", "InverseResult", "predict_class",
    "order_bound_curvatures", "invert_q", "check_circle_existence", "rho",
    "fit_field_strength", "classify_trajectory",
    "__version__",
]
