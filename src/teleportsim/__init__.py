"""Density-matrix simulation and exact verification of noisy teleportation."""

from .analytic import PUBLISHED, fidelity_closed, fidelity_linear, linear_slope, rho10_closed
from .channels import ChannelSpec, NoiseKind, apply_layer, apply_to_qubit
from .exact import GaussianRational, P, PolyP, extract_transfer_map, run_pipeline_symbolic
from .linalg import (
    Operator,
    PureState,
    conjugate_by,
    fidelity_with,
    partial_trace,
    tensor,
)
from .teleport import (
    CorrectionAssignment,
    InputState,
    build_initial,
    measure_and_correct,
    run_stages,
    teleport_fidelity,
)
from .verify import VerificationReport, VerificationTarget, TargetStatus, run_verification

__version__ = "0.1.0"
