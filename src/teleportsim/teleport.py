"""The noisy three-qubit teleportation pipeline.

Builds the ten intermediate states of the protocol: the product initial
state, the Hadamard/CNOT ladder that entangles and measures, a noise layer
after every gate column, and the outcome-averaged measurement-plus-
correction step that leaves the single output qubit.

Measurement is deterministic here: the four outcome branches are projected,
corrected, and summed, which is the unique channel whose output matches a
single final density matrix and which returns the input state exactly when
the noise strength is zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .channels import ChannelSpec, apply_layer
from .linalg import Operator, PureState, conjugate_by, fidelity_with, tensor

STAGE_LABELS = tuple(f"rho{k}" for k in range(1, 11))


def _exact_norm_sq(alpha: Any, beta: Any):
    """Exact |alpha|^2 + |beta|^2, or None when the amplitudes are floats."""
    from .exact import GaussianRational  # deferred: exact imports this module

    try:
        a = GaussianRational.from_value(alpha)
        b = GaussianRational.from_value(beta)
    except TypeError:
        return None
    return a.conjugate() * a + b.conjugate() * b


def _require_finite(alpha: Any, beta: Any) -> None:
    for name, value in (("alpha", alpha), ("beta", beta)):
        if isinstance(value, str):  # complex() would parse it
            raise ValueError(f"amplitude {name} = {value!r} is not a number")
        if not cmath.isfinite(complex(value)):
            raise ValueError(f"amplitude {name} = {value} is not finite")


@dataclass(frozen=True)
class InputState:
    """Single-qubit state alpha|0> + beta|1> to be teleported.

    Amplitudes may be complex floats or exact Gaussian rationals; either
    way they must be normalized (use :meth:`normalized` to rescale float
    amplitudes first).
    """

    alpha: Any
    beta: Any

    def __post_init__(self):
        exact = _exact_norm_sq(self.alpha, self.beta)
        if exact is not None:
            if exact != 1:
                raise ValueError(f"exact amplitudes have |a|^2+|b|^2 = {exact}, not 1")
            return
        _require_finite(self.alpha, self.beta)
        try:
            norm_sq = abs(complex(self.alpha)) ** 2 + abs(complex(self.beta)) ** 2
        except OverflowError:
            norm_sq = math.inf
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(
                f"amplitudes deviate from unit norm by {abs(norm_sq - 1.0):.3e}; "
                "pass normalized values or use InputState.normalized"
            )

    @classmethod
    def normalized(cls, alpha: Any, beta: Any) -> "InputState":
        a, b = complex(alpha), complex(beta)
        _require_finite(a, b)
        if a == 0 and b == 0:
            raise ValueError("cannot normalize the zero vector")
        try:
            norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
            return cls(a / norm, b / norm)
        except (OverflowError, ZeroDivisionError, ValueError):
            # finite amplitudes fail only when |a|^2 + |b|^2 overflows,
            # underflows to zero or loses precision in the subnormal range
            raise ValueError(
                f"cannot normalize amplitudes ({a}, {b}): their squared norm "
                "is outside the double range"
            ) from None


@dataclass(frozen=True)
class CorrectionAssignment:
    """Which measured qubit feeds each classical correction.

    The default wiring applies X controlled by the qubit-2 outcome and then
    Z controlled by the qubit-1 outcome, the standard teleportation fix-up.
    """

    x_source: int = 2
    z_source: int = 1

    def __post_init__(self):
        for src in (self.x_source, self.z_source):
            if src not in (1, 2):
                raise ValueError(f"correction source must be qubit 1 or 2, got {src}")

    def describe(self) -> str:
        return f"X<-q{self.x_source}, Z<-q{self.z_source}"


DEFAULT_ASSIGNMENT = CorrectionAssignment()

ALTERNATE_ASSIGNMENTS = (
    CorrectionAssignment(x_source=1, z_source=2),
    CorrectionAssignment(x_source=1, z_source=1),
    CorrectionAssignment(x_source=2, z_source=2),
)


#: The gate columns in circuit order, each followed by a noise layer: the
#: gate's name and the adjacent qubits it acts on, most significant first
#: (a CNOT's control, then its target).
CIRCUIT = (("H", (2,)), ("CNOT", (2, 3)), ("CNOT", (1, 2)), ("H", (1,)))


def build_initial(input_state: InputState) -> Operator:
    """|psi><psi| tensor |00><00| on three qubits.

    The only nonzero entries sit at index pairs (0,0), (0,4), (4,0), (4,4):
    |a|^2, a b*, b a*, |b|^2.
    """
    psi = PureState([complex(input_state.alpha), complex(input_state.beta)])
    ancilla = Operator(np.diag([1, 0, 0, 0]))
    return tensor(psi.projector(), ancilla)


# The entries of a 2x2 block whose row and column differ: Z negates them.
_COHERENCES = np.array([[False, True], [True, False]])
_COHERENCES.setflags(write=False)


def measure_and_correct(
    rho9: Operator, assignment: CorrectionAssignment | None = None
) -> Operator:
    """Outcome-averaged measurement of qubits 1,2 with X/Z corrections.

    For each outcome (m1, m2): project qubits 1 and 2 onto |m1 m2> without
    renormalizing, reduce to qubit 3, apply X then Z as wired by the
    assignment, and sum the four corrected branches.  Corrections are
    applied noiselessly, on the 2x2 block: X reverses its rows and its
    columns, and Z negates its coherences.
    """
    if assignment is None:
        assignment = DEFAULT_ASSIGNMENT
    if rho9.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {rho9.num_qubits} qubits")
    acc = None
    for m1 in (0, 1):
        for m2 in (0, 1):
            base = 4 * m1 + 2 * m2
            block = rho9.entries[..., base : base + 2, base : base + 2]
            outcome = {1: m1, 2: m2}
            if outcome[assignment.x_source]:
                block = block[..., ::-1, ::-1]
            if outcome[assignment.z_source]:
                block = np.where(_COHERENCES, -block, block)
            acc = block if acc is None else acc + block
    return Operator(acc)


def run_stages_from_initial(
    rho1: Operator,
    noise: ChannelSpec,
    noise_enabled: bool = True,
    assignment: CorrectionAssignment | None = None,
) -> dict[str, Operator]:
    """Run the gate/noise ladder from an arbitrary three-qubit initial state.

    Returns the ten stages keyed in :data:`STAGE_LABELS` order.  With a
    batched ``noise`` spec the stages from rho3 on carry the batch axis.
    """
    if rho1.num_qubits != 3:
        raise ValueError(f"pipeline expects 3 qubits, got {rho1.num_qubits}")
    rho = rho1
    stages = {"rho1": rho}
    for k, gate in enumerate(CIRCUIT):
        stages[f"rho{2 * k + 2}"] = rho = conjugate_by(rho, gate)
        if noise_enabled:
            rho = apply_layer(noise, rho)
        stages[f"rho{2 * k + 3}"] = rho
    stages["rho10"] = measure_and_correct(rho, assignment)
    return stages


def run_stages(input_state: InputState, noise: ChannelSpec) -> dict[str, Operator]:
    """Run the full protocol for one input state, returning every stage."""
    return run_stages_from_initial(build_initial(input_state), noise)


def teleport_fidelity(input_state: InputState, noise: ChannelSpec) -> Any:
    """Overlap of the float pipeline output with the input state.

    A float, or a (B,) float array when the noise spec is a batch of B
    probabilities.  The exact fidelity, a polynomial in p, is
    :func:`teleportsim.verify.fidelity_polynomial`.
    """
    rho10 = run_stages(input_state, noise)["rho10"]
    psi = PureState([complex(input_state.alpha), complex(input_state.beta)])
    return fidelity_with(psi, rho10)
