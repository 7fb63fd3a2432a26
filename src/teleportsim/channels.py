"""Single- and multi-qubit Pauli noise channels, plus the fixed gate set.

Every channel is a weighted sum of one-qubit Pauli conjugations.  They are
applied by index flips and sign masks (:func:`linalg.pauli_conjugate`), with
no matrix product; :func:`kraus_operators` gives the same branches as
explicit 2x2 Kraus operators.  A "layer" applies the same single-qubit
channel independently to every qubit, the way noise is inserted after each
gate column of the teleportation circuit.  The explicit expanded forms
(subset expansion for depolarizing, Pauli-string sums for the flip
channels) are kept as independent oracles, built by dense tensor products
and conjugations, to cross-check the per-qubit composition; they are not the
production path.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .linalg import (
    DensityOperator,
    Operator,
    ScalarBackend,
    FLOAT,
    conjugate_by,
    partial_trace,
    pauli_conjugate,
    sort_qubits,
    tensor,
)


class NoiseKind(enum.Enum):
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bitflip"
    PHASE_FLIP = "phaseflip"


@dataclass(frozen=True)
class ChannelSpec:
    """A Pauli noise channel choice with its strength.

    ``p`` is a probability in [0, 1] for numeric runs, or an exact scalar
    (rational or polynomial) for symbolic runs, where the range constraint
    does not apply.  A 1-D sequence or array of probabilities makes a
    batch: it is stored as a tuple of floats, and a float pipeline run on
    the spec carries one matrix per probability along a leading axis.
    """

    kind: NoiseKind
    p: Any

    def __post_init__(self):
        if isinstance(self.p, (list, tuple, np.ndarray)):
            object.__setattr__(self, "p", _probability_batch(self.p))
        elif isinstance(self.p, numbers.Complex) and not isinstance(self.p, numbers.Real):
            raise ValueError(f"noise probability {self.p!r} is not real")
        # any real type, numpy scalars included; nan fails the comparison
        elif isinstance(self.p, numbers.Real) and not 0 <= self.p <= 1:
            raise ValueError(f"noise probability {self.p} outside [0, 1]")


def _probability_batch(values: Any) -> tuple[float, ...]:
    """Validate a batch of probabilities; return it as a tuple of floats."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"a batch of noise probabilities must be 1-D and non-empty, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"noise probabilities must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64)
    bad = np.flatnonzero(~((arr >= 0) & (arr <= 1)))  # nan fails both
    if bad.size:
        # the scalar check's message, naming the first bad value
        raise ValueError(f"noise probability {arr[bad[0]].item()} outside [0, 1]")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class GateSet:
    """Named constant operators over one scalar backend.

    All members are exactly unitary: entries are 0, +-1, +-i, with the
    Hadamard's 1/sqrt(2) carried as an explicit scale on the operator.
    """

    I: Operator
    X: Operator
    Y: Operator
    Z: Operator
    H: Operator
    CNOT: Operator


_GATES: dict[str, GateSet] = {}
_IDENTITIES: dict[tuple[str, int], Operator] = {}


def gate_set(backend: ScalarBackend = FLOAT) -> GateSet:
    """The fixed gate set (I, X, Y, Z, H, CNOT) over the given backend."""
    cached = _GATES.get(backend.name)
    if cached is not None:
        return cached
    one = backend.one
    zero = backend.zero
    i = backend.imaginary
    gates = GateSet(
        I=Operator(backend, [[one, zero], [zero, one]]),
        X=Operator(backend, [[zero, one], [one, zero]]),
        Y=Operator(backend, [[zero, -i], [i, zero]]),
        Z=Operator(backend, [[one, zero], [zero, -one]]),
        H=Operator(backend, [[one, one], [one, -one]], root2_shift=1),
        CNOT=Operator(
            backend,
            [
                [one, zero, zero, zero],
                [zero, one, zero, zero],
                [zero, zero, zero, one],
                [zero, zero, one, zero],
            ],
        ),
    )
    _GATES[backend.name] = gates
    return gates


def identity(backend: ScalarBackend, num_qubits: int) -> Operator:
    """Identity operator on ``num_qubits`` qubits."""
    key = (backend.name, num_qubits)
    cached = _IDENTITIES.get(key)
    if cached is None:
        dim = 2**num_qubits
        ent = [
            [backend.one if r == c else backend.zero for c in range(dim)]
            for r in range(dim)
        ]
        cached = _IDENTITIES[key] = Operator(backend, ent)
    return cached


def _pauli_weights(spec: ChannelSpec, backend: ScalarBackend) -> list[tuple[Any, str]]:
    """The channel as weighted Pauli branches [(w, label)], identity first.

    For a batched spec each weight is a (B, 1, 1) array, so a branch of an
    unbatched state broadcasts to a (B, dim, dim) stack.
    """
    p = backend.coerce(spec.p)
    one = backend.one
    if spec.kind is NoiseKind.BIT_FLIP:
        return [(one - p, "I"), (p, "X")]
    if spec.kind is NoiseKind.PHASE_FLIP:
        return [(one - p, "I"), (p, "Z")]
    quarter = backend.coerce(Fraction(1, 4))
    w_pauli = p * quarter
    w_keep = one - p * backend.coerce(Fraction(3, 4))
    return [(w_keep, "I"), (w_pauli, "X"), (w_pauli, "Y"), (w_pauli, "Z")]


def kraus_operators(
    spec: ChannelSpec, backend: ScalarBackend = FLOAT
) -> list[tuple[Any, Operator]]:
    """Weighted Kraus decomposition {(w_i, K_i)} with sum_i w_i K_i^dag K_i = I.

    Bit flip: {(1-p, I), (p, X)}.  Phase flip: {(1-p, I), (p, Z)}.
    Depolarizing: {(1-3p/4, I), (p/4, X), (p/4, Y), (p/4, Z)}, which equals
    the mix-with-I/2 form (1-p) rho + p I/2 on every input.
    """
    g = gate_set(backend)
    return [(w, getattr(g, label)) for w, label in _pauli_weights(spec, backend)]


def apply_to_qubit(
    spec: ChannelSpec, rho: DensityOperator, qubit: int
) -> DensityOperator:
    """Apply the channel to one qubit, identity on the rest."""
    n = rho.num_qubits
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    acc = None
    for w, label in _pauli_weights(spec, rho.backend):
        branch = pauli_conjugate(rho.entries, label, qubit, n) * w
        acc = branch if acc is None else acc + branch
    return DensityOperator(rho.backend, acc)


def apply_layer(spec: ChannelSpec, rho: DensityOperator) -> DensityOperator:
    """Apply the channel independently to every qubit.

    Single-qubit channels on distinct qubits commute, so the sequential
    order is irrelevant.
    """
    for q in range(1, rho.num_qubits + 1):
        rho = apply_to_qubit(spec, rho, q)
    return rho


def depolarizing_subset_expansion(rho: DensityOperator, p: Any) -> DensityOperator:
    """Expanded form of the three-qubit depolarizing layer (oracle only).

    Sums over the subsets of qubits that get replaced by I/2: the surviving
    qubits keep their joint reduced state.  Equals :func:`apply_layer` with
    the depolarizing channel on every input; kept as an independent
    cross-check of the Kraus composition.
    """
    if rho.num_qubits != 3:
        raise ValueError(f"subset expansion is defined for 3 qubits, got {rho.num_qubits}")
    backend = rho.backend
    pp = backend.coerce(p)
    keep_w = backend.one - pp
    half = backend.coerce(Fraction(1, 2))
    quarter = backend.coerce(Fraction(1, 4))
    eighth = backend.coerce(Fraction(1, 8))

    acc = (keep_w * keep_w * keep_w) * rho.entries
    one_q = identity(backend, 1)
    two_q = identity(backend, 2)
    for traced in (1, 2, 3):
        keep = [q for q in (1, 2, 3) if q != traced]
        marg = partial_trace(rho, keep)
        emb = sort_qubits(tensor(marg, one_q), keep + [traced])
        acc = acc + (pp * keep_w * keep_w * half) * emb.entries
    for kept in (1, 2, 3):
        others = [q for q in (1, 2, 3) if q != kept]
        marg = partial_trace(rho, [kept])
        emb = sort_qubits(tensor(marg, two_q), [kept] + others)
        acc = acc + (pp * pp * keep_w * quarter) * emb.entries
    full_w = pp * pp * pp * eighth * rho.trace()
    acc = acc + full_w * identity(backend, 3).entries
    return DensityOperator(backend, acc)


def flip_sum_expansion(spec: ChannelSpec, rho: DensityOperator) -> DensityOperator:
    """Explicit Pauli-string sum form of a flip-channel layer (oracle only).

    Sums over every combination of per-qubit flips with weight
    p^(flips) (1-p)^(n-flips); equals :func:`apply_layer` for the bit-flip
    and phase-flip channels.
    """
    if spec.kind is NoiseKind.DEPOLARIZING:
        raise ValueError("flip_sum_expansion covers the bit/phase flip channels only")
    backend = rho.backend
    g = gate_set(backend)
    flip = g.X if spec.kind is NoiseKind.BIT_FLIP else g.Z
    p = backend.coerce(spec.p)
    q = backend.one - p
    n = rho.num_qubits
    acc = None
    for bits in itertools.product((0, 1), repeat=n):
        weight = backend.one
        string = None
        for b in bits:
            weight = weight * (p if b else q)
            factor = flip if b else g.I
            string = factor if string is None else tensor(string, factor)
        branch = conjugate_by(rho, string).entries * weight
        acc = branch if acc is None else acc + branch
    return DensityOperator(backend, acc)
