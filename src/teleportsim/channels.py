"""Single- and multi-qubit Pauli noise channels, plus the fixed gate set.

Every channel is a weighted sum of one-qubit Pauli conjugations, with no
matrix product: :func:`apply_to_qubit` and :func:`apply_layer` share one
per-qubit kernel.  Per qubit it multiplies the Z branch by a weight with
the Z sign folded in, takes the X and Y branches by index flips of the
entries and of the Z product, and sums the branches into buffers reused
across the qubits, so a layer builds one new operator.  The sign-folded
weights of the last spec applied are kept, so the layers of a run and the
runs on one grid share them.  :func:`kraus_operators` gives the same
branches as explicit 2x2 Kraus operators.  A "layer" applies the same
single-qubit channel independently to every qubit, the way noise is
inserted after each gate column of the teleportation circuit.  The
explicit expanded forms (subset expansion for depolarizing, Pauli-string
sums for the flip channels) are kept as independent oracles, built by
dense tensor products and conjugations, to cross-check the per-qubit
composition; they are not the production path.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any

import numpy as np

from .linalg import (
    DensityOperator,
    Operator,
    ScalarBackend,
    FLOAT,
    conjugate_by,
    partial_trace,
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


# The last spec's branches, as (key, branches) with the branches as
# :func:`_branches` returns them.  One entry, so the four layers of a run and
# consecutive runs on one grid share them, and the module holds at most one
# spec's sign-folded weights.
_LAST_BRANCHES: tuple[Any, Any] = (None, None)


@lru_cache(maxsize=None)
def _qubit_tables(qubit: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For ``qubit`` of ``n``: the flattened X-flip permutation of a matrix's
    entries, and the mask of entries whose row and column bits differ."""
    bit = 1 << (n - qubit)
    index = np.arange(1 << n)
    flipped = index ^ bit
    perm = (flipped[:, None] * (1 << n) + flipped).ravel()
    set_bit = (index & bit) != 0
    differ = set_bit[:, None] != set_bit[None, :]
    perm.setflags(write=False)
    differ.setflags(write=False)
    return perm, differ


def _zero_signs(p: Any) -> tuple[bool, ...]:
    """Which zeros of ``p`` are -0.0: equal to 0.0, but not in the weights' bits."""
    values = p if isinstance(p, tuple) else (p,)
    return tuple(
        math.copysign(1.0, x) < 0 for x in values if x == 0 and isinstance(x, numbers.Real)
    )


def _branches(spec: ChannelSpec, backend: ScalarBackend, n: int) -> tuple:
    """The channel's branches on ``n`` qubits, built once per spec value.

    Returns ``(lead, w_i, w_x, has_y, tables)``: the batch shape, () or
    (B,); the I weight, a scalar or a (B, 1, 1) array; the X weight, or
    None; whether there is a Y branch, weighted like the Z branch; and per
    qubit 1..n the X-flip permutation with the Z weight, or None without a
    Z branch.  The Z sign is folded into the Z weight as
    ``np.where(differ, -w, w)``, a (dim, dim) or (B, dim, dim) array:
    ``x * -w`` equals ``-x * w`` bit for bit, where ``-(x * w)`` can differ
    in the sign of a zero.
    """
    global _LAST_BRANCHES
    signs = () if backend.is_exact else _zero_signs(spec.p)
    key = (spec, backend.name, n, signs)
    if _LAST_BRANCHES[0] == key:
        return _LAST_BRANCHES[1]
    _LAST_BRANCHES = (None, None)  # release the old weights before building
    weights = {label: w for w, label in _pauli_weights(spec, backend)}
    w_z = weights.get("Z")
    # depolarizing: Y and Z share the weight p/4
    assert weights.get("Y", w_z) is w_z
    tables = []
    for qubit in range(1, n + 1):
        perm, differ = _qubit_tables(qubit, n)
        s_z = None
        if w_z is not None:
            s_z = np.where(differ, -w_z, w_z)
            s_z.setflags(write=False)
        tables.append((perm, s_z))
    w_i = weights["I"]
    branches = (np.shape(w_i)[:1], w_i, weights.get("X"), "Y" in weights, tables)
    _LAST_BRANCHES = (key, branches)
    return branches


def _apply_pauli_channel(
    spec: ChannelSpec, rho: DensityOperator, qubits: range
) -> DensityOperator:
    """Apply the channel to each of ``qubits`` in turn; one new operator.

    Per qubit, the branches are summed in order, ``((I + X) + Y) + Z``, in
    one accumulator updated in place, with the products in two more
    buffers: the Z product, and the X-flipped entries scaled in place to the
    X product.  The Y product is the X-flipped Z product, since the flip
    leaves the sign-folded weight unchanged; taking it so keeps one buffer
    fewer alive than scaling the flipped entries twice.  Works on complex
    and object entries alike, and on a batch along the leading axis.
    """
    lead, w_i, w_x, has_y, tables = _branches(spec, rho.backend, rho.num_qubits)
    src = rho.entries
    if lead and lead != src.shape[:-2]:
        # an unbatched input under a batched spec: one matrix per probability
        src = np.broadcast_to(src, np.broadcast_shapes(src.shape, lead + (1, 1)))
    shape, flat = src.shape, src.shape[:-2] + (-1,)
    acc = np.empty(shape, src.dtype)
    flip = None if w_x is None else np.empty(shape, src.dtype)
    prod = None if tables[0][1] is None else np.empty(shape, src.dtype)
    for qubit in qubits:
        perm, s_z = tables[qubit - 1]
        if prod is not None:
            np.multiply(src, s_z, out=prod)
        if flip is not None:
            src.reshape(flat).take(perm, axis=-1, out=flip.reshape(flat), mode="clip")
            np.multiply(flip, w_x, out=flip)
        # in place from the second qubit on: src is acc, and read no more
        np.multiply(src, w_i, out=acc)
        if flip is not None:
            np.add(acc, flip, out=acc)
        if has_y:
            prod.reshape(flat).take(perm, axis=-1, out=flip.reshape(flat), mode="clip")
            np.add(acc, flip, out=acc)
        if prod is not None:
            np.add(acc, prod, out=acc)
        src = acc
    del flip, prod  # freed before the operator copies acc
    return DensityOperator(rho.backend, acc)


def apply_to_qubit(
    spec: ChannelSpec, rho: DensityOperator, qubit: int
) -> DensityOperator:
    """Apply the channel to one qubit, identity on the rest."""
    n = rho.num_qubits
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    return _apply_pauli_channel(spec, rho, range(qubit, qubit + 1))


def apply_layer(spec: ChannelSpec, rho: DensityOperator) -> DensityOperator:
    """Apply the channel independently to every qubit.

    Single-qubit channels on distinct qubits commute, so the sequential
    order is irrelevant.
    """
    return _apply_pauli_channel(spec, rho, range(1, rho.num_qubits + 1))


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
