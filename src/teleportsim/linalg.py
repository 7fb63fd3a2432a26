"""Dense complex linear algebra for multi-qubit operators.

Matrices are complex128 numpy arrays.  Every operation here is a pure
function on immutable values.

Qubits are numbered 1..n with qubit 1 the most significant bit of the basis
index, i.e. basis state |q1 q2 q3> has index 4*q1 + 2*q2 + q3.

Operators may carry one leading batch axis, shape (B, dim, dim): one
matrix per noise probability of a batched :class:`channels.ChannelSpec`.
The elementwise, index and matmul operations here broadcast over it, so a
batch runs the same code as a single matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np

MAX_QUBITS = 10


def _freeze(entries: np.ndarray) -> np.ndarray:
    entries.setflags(write=False)
    return entries


class Operator:
    """Square complex matrix on ``num_qubits`` qubits.

    ``entries`` has shape (dim, dim), or (B, dim, dim) for a batch.  The
    represented matrix is ``entries * (1/sqrt(2)) ** root2_shift``.  Keeping
    the power of 1/sqrt(2) explicit lets the Hadamard be stored with entries
    +-1: conjugation applies the factor as a power of 1/2 after both matrix
    products, and every conjugated state's bits depend on that order.
    """

    __slots__ = ("num_qubits", "entries", "root2_shift")

    def __init__(self, entries: Any, root2_shift: int = 0):
        # C order: a batched matmul rounds according to the memory layout
        arr = np.array(entries, dtype=np.complex128, order="C")
        if arr.ndim not in (2, 3) or arr.shape[-2] != arr.shape[-1]:
            raise ValueError(
                f"operator entries must be square, optionally batched, got shape {arr.shape}"
            )
        dim = arr.shape[-1]
        n = dim.bit_length() - 1
        if dim != 2**n or n < 1:
            raise ValueError(f"operator dimension {dim} is not a power of two >= 2")
        if n > MAX_QUBITS:
            raise ValueError(
                f"{n} qubits exceeds the dense-storage cap of {MAX_QUBITS}"
            )
        self.num_qubits = n
        self.entries = _freeze(arr)
        self.root2_shift = root2_shift

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def dense(self) -> np.ndarray:
        """Entries with the 1/sqrt(2) scaling resolved."""
        if self.root2_shift == 0:
            return self.entries.copy()
        return self.entries * complex(2.0 ** (-self.root2_shift / 2))

    def trace(self) -> complex | np.ndarray:
        """The trace; a (B,) array for a batch."""
        t = self.entries.trace(axis1=-2, axis2=-1)
        if self.root2_shift == 0:
            return t
        return self.dense().trace(axis1=-2, axis2=-1)

    def __repr__(self) -> str:
        shift = f", root2_shift={self.root2_shift}" if self.root2_shift else ""
        return f"<{type(self).__name__} {self.num_qubits} qubit(s){shift}>"


class DensityOperator(Operator):
    """Operator used in state position: no scaling."""

    def __init__(self, entries: Any):
        super().__init__(entries, root2_shift=0)


class PureState:
    """State vector of 2**n complex amplitudes."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Any):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        dim = amps.shape[0]
        n = dim.bit_length() - 1
        if dim != 2**n or n < 1:
            raise ValueError(f"amplitude count {dim} is not a power of two >= 2")
        norm_sq = sum((a.conjugate() * a for a in amps), 0j)
        if not abs(norm_sq - 1.0) <= 1e-9:  # a nan norm fails too
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        self.num_qubits = n
        self.amplitudes = _freeze(amps)

    def projector(self) -> DensityOperator:
        amps = self.amplitudes
        return DensityOperator(np.outer(amps, np.conjugate(amps)))


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s qubits leftmost (most significant)."""
    ent = np.kron(a.entries, b.entries)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(ent)
    return Operator(ent, a.root2_shift + b.root2_shift)


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Reduced operator on the ``keep`` qubits, in ``keep`` order.

    ``keep`` must be a non-empty duplicate-free subset of 1..n; tracing out
    nothing (keep = all qubits, possibly permuted) is allowed.
    """
    keep = list(keep)
    n = rho.num_qubits
    if not keep:
        raise ValueError("keep set must not be empty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep={keep}")
    for q in keep:
        if not 1 <= q <= n:
            raise ValueError(f"qubit index {q} out of range 1..{n}")
    traced = [q for q in range(1, n + 1) if q not in keep]
    order = [q - 1 for q in keep] + [q - 1 for q in traced]
    axes = order + [n + ax for ax in order]
    tens = rho.entries.reshape((2,) * (2 * n)).transpose(axes)
    dk = 2 ** len(keep)
    dt = 2 ** len(traced)
    block = tens.reshape(dk, dt, dk, dt)
    return DensityOperator(np.trace(block, axis1=1, axis2=3))


def conjugate_by(rho: DensityOperator, u: Operator) -> DensityOperator:
    """Return u rho u^dagger, resolving any 1/sqrt(2) scaling as a power of 1/2."""
    if rho.dim != u.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs operator {u.dim}")
    raw = (u.entries @ rho.entries) @ np.conjugate(u.entries).T
    if u.root2_shift:
        raw = raw * complex(0.5**u.root2_shift)
    return DensityOperator(raw)


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


def pauli_conjugate(entries: np.ndarray, label: str, qubit: int, n: int) -> np.ndarray:
    """Entries of P rho P^dagger for the Pauli ``label`` on ``qubit`` of ``n``.

    Conjugating by a one-qubit Pauli only permutes entries and flips signs,
    so no matrix product is needed: X flips the qubit's bit in the row and
    column index, Z negates the entries whose row and column bits differ,
    and Y does both.  Works on a batch of matrices along the leading axis
    too.
    """
    perm, differ = _qubit_tables(qubit, n)
    if label in ("X", "Y"):
        lead = entries.shape[:-2]
        entries = entries.reshape(lead + (-1,)).take(perm, axis=-1).reshape(entries.shape)
    if label in ("Y", "Z"):
        entries = np.where(differ, -entries, entries)
    return entries


def fidelity_with(psi: PureState, rho: DensityOperator) -> Any:
    """Overlap <psi| rho |psi>: a real float, or a (B,) float array for a
    batched ``rho``."""
    if psi.num_qubits != rho.num_qubits:
        raise ValueError(
            f"dimension mismatch: state on {psi.num_qubits} qubits, "
            f"operator on {rho.num_qubits}"
        )
    dev = hermiticity_deviation(rho)
    if not dev <= 1e-9:  # a nan deviation fails too
        raise ValueError(f"operator is not Hermitian (deviation {dev:.3e})")
    rows = np.conjugate(psi.amplitudes) @ rho.entries
    if rows.ndim == 1:
        return float((rows @ psi.amplitudes).real)
    # one dot per slice: a batched `rows @ amplitudes` rounds differently
    return np.array([(row @ psi.amplitudes).real for row in rows])


def hermiticity_deviation(op: Operator) -> float:
    """Max entrywise |A - A^dagger|, over the whole batch."""
    return float(np.max(np.abs(op.entries - np.conjugate(op.entries).swapaxes(-1, -2))))


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Ascending eigenvalues of a (near-)Hermitian operator."""
    return np.linalg.eigvalsh(op.dense())


def max_entry_delta(a: Operator, b: Operator) -> float:
    """Max entrywise |a - b| between two operators."""
    return float(np.max(np.abs(a.dense() - b.dense())))
