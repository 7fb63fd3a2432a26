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
    """Square complex matrix on ``num_qubits`` qubits: a density matrix or
    any other operator.

    ``entries`` has shape (dim, dim), or (B, dim, dim) for a batch.
    """

    __slots__ = ("num_qubits", "entries")

    def __init__(self, entries: Any):
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

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def trace(self) -> complex | np.ndarray:
        """The trace; a (B,) array for a batch."""
        return self.entries.trace(axis1=-2, axis2=-1)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.num_qubits} qubit(s)>"


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

    def projector(self) -> Operator:
        amps = self.amplitudes
        return Operator(np.outer(amps, np.conjugate(amps)))


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s qubits leftmost (most significant)."""
    return Operator(np.kron(a.entries, b.entries))


def partial_trace(rho: Operator, keep: Sequence[int]) -> Operator:
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
    return Operator(np.trace(block, axis1=1, axis2=3))


@lru_cache(maxsize=None)
def _cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    """The flattened index map of a CNOT conjugation on ``n`` qubits: the
    target bit of the row and of the column index flips where the control
    bit is set."""
    index = np.arange(1 << n)
    mapped = np.where(index & (1 << (n - control)), index ^ (1 << (n - target)), index)
    perm = (mapped[:, None] * (1 << n) + mapped).ravel()
    perm.setflags(write=False)
    return perm


def _hadamard_conjugate(entries: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """H rho H on ``qubit``: the butterfly (a + b, a - b) on the qubit's row
    bit, then on its column bit, then the factor 1/2.

    The reshapes split the row (then the column) index into the bits above
    the qubit, the qubit's bit and the bits below it, so the halves are
    basic slices of views.
    """
    lead, dim = entries.shape[:-2], 1 << n
    high, low = 1 << (qubit - 1), 1 << (n - qubit)
    rows = entries.reshape(lead + (high, 2, low, dim))
    mid = np.empty_like(rows)
    np.add(rows[..., 0, :, :], rows[..., 1, :, :], out=mid[..., 0, :, :])
    np.subtract(rows[..., 0, :, :], rows[..., 1, :, :], out=mid[..., 1, :, :])
    cols = mid.reshape(lead + (dim, high, 2, low))
    out = np.empty_like(cols)
    np.add(cols[..., 0, :], cols[..., 1, :], out=out[..., 0, :])
    np.subtract(cols[..., 0, :], cols[..., 1, :], out=out[..., 1, :])
    out = out.reshape(lead + (dim, dim))
    np.add(out, 0j, out=out)
    return np.multiply(out, complex(0.5), out=out)


def conjugate_by(rho: Operator, gate: tuple[str, tuple[int, ...]]) -> Operator:
    """Return U rho U^dagger for a Clifford ``gate``: ``("H", (qubit,))`` or
    ``("CNOT", (control, target))``, as in :data:`teleportsim.teleport.CIRCUIT`.

    No matrix product: a CNOT permutes the rows and the columns, and H is a
    butterfly on its qubit's row and column bits.  The ``+ 0j`` turns a
    -0.0 part into +0.0, as the zero products of a dense U rho U^dagger do,
    so the bits equal that product's.
    """
    name, qubits = gate
    n = rho.num_qubits
    if not all(1 <= q <= n for q in qubits):
        raise ValueError(f"gate {gate} acts outside qubits 1..{n}")
    if name == "H" and len(qubits) == 1:
        return Operator(_hadamard_conjugate(rho.entries, qubits[0], n))
    if name == "CNOT" and len(qubits) == 2 and qubits[0] != qubits[1]:
        entries = rho.entries
        flat = entries.reshape(entries.shape[:-2] + (-1,))
        permuted = flat.take(_cnot_permutation(*qubits, n), axis=-1).reshape(entries.shape)
        return Operator(permuted + 0j)
    raise ValueError(f"unknown gate {gate}; expected ('H', (q,)) or ('CNOT', (c, t))")


def fidelity_with(psi: PureState, rho: Operator) -> Any:
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
    return np.linalg.eigvalsh(op.entries)


def max_entry_delta(a: Operator, b: Operator) -> float:
    """Max entrywise |a - b| between two operators."""
    return float(np.max(np.abs(a.entries - b.entries)))
