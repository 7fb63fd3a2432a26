"""Dense complex linear algebra for multi-qubit operators.

Matrices are complex128 numpy arrays.  Every operation here is a pure
function on immutable values.

Qubits are numbered 1..n with qubit 1 the most significant bit of the basis
index, i.e. basis state |q1 q2 q3> has index 4*q1 + 2*q2 + q3.

Operators may carry one leading batch axis, shape (B, dim, dim): one
matrix per noise probability of a batched :class:`channels.ChannelSpec`.
The elementwise and index operations here broadcast over it, so a batch runs
the same code as a single matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np

MAX_QUBITS = 10


def _freeze(entries: np.ndarray) -> np.ndarray:
    entries.setflags(write=False)
    return entries


class _Frozen:
    """Base of the value classes.  A subclass names its ``__slots__`` and its
    ``_fields``, the slots of its value in ``__init__`` order, which equality,
    hash and ``repr`` read; ``_init`` sets them once, and nothing after."""

    __slots__ = ()

    def _init(self, *values: Any) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Operator:
    """Square complex matrix on ``num_qubits`` qubits: a density matrix or
    any other operator.

    ``entries`` has shape (dim, dim), or (B, dim, dim) for a batch.
    """

    __slots__ = ("num_qubits", "entries")

    def __init__(self, entries: Any, *, copy: bool = True):
        # C order: the fidelity reads the entries as interleaved real pairs.
        # copy=False is for an array built for this operator and held by no
        # one else: it is stored, and frozen, as it is when already C-ordered
        # complex128.
        arr = np.array(entries, dtype=np.complex128, order="C", copy=copy or None)
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


def projector(amplitudes: Sequence[Any]) -> Operator:
    """|psi><psi| of the amplitudes psi, norm unchecked, each entry
    psi_i conj(psi_j) formed from float products as the textbook complex
    product forms it: numpy's SIMD complex multiply rounds differently at
    different SIMD levels."""
    pairs = [(a.real, a.imag) for a in map(complex, amplitudes)]
    return Operator(
        [[complex(ar * br + ai * bi, ai * br - ar * bi) for br, bi in pairs] for ar, ai in pairs]
    )


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s qubits leftmost (most significant).

    One broadcast multiply, ``a[i, j] * b[k, l]`` at ``[i, k, j, l]``, then a
    reshape: the products of ``np.kron``, bit for bit.  A leading batch axis
    on either side broadcasts, one product per slice.
    """
    x, y = a.entries, b.entries
    dim = x.shape[-1] * y.shape[-1]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return Operator(out.reshape(out.shape[:-4] + (dim, dim)), copy=False)


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
    return Operator(np.trace(block, axis1=1, axis2=3), copy=False)


@lru_cache(maxsize=None)
def _pauli_tables(
    target: int, n: int, control: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For ``target`` of ``n`` qubits: the flattened permutation of a
    matrix's entries under X on ``target``, which flips the target bit of
    the row and of the column index (only where the ``control`` bit is
    set, when one is given: a CNOT), and the mask of the entries that Z on
    ``target`` negates, those whose row and column target bits differ."""
    bit = 1 << (n - target)
    index = np.arange(1 << n)
    flipped = index ^ bit
    if control is not None:
        flipped = np.where(index & (1 << (n - control)), flipped, index)
    perm = (flipped[:, None] * (1 << n) + flipped).ravel()
    set_bit = (index & bit) != 0
    differ = set_bit[:, None] != set_bit[None, :]
    perm.setflags(write=False)
    differ.setflags(write=False)
    return perm, differ


def _out_array(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """A new C-ordered complex128 array of ``shape``, or ``out`` checked to be one."""
    if out is None:
        return np.empty(shape, np.complex128)
    if out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-ordered complex128 {shape}, got {out.dtype} {out.shape}")
    return out


def _hadamard_conjugate(entries: np.ndarray, qubit: int, n: int, out: np.ndarray) -> np.ndarray:
    """H rho H on ``qubit`` into ``out``: the butterfly (a + b, a - b) on
    the qubit's row bit, then on its column bit, then the factor 1/2.

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
    halves = out.reshape(cols.shape)
    np.add(cols[..., 0, :], cols[..., 1, :], out=halves[..., 0, :])
    np.subtract(cols[..., 0, :], cols[..., 1, :], out=halves[..., 1, :])
    np.add(out, 0j, out=out)
    return np.multiply(out, complex(0.5), out=out)


def conjugate_by(
    rho: Operator, gate: tuple[str, tuple[int, ...]], *, out: np.ndarray | None = None
) -> Operator:
    """Return U rho U^dagger for a Clifford ``gate``: ``("H", (qubit,))`` or
    ``("CNOT", (control, target))``, as in :data:`teleportsim.teleport.CIRCUIT`.

    No matrix product: a CNOT permutes the rows and the columns, and H is a
    butterfly on its qubit's row and column bits.  The ``+ 0j`` turns a
    -0.0 part into +0.0, as the zero products of a dense U rho U^dagger do,
    so the bits equal that product's.  ``out``, a C-ordered complex128
    array of ``rho``'s shape apart from ``rho``, becomes the result's
    entries, frozen.
    """
    name, qubits = gate
    n = rho.num_qubits
    if not all(1 <= q <= n for q in qubits):
        raise ValueError(f"gate {gate} acts outside qubits 1..{n}")
    entries = rho.entries
    out = _out_array(out, entries.shape)
    if name == "H" and len(qubits) == 1:
        return Operator(_hadamard_conjugate(entries, qubits[0], n, out), copy=False)
    if name == "CNOT" and len(qubits) == 2 and qubits[0] != qubits[1]:
        perm, _ = _pauli_tables(qubits[1], n, qubits[0])
        flat = entries.shape[:-2] + (-1,)
        entries.reshape(flat).take(perm, axis=-1, out=out.reshape(flat), mode="clip")
        out += 0j
        return Operator(out, copy=False)
    raise ValueError(f"unknown gate {gate}; expected ('H', (q,)) or ('CNOT', (c, t))")


def fidelity_with(amplitudes: Sequence[Any], rho: Operator) -> Any:
    """Overlap <psi| rho |psi> of the amplitudes psi, norm unchecked: a real
    float, or a (B,) float array for a batched ``rho``.

    A fold in a fixed order with no matrix product, so the value does not
    depend on the BLAS kernel, the SIMD level or the batch: the terms
    Re(conj(psi_i) psi_j rho_ij) = u_ij Re(rho_ij) - v_ij Im(rho_ij), where
    u_ij + i v_ij = conj(psi_i) psi_j, entry (j, i) of ``projector(psi)``,
    are added left to right over (i, j) in row-major order.  Each slice of
    a batch equals its unbatched value.
    """
    amps = [complex(a) for a in amplitudes]
    if len(amps) != rho.dim:
        raise ValueError(
            f"dimension mismatch: {len(amps)} amplitudes, operator of dimension {rho.dim}"
        )
    dev = hermiticity_deviation(rho)
    if not dev <= 1e-9:  # a nan deviation fails too
        raise ValueError(f"operator is not Hermitian (deviation {dev:.3e})")
    pairs = projector(amps).entries.T.ravel()
    entries = rho.entries
    parts = entries.reshape(entries.shape[:-2] + (-1,)).view(np.float64)
    terms = parts[..., 0::2] * pairs.real - parts[..., 1::2] * pairs.imag
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return total if entries.ndim == 3 else float(total)


def hermiticity_deviation(op: Operator) -> float:
    """Max entrywise |A - A^dagger|, over the whole batch."""
    return float(np.abs(op.entries - np.conjugate(op.entries).swapaxes(-1, -2)).max())


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Ascending eigenvalues of a (near-)Hermitian operator."""
    return np.linalg.eigvalsh(op.entries)


def max_entry_delta(a: Operator, b: Operator) -> float:
    """Max entrywise |a - b| between two operators."""
    return float(np.max(np.abs(a.entries - b.entries)))
