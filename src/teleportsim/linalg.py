"""Scalar-generic dense linear algebra for multi-qubit operators.

Matrices are stored as numpy arrays whose elements come from a pluggable
scalar backend: ordinary complex floats for numerics, or exact polynomial
scalars (see :mod:`teleportsim.exact`) for symbolic runs.  Every operation
here is a pure function on immutable values, so the same pipeline code can
be executed numerically or symbolically without change.

Qubits are numbered 1..n with qubit 1 the most significant bit of the basis
index, i.e. basis state |q1 q2 q3> has index 4*q1 + 2*q2 + q3.

Float operators may carry one leading batch axis, shape (B, dim, dim): one
matrix per noise probability of a batched :class:`channels.ChannelSpec`.
The elementwise, index and matmul operations here broadcast over it, so a
batch runs the same code as a single matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

MAX_QUBITS = 10

Scalar = Any


class BackendMismatchError(ValueError):
    """Raised when operands built over different scalar backends are mixed."""


class ScalarBackend:
    """Capability bundle for a scalar field.

    Ring operations (+, *, unary -) and conjugation come from the scalar
    objects themselves via the usual Python protocols; each scalar type must
    provide a ``conjugate()`` method (complex, Fraction and the exact types
    all do).  The backend supplies the constants and coercion from exact
    rational inputs.
    """

    def __init__(
        self,
        name: str,
        dtype: Any,
        zero: Scalar,
        one: Scalar,
        imaginary: Scalar,
        coerce: Callable[[Any], Scalar],
        is_exact: bool,
    ):
        self.name = name
        self.dtype = dtype
        self.zero = zero
        self.one = one
        self.imaginary = imaginary
        self.coerce = coerce
        self.is_exact = is_exact

    def __repr__(self) -> str:
        return f"<ScalarBackend {self.name}>"


def _coerce_complex(value: Any) -> complex | np.ndarray:
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float, Fraction)):
        return complex(value)
    if isinstance(value, tuple):
        # a batch of probabilities, shaped to scale a (B, dim, dim) stack
        return np.array(value, dtype=np.complex128).reshape(-1, 1, 1)
    # exact scalars know their float image
    to_c = getattr(value, "__complex__", None)
    if to_c is not None:
        return complex(value)
    raise TypeError(f"cannot coerce {value!r} to a complex scalar")


FLOAT = ScalarBackend(
    name="float",
    dtype=np.complex128,
    zero=0j,
    one=1 + 0j,
    imaginary=1j,
    coerce=_coerce_complex,
    is_exact=False,
)


def _require_same_backend(a: "Operator", b: "Operator") -> ScalarBackend:
    if a.backend is not b.backend:
        raise BackendMismatchError(
            f"mixed scalar backends: {a.backend.name} vs {b.backend.name}"
        )
    return a.backend


def _matmul(backend: ScalarBackend, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a zero-skipping path for exact object arrays."""
    if not backend.is_exact:
        return a @ b
    n, k = a.shape
    m = b.shape[1]
    zero = backend.zero
    out = np.full((n, m), zero, dtype=object)
    for i in range(n):
        row = a[i]
        for l in range(k):
            x = row[l]
            if not x:
                continue
            brow = b[l]
            for j in range(m):
                y = brow[j]
                if y:
                    out[i, j] = out[i, j] + x * y
    return out


def _freeze(entries: np.ndarray) -> np.ndarray:
    entries.setflags(write=False)
    return entries


class Operator:
    """Square matrix on ``num_qubits`` qubits over a scalar backend.

    ``entries`` has shape (dim, dim), or (B, dim, dim) for a float batch.
    The represented matrix is ``entries * (1/sqrt(2)) ** root2_shift``.
    Keeping the power of 1/sqrt(2) explicit lets gates like the Hadamard be
    stored with integer entries, so they stay exactly representable under
    the rational backend; conjugation absorbs the factor as an exact power
    of 1/2.
    """

    __slots__ = ("backend", "num_qubits", "entries", "root2_shift")

    def __init__(self, backend: ScalarBackend, entries: Any, root2_shift: int = 0):
        # C order: a batched matmul rounds according to the memory layout
        arr = np.array(entries, dtype=backend.dtype, order="C")
        if arr.ndim not in (2, 3) or arr.shape[-2] != arr.shape[-1]:
            raise ValueError(
                f"operator entries must be square, optionally batched, got shape {arr.shape}"
            )
        if arr.ndim == 3 and backend.is_exact:
            raise ValueError("exact operators carry no batch axis")
        dim = arr.shape[-1]
        n = dim.bit_length() - 1
        if dim != 2**n or n < 1:
            raise ValueError(f"operator dimension {dim} is not a power of two >= 2")
        if n > MAX_QUBITS:
            raise ValueError(
                f"{n} qubits exceeds the dense-storage cap of {MAX_QUBITS}"
            )
        self.backend = backend
        self.num_qubits = n
        self.entries = _freeze(arr)
        self.root2_shift = root2_shift

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def dagger(self) -> "Operator":
        return Operator(
            self.backend, np.conjugate(self.entries).swapaxes(-1, -2), self.root2_shift
        )

    def dense(self) -> np.ndarray:
        """Entries with the 1/sqrt(2) scaling resolved.

        Under the exact backend the shift must be even, otherwise the matrix
        has irrational entries that the rational scalars cannot represent.
        """
        if self.root2_shift == 0:
            return self.entries.copy()
        if self.backend.is_exact:
            if self.root2_shift % 2:
                raise ValueError(
                    "odd power of 1/sqrt(2): entries are irrational under the "
                    "exact backend"
                )
            factor = self.backend.coerce(Fraction(1, 2 ** (self.root2_shift // 2)))
        else:
            factor = self.backend.coerce(2.0 ** (-self.root2_shift / 2))
        return self.entries * factor

    def trace(self) -> Scalar:
        """The trace; a (B,) array for a batch."""
        t = self.entries.trace(axis1=-2, axis2=-1)
        if self.root2_shift == 0:
            return t
        return self.dense().trace(axis1=-2, axis2=-1)

    def __matmul__(self, other: "Operator") -> "Operator":
        backend = _require_same_backend(self, other)
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Operator(
            backend,
            _matmul(backend, self.entries, other.entries),
            self.root2_shift + other.root2_shift,
        )

    def __repr__(self) -> str:
        shift = f", root2_shift={self.root2_shift}" if self.root2_shift else ""
        return (
            f"<{type(self).__name__} {self.num_qubits} qubit(s), "
            f"backend={self.backend.name}{shift}>"
        )


class DensityOperator(Operator):
    """Operator used in state position: plain scalar entries, no scaling."""

    def __init__(self, backend: ScalarBackend, entries: Any):
        super().__init__(backend, entries, root2_shift=0)

    @classmethod
    def maximally_mixed(cls, backend: ScalarBackend, num_qubits: int) -> "DensityOperator":
        dim = 2**num_qubits
        w = backend.coerce(Fraction(1, dim))
        ent = np.full((dim, dim), backend.zero, dtype=backend.dtype)
        for i in range(dim):
            ent[i, i] = w
        return cls(backend, ent)


class PureState:
    """State vector of 2**n amplitudes over a scalar backend."""

    __slots__ = ("backend", "num_qubits", "amplitudes")

    def __init__(self, backend: ScalarBackend, amplitudes: Any):
        amps = np.array(amplitudes, dtype=backend.dtype)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        dim = amps.shape[0]
        n = dim.bit_length() - 1
        if dim != 2**n or n < 1:
            raise ValueError(f"amplitude count {dim} is not a power of two >= 2")
        norm_sq = sum((a.conjugate() * a for a in amps), backend.zero)
        if backend.is_exact:
            if norm_sq != backend.one:
                raise ValueError(f"exact state norm^2 must be 1, got {norm_sq}")
        elif abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        self.backend = backend
        self.num_qubits = n
        self.amplitudes = _freeze(amps)

    def projector(self) -> DensityOperator:
        amps = self.amplitudes
        ent = np.outer(amps, np.conjugate(amps))
        return DensityOperator(self.backend, ent)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s qubits leftmost (most significant)."""
    backend = _require_same_backend(a, b)
    ent = np.kron(a.entries, b.entries)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(backend, ent)
    return Operator(backend, ent, a.root2_shift + b.root2_shift)


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
    return DensityOperator(rho.backend, np.trace(block, axis1=1, axis2=3))


def sort_qubits(op: Operator, labels: Sequence[int]) -> DensityOperator:
    """Reorder qubit axes so the given logical labels come out ascending.

    ``labels[k]`` is the logical index carried by the operator's k-th qubit;
    the result carries logical qubits in sorted order.  Inverse companion to
    the reordering that :func:`partial_trace` applies via ``keep``.
    """
    labels = list(labels)
    n = op.num_qubits
    if op.root2_shift:
        raise ValueError("sort_qubits expects an unscaled operator")
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError(f"labels {labels} must be {n} distinct qubit indices")
    order = sorted(range(n), key=lambda k: labels[k])
    axes = order + [n + ax for ax in order]
    ent = op.entries.reshape((2,) * (2 * n)).transpose(axes).reshape(op.dim, op.dim)
    return DensityOperator(op.backend, ent)


def conjugate_by(rho: DensityOperator, u: Operator) -> DensityOperator:
    """Return u rho u^dagger, resolving any 1/sqrt(2) scaling exactly."""
    backend = _require_same_backend(rho, u)
    if rho.dim != u.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs operator {u.dim}")
    raw = _matmul(
        backend,
        _matmul(backend, u.entries, rho.entries),
        np.conjugate(u.entries).T,
    )
    if u.root2_shift:
        raw = raw * backend.coerce(Fraction(1, 2**u.root2_shift))
    return DensityOperator(backend, raw)


def pauli_conjugate(entries: np.ndarray, label: str, qubit: int, n: int) -> np.ndarray:
    """Entries of P rho P^dagger for the Pauli ``label`` on ``qubit`` of ``n``.

    Conjugating by a one-qubit Pauli only permutes entries and flips signs,
    so no matrix product is needed: X flips the qubit's bit in the row and
    column index, Z negates the entries whose row and column bits differ,
    and Y does both.  Works on complex and object arrays alike, and on a
    batch of matrices along the leading axis.
    """
    bit = 1 << (n - qubit)
    index = np.arange(1 << n)
    if label in ("X", "Y"):
        flipped = index ^ bit
        entries = entries[..., flipped[:, None], flipped]
    if label in ("Y", "Z"):
        set_bit = (index & bit) != 0
        differ = set_bit[:, None] != set_bit[None, :]
        entries = np.where(differ, -entries, entries)
    return entries


def fidelity_with(psi: PureState, rho: DensityOperator) -> Any:
    """Overlap <psi| rho |psi>.

    Returns a real float under the float backend, or a (B,) float array
    for a batched ``rho``; under the exact backend the result is the
    backend scalar (a polynomial when the noise strength is symbolic).
    """
    backend = _require_same_backend_state(psi, rho)
    if psi.num_qubits != rho.num_qubits:
        raise ValueError(
            f"dimension mismatch: state on {psi.num_qubits} qubits, "
            f"operator on {rho.num_qubits}"
        )
    if not backend.is_exact:
        dev = hermiticity_deviation(rho)
        if dev > 1e-9:
            raise ValueError(f"operator is not Hermitian (deviation {dev:.3e})")
        rows = np.conjugate(psi.amplitudes) @ rho.entries
        if rows.ndim == 1:
            return float((rows @ psi.amplitudes).real)
        # one dot per slice: a batched `rows @ amplitudes` rounds differently
        return np.array([(row @ psi.amplitudes).real for row in rows])
    amps = psi.amplitudes
    acc = backend.zero
    for i, ai in enumerate(amps):
        if not ai:
            continue
        for j, aj in enumerate(amps):
            if aj:
                acc = acc + ai.conjugate() * rho.entries[i, j] * aj
    return acc


def _require_same_backend_state(psi: PureState, rho: DensityOperator) -> ScalarBackend:
    if psi.backend is not rho.backend:
        raise BackendMismatchError(
            f"mixed scalar backends: {psi.backend.name} vs {rho.backend.name}"
        )
    return psi.backend


def hermiticity_deviation(op: Operator) -> float:
    """Max entrywise |A - A^dagger|, over the whole batch (float backend only)."""
    if op.backend.is_exact:
        raise ValueError("hermiticity_deviation is a float-backend check")
    return float(np.max(np.abs(op.entries - np.conjugate(op.entries).swapaxes(-1, -2))))


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Ascending eigenvalues of a (near-)Hermitian float operator."""
    if op.backend.is_exact:
        raise ValueError("eigenvalues are computed on the float backend only")
    return np.linalg.eigvalsh(op.dense())


def max_entry_delta(a: Operator, b: Operator) -> float:
    """Max entrywise |a - b| between two float operators."""
    backend = _require_same_backend(a, b)
    if backend.is_exact:
        raise ValueError("max_entry_delta is a float-backend check")
    return float(np.max(np.abs(a.dense() - b.dense())))

