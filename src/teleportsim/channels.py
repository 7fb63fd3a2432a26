"""Single- and multi-qubit Pauli noise channels.

Every channel is a weighted sum of one-qubit Pauli conjugations, with no
matrix product: :func:`apply_to_qubit` and :func:`apply_layer` share one
per-qubit kernel.  Per qubit it multiplies the Z branch by a weight with
the Z sign folded in, takes the X and Y branches by index flips of the
entries and of the Z product, and sums the branches into buffers reused
across the qubits, so a layer builds one new operator.  The sign-folded
weights of the last spec applied are kept, so the layers of a run and the
runs on one grid share them.  :mod:`teleportsim.exact` takes its noise
factors from the same weights with a symbolic ``p``, so each channel is
defined once.  A "layer" applies the same single-qubit channel
independently to every qubit, the way noise is inserted after each gate
column of the teleportation circuit.  The package has no Kraus form and
no expanded form of a layer; those live with the tests, as oracles.
"""

from __future__ import annotations

import enum
import numbers
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .linalg import Operator, _Frozen, _out_array, _pauli_tables

# unused here, but perfbench/tracer.py wraps these bindings
from .linalg import conjugate_by, tensor  # noqa: F401


class NoiseKind(enum.Enum):
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bitflip"
    PHASE_FLIP = "phaseflip"


class ChannelSpec(_Frozen):
    """A Pauli noise channel choice with its strength.

    ``p`` is a probability in [0, 1] of any real type, numpy scalars
    included.  A 1-D sequence or array of probabilities makes a batch: it
    is stored as a tuple of floats, and a pipeline run on the spec carries
    one matrix per probability along a leading axis.  Anything else is
    rejected here, by name.
    """

    __slots__ = _fields = ("kind", "p")

    def __init__(self, kind: NoiseKind, p: Any):
        if isinstance(p, (list, tuple, np.ndarray)):
            p = _probability_batch(p)
        # a bool is an int, but no probability: in a batch too
        elif isinstance(p, bool) or not isinstance(p, numbers.Real):
            raise ValueError(f"noise probability {p!r} is not real")
        elif not 0 <= p <= 1:  # nan fails the comparison
            raise ValueError(f"noise probability {p} outside [0, 1]")
        self._init(kind, p)


_BOOLS = frozenset((bool, np.bool_))


def _probability_batch(values: Any) -> tuple[float, ...]:
    """Validate a batch of probabilities; return it as a tuple of floats."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"a batch of noise probabilities must be 1-D and non-empty, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"noise probabilities must be real numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and _BOOLS & set(map(type, values)):
        # numpy reads a bool among numbers as a number
        bad = next(v for v in values if type(v) in _BOOLS)
        raise ValueError(f"noise probability {bad!r} is not real")
    arr = arr.astype(np.float64)
    bad = np.flatnonzero(~((arr >= 0) & (arr <= 1)))  # nan fails both
    if bad.size:
        # the scalar check's message, naming the first bad value
        raise ValueError(f"noise probability {arr[bad[0]].item()} outside [0, 1]")
    return tuple(arr.tolist())


def _complex_p(p: Any) -> complex | np.ndarray:
    """A spec's ``p`` as a complex scalar, or a batch as a (B, 1, 1) array."""
    if isinstance(p, tuple):
        return np.array(p, dtype=np.complex128).reshape(-1, 1, 1)
    return complex(p)


def _pauli_weights(
    kind: NoiseKind, p: Any, scalar: Callable[[Any], Any] = complex
) -> list[tuple[Any, str]]:
    """The channel as weighted Pauli branches [(w, label)], identity first.

    ``p`` is a complex scalar or a (B, 1, 1) array from :func:`_complex_p`,
    so a branch of an unbatched state broadcasts to a (B, dim, dim) stack;
    :mod:`teleportsim.exact` passes the symbolic ``p`` with ``scalar``
    making its polynomial constants.
    """
    one = scalar(1)
    if kind is NoiseKind.BIT_FLIP:
        return [(one - p, "I"), (p, "X")]
    if kind is NoiseKind.PHASE_FLIP:
        return [(one - p, "I"), (p, "Z")]
    w_pauli = p * scalar(Fraction(1, 4))
    w_keep = one - p * scalar(Fraction(3, 4))
    return [(w_keep, "I"), (w_pauli, "X"), (w_pauli, "Y"), (w_pauli, "Z")]


# The last spec's branches, as (spec, n, branches) with the branches as
# :func:`_branches` returns them.  One entry, so the four layers of a run and
# consecutive runs with one spec object (the chunks of a ``SweepConfig``)
# share them, and the module holds at most one spec's sign-folded weights.
# Each command builds its own specs, so it builds its own weights too.
_LAST_BRANCHES: tuple[Any, Any, Any] = (None, None, None)


def _branches(spec: ChannelSpec, n: int) -> tuple:
    """The channel's branches on ``n`` qubits, built once per spec object.

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
    # one read of the entry, so that a swap between reads cannot pair this
    # spec with another's weights; by identity: an equal spec may hold -0.0
    # where this one holds 0.0, which the weights' bits keep apart
    last_spec, last_n, branches = _LAST_BRANCHES
    if last_spec is spec and last_n == n:
        return branches
    # release the old weights before building
    _LAST_BRANCHES = (None, None, None)
    del branches
    weights = {label: w for w, label in _pauli_weights(spec.kind, _complex_p(spec.p))}
    w_z = weights.get("Z")
    # depolarizing: Y and Z share the weight p/4
    assert weights.get("Y", w_z) is w_z
    tables = []
    for qubit in range(1, n + 1):
        perm, differ = _pauli_tables(qubit, n)
        s_z = None
        if w_z is not None:
            s_z = np.where(differ, -w_z, w_z)
            s_z.setflags(write=False)
        tables.append((perm, s_z))
    w_i = weights["I"]
    branches = (np.shape(w_i)[:1], w_i, weights.get("X"), "Y" in weights, tables)
    _LAST_BRANCHES = (spec, n, branches)
    return branches


def _apply_pauli_channel(
    spec: ChannelSpec, rho: Operator, qubits: range, out: np.ndarray | None = None
) -> Operator:
    """Apply the channel to each of ``qubits`` in turn; one new operator.

    Per qubit, the branches are summed in order, ``((I + X) + Y) + Z``, in
    one accumulator updated in place (``out``, when given), with the
    products in two more buffers: the Z product, and the X-flipped entries
    scaled in place to the X product.  The Y product is the X-flipped Z
    product, since the flip leaves the sign-folded weight unchanged; taking
    it so keeps one buffer fewer alive than scaling the flipped entries
    twice.  Works on a batch along the leading axis too.
    """
    lead, w_i, w_x, has_y, tables = _branches(spec, rho.num_qubits)
    src = rho.entries
    if lead and lead != src.shape[:-2]:
        # an unbatched input under a batched spec: one matrix per probability
        src = np.broadcast_to(src, np.broadcast_shapes(src.shape, lead + (1, 1)))
    shape, flat = src.shape, src.shape[:-2] + (-1,)
    acc = _out_array(out, shape)
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
    return Operator(acc, copy=False)


def apply_to_qubit(spec: ChannelSpec, rho: Operator, qubit: int) -> Operator:
    """Apply the channel to one qubit, identity on the rest."""
    n = rho.num_qubits
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    return _apply_pauli_channel(spec, rho, range(qubit, qubit + 1))


def apply_layer(spec: ChannelSpec, rho: Operator, *, out: np.ndarray | None = None) -> Operator:
    """Apply the channel independently to every qubit.

    Single-qubit channels on distinct qubits commute, so the sequential
    order is irrelevant.  ``out``, a C-ordered complex128 array of the
    result's shape apart from ``rho``, becomes the result's entries, frozen.
    """
    return _apply_pauli_channel(spec, rho, range(1, rho.num_qubits + 1), out)

