"""Expanded forms of the noise layers, and other test oracles.

The package applies a channel to every qubit with one per-qubit kernel
(``channels.apply_layer``).  The forms below re-derive the same layer by a
different route, with dense tensor products, partial traces and matrix
conjugations, on gates written out here with numpy:

- :func:`depolarizing_subset_expansion` sums over the subsets of qubits
  replaced by I/2;
- :func:`flip_sum_expansion` sums every Pauli flip string with its binomial
  weight;
- :func:`kraus_operators` writes each channel as weighted 2x2 Kraus
  operators, for the embedded-Kraus references in ``test_channels``;
- :func:`dense_conjugate` with :func:`gate_matrix` is the dense form of
  ``linalg.conjugate_by``, which applies the circuit's gates by index maps;
- :func:`pauli_conjugate` conjugates by one Pauli on any qubit of n, the
  general form of the noise kernel's flips and of the 2x2 corrections in
  ``teleport.measure_and_correct``;
- :func:`rho10_closed` assembles the published output state, written as
  the paper writes it: u1..u6 by Horner in p, and the four entries built as
  complex (re, im) pairs of float64 arrays.  ``analytic.fidelity_closed``
  contracts the same state to a real form in the channel's own variable, so
  this module owns the complex-pair published state, and the state itself
  can be checked.
"""

import itertools
from functools import cache, reduce
from typing import Any

import numpy as np

from teleportsim.analytic import PUBLISHED, _probabilities
from teleportsim.channels import ChannelSpec, NoiseKind, _complex_p, _pauli_weights
from teleportsim.linalg import Operator, _pauli_tables, partial_trace, tensor
from teleportsim.teleport import InputState

# complex constants: -one and -i carry a -0.0 part, and the bits of every
# conjugated state depend on it
_ONE, _ZERO, _I = 1 + 0j, 0j, 1j
I = np.array([[_ONE, _ZERO], [_ZERO, _ONE]])
X = np.array([[_ZERO, _ONE], [_ONE, _ZERO]])
Y = np.array([[_ZERO, -_I], [_I, _ZERO]])
Z = np.array([[_ONE, _ZERO], [_ZERO, -_ONE]])
#: the Hadamard times sqrt(2): entries +-1, so a conjugation by it applies
#: the factor 1/2 after both matrix products (``dense_conjugate``'s ``scale``)
H = np.array([[_ONE, _ONE], [_ONE, -_ONE]])
CNOT = np.array(
    [
        [_ONE, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO],
        [_ZERO, _ZERO, _ZERO, _ONE],
        [_ZERO, _ZERO, _ONE, _ZERO],
    ]
)
PAULIS = {"I": I, "X": X, "Y": Y, "Z": Z}
for _gate in (I, X, Y, Z, H, CNOT):
    _gate.setflags(write=False)


#: every ``conjugate_by`` gate on three qubits: H on each qubit, and CNOT on
#: each ordered (control, target) pair
GATES = [("H", (q,)) for q in (1, 2, 3)] + [
    ("CNOT", pair) for pair in itertools.permutations((1, 2, 3), 2)
]


def eye(num_qubits: int) -> np.ndarray:
    """Complex identity matrix on ``num_qubits`` qubits."""
    return np.eye(2**num_qubits, dtype=np.complex128)


def embed(u: np.ndarray, first: int, n: int) -> np.ndarray:
    """``u`` on qubits ``first``, ``first + 1``, ... of ``n``, identity on
    the rest: one Kronecker product on each side that has qubits."""
    last = first + u.shape[0].bit_length() - 2
    if first > 1:
        u = np.kron(eye(first - 1), u)
    if last < n:
        u = np.kron(u, eye(n - last))
    return u


def gate_matrix(gate: tuple[str, tuple[int, ...]], n: int) -> tuple[np.ndarray, Any]:
    """Dense matrix of a ``teleport.CIRCUIT``-style gate on ``n`` qubits, and
    the ``scale`` that :func:`dense_conjugate` applies with it.

    H, and a CNOT whose target follows its control, are embedded like a
    Kraus Pauli.  A CNOT on any other ordered pair is P0 (x) I + P1 (x) X,
    with P0 and P1 the projectors onto the control's 0 and 1.
    """
    name, qubits = gate
    if name == "H":
        return embed(H, qubits[0], n), 0.5
    control, target = qubits
    if target == control + 1:
        return embed(CNOT, control, n), None
    factors = [[I] * n, [I] * n]
    factors[0][control - 1] = np.diag([_ONE, _ZERO])
    factors[1][control - 1] = np.diag([_ZERO, _ONE])
    factors[1][target - 1] = X
    return reduce(np.kron, factors[0]) + reduce(np.kron, factors[1]), None


def dense_conjugate(rho: Operator, u: np.ndarray, scale: Any = None) -> np.ndarray:
    """Entries of u rho u^dagger by two dense matrix products, then
    ``* complex(scale)`` when a scale is given (0.5 for :data:`H`)."""
    raw = (u @ rho.entries) @ np.conjugate(u).T
    if scale is not None:
        raw = raw * complex(scale)
    return raw


def pauli_conjugate(entries: np.ndarray, label: str, qubit: int, n: int) -> np.ndarray:
    """Entries of P rho P^dagger for the Pauli ``label`` on ``qubit`` of ``n``.

    Conjugating by a one-qubit Pauli only permutes entries and flips signs,
    so no matrix product is needed: X flips the qubit's bit in the row and
    column index, Z negates the entries whose row and column bits differ,
    and Y does both.  Works on a batch of matrices along the leading axis
    too.
    """
    perm, differ = _pauli_tables(qubit, n)
    if label in ("X", "Y"):
        lead = entries.shape[:-2]
        entries = entries.reshape(lead + (-1,)).take(perm, axis=-1).reshape(entries.shape)
    if label in ("Y", "Z"):
        entries = np.where(differ, -entries, entries)
    return entries


def kraus_operators(spec: ChannelSpec) -> list[tuple[Any, np.ndarray]]:
    """Weighted Kraus decomposition {(w_i, K_i)} with sum_i w_i K_i^dag K_i = I.

    Bit flip: {(1-p, I), (p, X)}.  Phase flip: {(1-p, I), (p, Z)}.
    Depolarizing: {(1-3p/4, I), (p/4, X), (p/4, Y), (p/4, Z)}, which equals
    the mix-with-I/2 form (1-p) rho + p I/2 on every input.  The weights are
    the kernel's own, bit for bit.
    """
    return [(w, PAULIS[label]) for w, label in _pauli_weights(spec.kind, _complex_p(spec.p))]


def sort_qubits(op: Operator, labels: list[int]) -> Operator:
    """Reorder qubit axes so the given logical labels come out ascending.

    ``labels[k]`` is the logical index carried by the operator's k-th qubit;
    the result carries logical qubits in sorted order.  Inverse companion to
    the reordering that ``partial_trace`` applies via ``keep``.
    """
    labels = list(labels)
    n = op.num_qubits
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError(f"labels {labels} must be {n} distinct qubit indices")
    order = sorted(range(n), key=lambda k: labels[k])
    axes = order + [n + ax for ax in order]
    ent = op.entries.reshape((2,) * (2 * n)).transpose(axes).reshape(op.dim, op.dim)
    return Operator(ent)


def depolarizing_subset_expansion(rho: Operator, p: Any) -> Operator:
    """Expanded form of the three-qubit depolarizing layer.

    Sums over the subsets of qubits that get replaced by I/2: the surviving
    qubits keep their joint reduced state.  ``p`` is a probability, or a
    batch of them as a tuple.
    """
    if rho.num_qubits != 3:
        raise ValueError(f"subset expansion is defined for 3 qubits, got {rho.num_qubits}")
    pp = _complex_p(p)
    keep_w = 1 + 0j - pp
    half, quarter, eighth = 0.5 + 0j, 0.25 + 0j, 0.125 + 0j

    acc = (keep_w * keep_w * keep_w) * rho.entries
    one_q = Operator(eye(1))
    two_q = Operator(eye(2))
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
    acc = acc + full_w * eye(3)
    return Operator(acc)


def flip_sum_expansion(spec: ChannelSpec, rho: Operator) -> Operator:
    """Explicit Pauli-string sum form of a flip-channel layer.

    Sums over every combination of per-qubit flips with weight
    p^(flips) (1-p)^(n-flips).
    """
    if spec.kind is NoiseKind.DEPOLARIZING:
        raise ValueError("flip_sum_expansion covers the bit/phase flip channels only")
    flip = X if spec.kind is NoiseKind.BIT_FLIP else Z
    p = _complex_p(spec.p)
    q = 1 + 0j - p
    n = rho.num_qubits
    acc = None
    for bits in itertools.product((0, 1), repeat=n):
        weight = 1 + 0j
        string = None
        for b in bits:
            weight = weight * (p if b else q)
            factor = flip if b else I
            string = factor if string is None else np.kron(string, factor)
        branch = dense_conjugate(rho, string) * weight
        acc = branch if acc is None else acc + branch
    return Operator(acc)


@cache
def _coefficient_table() -> np.ndarray:
    """u1..u6 as rows of float64 coefficients, lowest degree first, zero-padded."""
    polys = [PUBLISHED.u1, PUBLISHED.u2, PUBLISHED.u3, PUBLISHED.u4, PUBLISHED.u5, PUBLISHED.u6]
    table = np.zeros((len(polys), max(poly.degree for poly in polys) + 1))
    for row, poly in enumerate(polys):
        table[row, : poly.degree + 1] = [float(c.re) for c in poly.coefficients]
    table.flags.writeable = False
    return table


def _amplitudes(input_state: InputState) -> tuple[complex, complex]:
    return complex(input_state.alpha), complex(input_state.beta)


def _u_values(grid: np.ndarray) -> np.ndarray:
    """u1..u6 at every grid point, shape (6, N), by Horner in float64."""
    table = _coefficient_table()
    acc = np.zeros((len(table), grid.size))
    for column in table.T[::-1]:
        acc *= grid
        acc += column[:, None]
    return acc


def _pow(base: np.ndarray, exponent: int) -> np.ndarray:
    # Python's float ** per point: np.power may take a SIMD path that
    # rounds differently
    return np.array([x**exponent for x in base.tolist()])


# Complex numbers below are (re, im) pairs of float64 arrays or floats, a
# real x being (x, 0.0).  _mul is Python's complex product formula, so each
# step rounds as the per-point scalar arithmetic does; numpy's complex array
# multiply does not always.


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _pair(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def _closed_entries(kind: NoiseKind, a: complex, b: complex, grid: np.ndarray) -> list:
    """The entries 00, 01, 10, 11 of the published output state at every grid point."""
    aa, dd = abs(a) ** 2, abs(b) ** 2
    coh = a * b.conjugate()
    coh_c = _pair(coh.conjugate())
    coh = _pair(coh)
    if kind is NoiseKind.DEPOLARIZING:
        q = 1 - grid
        q9, q12 = _pow(q, 9), _pow(q, 12)
        mix = (1 - q9) / 2
        return [
            (q9 * aa + mix, 0.0),
            _mul((q12, 0.0), coh),
            _mul((q12, 0.0), coh_c),
            (q9 * dd + mix, 0.0),
        ]
    if kind is NoiseKind.BIT_FLIP:
        u1, u2, u3, u4, u5 = _u_values(grid)[:5]
        four = (4.0, 0.0)
        return [
            (4 * (u1 * aa + u2 * dd + u3), 0.0),
            _mul(four, _add(_mul((u4, 0.0), coh), _mul((u5, 0.0), coh_c))),
            _mul(four, _add(_mul((u5, 0.0), coh), _mul((u4, 0.0), coh_c))),
            (4 * (u2 * aa + u1 * dd + u3), 0.0),
        ]
    u6 = (_u_values(grid)[5], 0.0)
    return [(aa, 0.0), _mul(u6, coh), _mul(u6, coh_c), (dd, 0.0)]


def rho10_closed(input_state: InputState, noise: ChannelSpec) -> Operator:
    """The published single-qubit output state under ``noise``, from
    :func:`_closed_entries`.

    A batch spec gives a batched operator, one 2x2 slice per probability.
    """
    grid, scalar = _probabilities(noise)
    entries = _closed_entries(noise.kind, *_amplitudes(input_state), grid)
    out = np.empty((grid.size, 2, 2), dtype=complex)
    for (i, j), (re, im) in zip(((0, 0), (0, 1), (1, 0), (1, 1)), entries):
        out.real[:, i, j] = re
        out.imag[:, i, j] = im
    return Operator(out[0] if scalar else out)
