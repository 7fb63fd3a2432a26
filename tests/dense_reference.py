"""Dense exact reference pipeline for the noisy teleportation circuit.

States are 8x8 (finally 2x2) object arrays of :class:`PolyP`, polynomials in
the noise probability p with Gaussian-rational coefficients.  The four gates,
the per-qubit Kraus operators of each channel and the measurement with its
corrections are written out below as explicit matrices and applied by
matrix products, so the reference shares no code with
``teleportsim.linalg``, ``teleportsim.channels`` or ``teleportsim.teleport``:
from the package it takes only the exact scalars and the ``NoiseKind`` names.
The Pauli-propagation engine of ``teleportsim.exact`` must equal it exactly.
"""

from fractions import Fraction

import numpy as np

from teleportsim.channels import NoiseKind
from teleportsim.exact import GaussianRational, P, PolyP

ZERO = PolyP.ZERO
_I = GaussianRational(0, 1)


def matrix(rows):
    """Object array of constant polynomials from rows of exact numbers."""
    return np.array([[PolyP([v]) for v in row] for row in rows], dtype=object)


def matmul(a, b):
    """Matrix product that skips zero entries."""
    out = np.full((a.shape[0], b.shape[1]), ZERO, dtype=object)
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            x = a[i, k]
            if not x:
                continue
            for j in range(b.shape[1]):
                y = b[k, j]
                if y:
                    out[i, j] = out[i, j] + x * y
    return out


def dagger(a):
    return np.array([[x.conjugate() for x in column] for column in a.T], dtype=object)


def kron(*factors):
    """Kronecker product, the first factor's qubits most significant."""
    out = factors[0]
    for b in factors[1:]:
        n, m = b.shape
        acc = np.full((out.shape[0] * n, out.shape[1] * m), ZERO, dtype=object)
        for (i, j), x in np.ndenumerate(out):
            if x:
                for (k, l), y in np.ndenumerate(b):
                    if y:
                        acc[i * n + k, j * m + l] = x * y
        out = acc
    return out


def conjugate(rho, u, scale=1):
    """u rho u^dagger, times the exact ``scale``."""
    out = matmul(matmul(u, rho), dagger(u))
    if scale != 1:
        out = out * scale
    return out


I2 = matrix([[1, 0], [0, 1]])
PAULIS = {
    "I": I2,
    "X": matrix([[0, 1], [1, 0]]),
    "Y": matrix([[0, -_I], [_I, 0]]),
    "Z": matrix([[1, 0], [0, -1]]),
}

#: Each gate as (matrix, scale of a conjugation by it): the Hadamard is
#: [[1, 1], [1, -1]] / sqrt(2), so conjugating by it halves the product.
GATES = {
    "H": (matrix([[1, 1], [1, -1]]), Fraction(1, 2)),
    "CNOT": (
        matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        1,
    ),
}

#: H on qubit 2, CNOT 2->3, CNOT 1->2, H on qubit 1, embedded in three qubits.
CIRCUIT = (
    (kron(I2, GATES["H"][0], I2), Fraction(1, 2)),
    (kron(I2, GATES["CNOT"][0]), 1),
    (kron(GATES["CNOT"][0], I2), 1),
    (kron(GATES["H"][0], I2, I2), Fraction(1, 2)),
)

#: Per-qubit Kraus operators {(w, K)}, with sum_i w_i K_i^dag K_i = I.
KRAUS = {
    NoiseKind.BIT_FLIP: ((1 - P, PAULIS["I"]), (P, PAULIS["X"])),
    NoiseKind.PHASE_FLIP: ((1 - P, PAULIS["I"]), (P, PAULIS["Z"])),
    NoiseKind.DEPOLARIZING: (
        (1 - P * Fraction(3, 4), PAULIS["I"]),
        (P * Fraction(1, 4), PAULIS["X"]),
        (P * Fraction(1, 4), PAULIS["Y"]),
        (P * Fraction(1, 4), PAULIS["Z"]),
    ),
}


def _embed(op, qubit):
    """A one-qubit operator on ``qubit`` of three, identity on the others."""
    factors = [I2, I2, I2]
    factors[qubit - 1] = op
    return kron(*factors)


def _branch(w, k, qubit):
    # (w K, K^dagger): the weight goes into the sparse left factor, where
    # it costs 8 products
    k = _embed(k, qubit)
    return k * w, dagger(k)


_BRANCHES = {
    (kind, q): [_branch(w, k, q) for w, k in kraus] for kind, kraus in KRAUS.items() for q in (1, 2, 3)
}


def noise_on_qubit(rho, kind, qubit):
    """The channel on ``qubit`` of three: the sum of w K rho K^dagger."""
    acc = None
    for wk, k_dagger in _BRANCHES[kind, qubit]:
        branch = matmul(matmul(wk, rho), k_dagger)
        acc = branch if acc is None else acc + branch
    return acc


def noise_layer(rho, kind):
    """The channel applied to each of the three qubits in turn."""
    for qubit in (1, 2, 3):
        rho = noise_on_qubit(rho, kind, qubit)
    return rho


def _basis_row(m):
    return matrix([[1 - m, m]])


def measure_and_correct(rho9, x_source=2, z_source=1):
    """Sum over the outcomes (m1, m2) of the projected, reduced and corrected
    qubit-3 state: X if the ``x_source`` outcome is 1, then Z if the
    ``z_source`` outcome is 1."""
    acc = None
    for m1 in (0, 1):
        for m2 in (0, 1):
            project = kron(_basis_row(m1), _basis_row(m2), I2)  # <m1 m2| (x) I
            block = matmul(matmul(project, rho9), dagger(project))
            outcome = {1: m1, 2: m2}
            x = PAULIS["X"] if outcome[x_source] else I2
            z = PAULIS["Z"] if outcome[z_source] else I2
            block = conjugate(block, matmul(z, x))
            acc = block if acc is None else acc + block
    return acc


def initial_state(input_state):
    """|psi><psi| (x) |00><00| for exact amplitudes."""
    psi = matrix([[input_state.alpha], [input_state.beta]])
    ancillas = matrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    return kron(matmul(psi, dagger(psi)), ancillas)


def run(rho1, kind, assignment=None):
    """rho10 of the noisy circuit from a three-qubit ``rho1``, under the
    correction wiring of ``assignment`` (default: X from qubit 2, Z from 1)."""
    rho = rho1
    for gate, scale in CIRCUIT:
        rho = noise_layer(conjugate(rho, gate, scale), kind)
    if assignment is None:
        return measure_and_correct(rho)
    return measure_and_correct(rho, assignment.x_source, assignment.z_source)


def overlap(input_state, rho):
    """<psi| rho |psi> for a one-qubit exact state."""
    psi = matrix([[input_state.alpha], [input_state.beta]])
    return matmul(matmul(dagger(psi), rho), psi)[0, 0]
