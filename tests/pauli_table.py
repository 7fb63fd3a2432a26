"""Pauli-transfer table of the teleportation circuit, derived by hand.

It uses no teleportsim code, so the acceptance and verification tests can
check the pipeline and the exact transfer maps against it.
"""

from fractions import Fraction
from math import comb

# Pauli-transfer table of the circuit, derived without the program.
#
# The gates are Clifford and the noise is Pauli, so in the Heisenberg
# picture each output Pauli observable pulls back through the circuit as a
# single Pauli string (Gottesman, quant-ph/9807006).  The corrections (X
# from the qubit-2 outcome, Z from the qubit-1 outcome) make, up to sign,
# X_out -> Z1 X3 and Y_out -> Z1 Z2 Y3 and Z_out -> Z2 Z3 just before
# measurement; conjugating back through H1, CNOT12, CNOT23 and H2 gives
# the string seen by each of the four noise layers (layer 1 follows H2):
#
#   output  layer 1  layer 2  layer 3  layer 4   weight  Y/Z  X/Y
#     X      X X I    X X X    X I X    Z I X       9     1    8
#     Y      Y X Z    Y Y Y    X Z Y    Z Z Y      12    10    8
#     Z      Z I Z    Z Z Z    I Z Z    I Z Z       9     9    0
#
# and on the initial state |psi>|0>|0> the strings reduce to X, Y and Z of
# the input.  A depolarizing layer scales a string by (1-p) per
# non-identity factor (weight); a bit-flip layer by (1-2p) per Y or Z
# factor; a phase-flip layer by (1-2p) per X or Y factor.  So the output
# Bloch vector is the input one with component i scaled by
# lambda_i = (1 - b*p)**e_i, and for a pure input with Bloch vector r
#
#   F(p) = (1 + sum_i lambda_i r_i^2) / 2,   dF/dp(0) = -1/2 sum_i b e_i r_i^2.
PAULI_TRANSFER = {  # noise kind value: (b, (e_x, e_y, e_z))
    "depolarizing": (1, (9, 12, 9)),
    "bitflip": (2, (1, 10, 9)),
    "phaseflip": (2, (8, 8, 0)),
}


def binomial_power(base: int, e: int) -> list[Fraction]:
    """Coefficients c_0..c_e of (1 - base*p)**e."""
    return [Fraction(comb(e, k) * (-base) ** k) for k in range(e + 1)]


def bloch(ar, ai, br, bi):
    """Bloch vector of (ar + i ai)|0> + (br + i bi)|1>; exact for Fractions."""
    zr, zi = ar * br + ai * bi, ai * br - ar * bi  # alpha * conj(beta)
    return 2 * zr, -2 * zi, ar * ar + ai * ai - br * br - bi * bi
