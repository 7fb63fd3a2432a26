"""Reference answers for the benchmark, computed without the program.

The teleportation circuit is Clifford gates plus Pauli noise, so its
end-to-end map is diagonal in the Pauli basis: the output Bloch vector is
the input one with each component scaled by a monomial in p,

    depolarizing: (1-p)^9, (1-p)^12, (1-p)^9
    bit flip:     (1-2p),  (1-2p)^10, (1-2p)^9
    phase flip:   (1-2p)^8, (1-2p)^8, 1

for the X, Y and Z components.  Everything here follows from that table:
the output state (I + lx rx X + ly ry Y + lz rz Z)/2 and the fidelity
F = (1 + lx rx^2 + ly ry^2 + lz rz^2)/2 of a pure input with Bloch
vector r.  The float forms serve the sweep/trace/curves checks; the exact
form of the output state (Fractions, polynomials as coefficient lists)
serves the symbolic checks, so no oracle value passes through teleportsim
code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# (base, [ex, ey, ez]): lambda_axis = (1 - base*p) ** e_axis
TRANSFER = {
    "depolarizing": (1, (9, 12, 9)),
    "bitflip": (2, (1, 10, 9)),
    "phaseflip": (2, (8, 8, 0)),
}

GRID_STEPS = 101


def grid(steps: int = GRID_STEPS) -> list[float]:
    """The CLI's default p grid on [0, 1], formed the way users see it."""
    return [i / (steps - 1) for i in range(steps)]


def bloch(alpha: complex, beta: complex) -> tuple[float, float, float]:
    c = alpha * beta.conjugate()
    return 2 * c.real, -2 * c.imag, abs(alpha) ** 2 - abs(beta) ** 2


def fidelity(kind: str, alpha: complex, beta: complex, p: float) -> float:
    base, exps = TRANSFER[kind]
    r = bloch(alpha, beta)
    s = 1.0
    for e, ri in zip(exps, r):
        s += (1 - base * p) ** e * ri * ri
    return s / 2


# --- exact forms -----------------------------------------------------------
# A polynomial is a list of coefficients c0, c1, ... whose entries are
# Fractions (real) or (re, im) Fraction pairs (complex).


def binomial_power(base: int, e: int) -> list[Fraction]:
    """Coefficients of (1 - base*p)^e."""
    return [Fraction(comb(e, k) * (-base) ** k) for k in range(e + 1)]


def _axpy(acc: list, scale, poly: list) -> list:
    out = list(acc) + [0] * max(0, len(poly) - len(acc))
    for k, c in enumerate(poly):
        out[k] += scale * c
    return out


def trim(poly: list) -> list:
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return out


def exact_output_state(kind: str, alpha, beta) -> list[list[tuple[list, list]]]:
    """rho10 as a 2x2 matrix of (real part, imaginary part) polynomials.

    ``alpha`` and ``beta`` are (re, im) Fraction pairs of a normalized state.
    """
    (ar, ai), (br, bi) = alpha, beta
    cr = ar * br + ai * bi  # alpha * conj(beta)
    ci = ai * br - ar * bi
    rx, ry, rz = 2 * cr, -2 * ci, ar * ar + ai * ai - br * br - bi * bi
    base, (ex, ey, ez) = TRANSFER[kind]
    lx, ly, lz = (binomial_power(base, e) for e in (ex, ey, ez))
    half = Fraction(1, 2)
    zero: list = []
    d0 = trim(_axpy([half], half * rz, lz))
    d1 = trim(_axpy([half], -half * rz, lz))
    off_re = trim(_axpy([], half * rx, lx))
    off_im = trim(_axpy([], half * ry, ly))
    neg_im = trim([-c for c in off_im])
    return [
        [(d0, zero), (off_re, neg_im)],
        [(off_re, off_im), (d1, zero)],
    ]


# --- verify report -----------------------------------------------------------

#: Status column of `teleportsim verify`'s TSV, in target order, as the
#: package README documents it: 14 Match, 6 Mismatch, 1 NotIdentifiable.
VERIFY_STATUSES = (
    ["Match", "Match", "Mismatch", "Mismatch"]  # depolarizing
    + ["Match", "Match", "Mismatch", "Mismatch", "NotIdentifiable", "Match", "Match"]  # bit flip
    + ["Match"] * 4  # phase flip
    + ["Mismatch", "Mismatch", "Match"]  # first-order slopes
    + ["Match"] * 3  # factorized-marginal shortcut
)
VERIFY_EXIT_STATUS = 1  # the report contains mismatches
