"""Published closed-form results for the noisy teleportation protocol.

This module is a faithful transcription of the published final states,
fidelities, first-order approximations, and the polynomial constants
u1..u6, evaluated numerically.  It makes no claim of independent
correctness: the verify module compares these reference forms against the
polynomials derived from the pipeline and reports where they agree and
where they do not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import ChannelSpec, NoiseKind
from .exact import PolyP
from .teleport import InputState


@dataclass(frozen=True)
class PublishedPolynomialTable:
    """The published noise polynomials, with exact rational coefficients.

    u1..u5 parameterize the bit-flip output state (u1/u2 diagonal transfer,
    u3 diagonal offset, u4/u5 coherence transfer, all scaled by 4); u6 is
    the phase-flip coherence factor.
    """

    u1: PolyP
    u2: PolyP
    u3: PolyP
    u4: PolyP
    u5: PolyP
    u6: PolyP


PUBLISHED = PublishedPolynomialTable(
    u1=PolyP(
        [Fraction(1, 4), Fraction(-5, 2), Fraction(73, 4), -84, 252, -504, 672, -576, 288, -64]
    ),
    u2=PolyP([0, 2, Fraction(-71, 4), 84, -252, 504, -672, 576, -288, 64]),
    u3=PolyP([0, Fraction(1, 4), Fraction(-1, 4)]),
    u4=PolyP(
        [
            Fraction(1, 4),
            Fraction(-11, 4),
            Fraction(83, 4),
            Fraction(-205, 2),
            Fraction(1337, 4),
            -742,
            1120,
            -1108,
            640,
            -128,
            -64,
            32,
        ]
    ),
    u5=PolyP(
        [
            0,
            2,
            Fraction(-79, 4),
            Fraction(405, 4),
            Fraction(-1335, 4),
            742,
            -1120,
            1108,
            -640,
            128,
            64,
            -32,
        ]
    ),
    u6=PolyP([1, -16, 112, -448, 1120, -1792, 1792, -1024, 256]),
)


@functools.cache
def _coefficient_table() -> np.ndarray:
    """u1..u6 as rows of float64 coefficients, lowest degree first, zero-padded.

    Built on first use, not at import, which every CLI command pays.
    """
    polys = [PUBLISHED.u1, PUBLISHED.u2, PUBLISHED.u3, PUBLISHED.u4, PUBLISHED.u5, PUBLISHED.u6]
    table = np.zeros((len(polys), max(poly.degree for poly in polys) + 1))
    for row, poly in enumerate(polys):
        table[row, : poly.degree + 1] = [float(c.re) for c in poly.coefficients]
    table.flags.writeable = False
    return table


def _probabilities(noise: ChannelSpec) -> tuple[np.ndarray, bool]:
    """The spec's checked ``p`` as a 1-D float64 grid, and whether it was a scalar."""
    grid = np.asarray(noise.p, dtype=float)
    return grid.reshape(-1), grid.ndim == 0


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


def fidelity_closed(input_state: InputState, noise: ChannelSpec):
    """<psi| rho |psi> for the published output state rho, expanded to a
    real number.

    A float for a scalar ``p``; an array for a batch spec, each value bit
    for bit the scalar one.
    """
    grid, scalar = _probabilities(noise)
    a, b = _amplitudes(input_state)
    r00, r01, r10, r11 = _closed_entries(noise.kind, a, b, grid)
    terms = (
        _mul((abs(a) ** 2, 0.0), r00),
        _mul(_pair(a.conjugate() * b), r01),
        _mul(_pair(b.conjugate() * a), r10),
        _mul((abs(b) ** 2, 0.0), r11),
    )
    re, im = functools.reduce(_add, terms)
    # real by conjugate symmetry; a residue (or a nan) means a typo
    if not np.all(np.abs(im) <= 1e-12):
        raise ValueError("closed-form fidelity has an imaginary part above 1e-12")
    return float(re[0]) if scalar else re


def _slope(kind: NoiseKind, t, cross):
    """The published slope from ``t = |a|^2 |b|^2`` and ``cross = 2 Re((a b*)^2)``:
    a float from floats, a Fraction from Fractions."""
    if kind is NoiseKind.DEPOLARIZING:
        return (12 * t + 9) / 2
    if kind is NoiseKind.BIT_FLIP:
        return 9 - 14 * t - 8 * cross
    return 32 * t


def linear_slope(kind: NoiseKind, input_state: InputState) -> float:
    """Magnitude of the published first-order fidelity decay coefficient.

    This is the bracketed factor of -p in the published small-p
    approximations; it equals -dF/dp at p = 0 of the corresponding
    published closed form.
    """
    a, b = _amplitudes(input_state)
    z = a * b.conjugate()
    return _slope(kind, abs(a) ** 2 * abs(b) ** 2, 2 * (z * z).real)


def fidelity_linear(input_state: InputState, noise: ChannelSpec):
    """Published small-p approximation F ~ 1 - p * slope, at a scalar or batch spec."""
    grid, scalar = _probabilities(noise)
    values = 1.0 - grid * linear_slope(noise.kind, input_state)
    return float(values[0]) if scalar else values


def linear_slope_exact(
    kind: NoiseKind, alpha: PolyP, beta: PolyP
) -> Fraction:
    """The published slope at exact Gaussian-rational amplitudes."""
    z = alpha * beta.conjugate()
    return _slope(kind, alpha.norm_sq() * beta.norm_sq(), 2 * (z * z).re)
