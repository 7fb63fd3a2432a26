"""Published closed-form results for the noisy teleportation protocol.

This module is the one transcription of the published output states: the
polynomial constants u1..u6 and the depolarizing powers (1-p)^9 and
(1-p)^12 in ``PUBLISHED``, and each kind's state read from them by
``PUBLISHED.state(kind)``.  ``PUBLISHED`` is the record's one binding:
``fidelity_closed`` (its float table cached per record and kind) and the
verify module read it at call time, so a replaced record reaches both.
It makes no claim of independent correctness: the verify module compares
the record with the polynomials derived from the pipeline and reports
where they agree and where they do not.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .channels import ChannelSpec, NoiseKind
from .exact import P, PolyP
from .linalg import _Frozen
from .teleport import InputState


class PublishedPolynomialTable(_Frozen):
    """The published noise polynomials in p, with exact rational coefficients.

    u1..u5 parameterize the bit-flip output state (u1/u2 diagonal transfer,
    u3 diagonal offset, u4/u5 coherence transfer, all scaled by 4); u6 is
    the phase-flip coherence factor; q9 = (1-p)^9 and q12 = (1-p)^12 are
    the depolarizing diagonal and coherence factors.  The hash is taken
    once, here: the caches of ``state`` and ``_fidelity_table`` look the
    record up on every call.
    """

    _fields = ("u1", "u2", "u3", "u4", "u5", "u6", "q9", "q12")
    __slots__ = _fields + ("_hash",)

    def __init__(self, u1: PolyP, u2: PolyP, u3: PolyP, u4: PolyP, u5: PolyP, u6: PolyP,
                 q9: PolyP, q12: PolyP):
        self._init(u1, u2, u3, u4, u5, u6, q9, q12)
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    @functools.cache
    def state(self, kind: NoiseKind) -> tuple[PolyP, PolyP, PolyP, PolyP, PolyP]:
        """``(keep, swap, offset, coherence, coherence_swap)`` of the published
        output state of ``kind``, in p: ``rho00 = keep |a|^2 + swap |b|^2 +
        offset`` and ``rho01 = coherence a b* + coherence_swap a* b``, with
        a and b exchanged for ``rho11`` and ``rho10``.  Built once per table
        and kind: ``verify`` reads it at each call."""
        if kind is NoiseKind.DEPOLARIZING:
            mixing = (PolyP.ONE - self.q9) * Fraction(1, 2)
            return self.q9, PolyP.ZERO, mixing, self.q12, PolyP.ZERO
        if kind is NoiseKind.BIT_FLIP:
            return tuple(u * 4 for u in (self.u1, self.u2, self.u3, self.u4, self.u5))
        return PolyP.ONE, PolyP.ZERO, PolyP.ZERO, self.u6, PolyP.ZERO


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
    q9=(PolyP.ONE - P) ** 9,
    q12=(PolyP.ONE - P) ** 12,
)


def _in_x(poly: PolyP, base: int) -> PolyP:
    """``poly(p)`` at ``p = (1 - x)/base``, by Horner: a polynomial in the
    channel's own variable ``x = 1 - base p``, whose indeterminate ``P``
    then stands for x."""
    p_of_x = (PolyP.ONE - P) * Fraction(1, base)
    acc = PolyP.ZERO
    for c in reversed(poly.coefficients):
        acc = acc * p_of_x + c
    return acc


@functools.cache
def _fidelity_table(published: PublishedPolynomialTable, kind: NoiseKind) -> tuple[int, np.ndarray]:
    """``base``, and A, L, T, C as rows of float64 coefficients, lowest
    degree first, zero-padded, of the published fidelity of a pure input,
    ``A s + L n + T t + C cross``, with ``s = |a|^4 + |b|^4``,
    ``n = |a|^2 + |b|^2``, ``t = |a|^2 |b|^2``, ``cross = 2 Re((a b*)^2)``.

    Contracting ``published.state(kind)`` gives A = keep, L = offset,
    T = 2 (swap + coherence) and C = coherence_swap.  Each row is a
    polynomial in the channel's own variable, ``x = 1 - base p`` (q for
    depolarizing, r for the flip channels), whose coefficients are small.
    Derived exactly on first use per record and kind, not at import, which
    every CLI command pays.
    """
    base = 1 if kind is NoiseKind.DEPOLARIZING else 2
    keep, swap, offset, coherence, coherence_swap = published.state(kind)
    rows = [_in_x(row, base) for row in (keep, offset, (swap + coherence) * 2, coherence_swap)]
    table = np.zeros((len(rows), max(row.degree for row in rows) + 1))
    for out, row in zip(table, rows):
        out[: row.degree + 1] = [float(c.re) for c in row.coefficients]
    table.flags.writeable = False
    return base, table


def _probabilities(noise: ChannelSpec) -> tuple[np.ndarray, bool]:
    """The spec's checked ``p`` as a 1-D float64 grid, and whether it was a scalar."""
    grid = np.asarray(noise.p, dtype=float)
    return grid.reshape(-1), grid.ndim == 0


def _moments(input_state: InputState) -> tuple[float, float, float, float]:
    """``|a|^2``, ``|b|^2``, ``t = |a|^2 |b|^2`` and ``cross = 2 Re((a b*)^2)``."""
    a, b = complex(input_state.alpha), complex(input_state.beta)
    aa, dd = abs(a) ** 2, abs(b) ** 2
    z = a * b.conjugate()
    return aa, dd, aa * dd, 2 * (z * z).real


def fidelity_closed(input_state: InputState, noise: ChannelSpec):
    """<psi| rho |psi> for the published output state rho, as the real form
    of ``_fidelity_table``.

    A float for a scalar ``p``; an array for a batch spec, each value bit
    for bit the scalar one: only ``+`` and ``*`` on float64 are used.
    """
    grid, scalar = _probabilities(noise)
    base, table = _fidelity_table(PUBLISHED, noise.kind)
    x = 1 - base * grid
    # A, L, T and C at every grid point, by one stacked Horner
    acc = np.zeros((len(table), grid.size))
    for column in table.T[::-1]:
        acc *= x
        acc += column[:, None]
    aa, dd, t, cross = _moments(input_state)
    values = acc[0] * (aa * aa + dd * dd) + acc[1] * (aa + dd) + acc[2] * t + acc[3] * cross
    return float(values[0]) if scalar else values


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
    _, _, t, cross = _moments(input_state)
    return _slope(kind, t, cross)


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
