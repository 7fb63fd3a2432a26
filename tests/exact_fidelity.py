"""Exact fidelities at the exact values of float inputs, for error budgets.

Every float is a dyadic rational, so a float output has an exact reference
at its own inputs: ``Fraction(p)`` and the ``Fraction`` parts of the float
amplitudes, unnormalized as they are.  The error of a float output is then
a rational number, given here in units of ``EPS = 2**-52``, with no
tolerance guessed.

- :func:`numeric_fidelity` is the pipeline's own fidelity, from
  ``exact.extract_transfer_map``: the reference of the ``numeric`` column;
- :func:`published_fidelity` contracts the published output state, built
  entry by entry from ``PUBLISHED``'s exact polynomials (and (1-p)^9,
  (1-p)^12) in p: the reference of the ``analytic`` column.
"""

from fractions import Fraction

from teleportsim.analytic import PUBLISHED
from teleportsim.channels import NoiseKind
from teleportsim.exact import GaussianRational, P, PolyP, extract_transfer_map

EPS = Fraction(1, 2**52)
_BASIS_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def exact_amplitudes(state) -> tuple[PolyP, PolyP]:
    """The exact values of a float state's two amplitudes."""
    return tuple(
        GaussianRational(Fraction(z.real), Fraction(z.imag))
        for z in (complex(state.alpha), complex(state.beta))
    )


def overlap(amps, rho) -> PolyP:
    """<psi| rho |psi> for amplitudes ``amps`` and a 2x2 nested list of
    polynomials in p."""
    return sum(
        (amps[i].conjugate() * rho[i][j] * amps[j] for i in range(2) for j in range(2)),
        PolyP.ZERO,
    )


def numeric_fidelity(kind: NoiseKind, state, assignment=None) -> PolyP:
    """The pipeline's fidelity on ``state``'s exact amplitudes, a polynomial in p."""
    a, b = exact_amplitudes(state)
    vec = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
    matrix = extract_transfer_map(kind, assignment)
    rho = [[PolyP.ZERO] * 2 for _ in range(2)]
    for row, (r, c) in enumerate(_BASIS_PAIRS):
        rho[r][c] = sum((matrix[row, col] * v for col, v in enumerate(vec)), PolyP.ZERO)
    return overlap((a, b), rho)


def published_state(kind: NoiseKind, a: PolyP, b: PolyP) -> list[list[PolyP]]:
    """The published output state on exact amplitudes, entry by entry, in p."""
    aa, dd = PolyP([a.norm_sq()]), PolyP([b.norm_sq()])
    coh = a * b.conjugate()
    cohc = coh.conjugate()
    u = PUBLISHED
    if kind is NoiseKind.DEPOLARIZING:
        q9, q12 = (PolyP.ONE - P) ** 9, (PolyP.ONE - P) ** 12
        mix = (PolyP.ONE - q9) * Fraction(1, 2)
        return [[q9 * aa + mix, q12 * coh], [q12 * cohc, q9 * dd + mix]]
    if kind is NoiseKind.BIT_FLIP:
        return [
            [(u.u1 * aa + u.u2 * dd + u.u3) * 4, (u.u4 * coh + u.u5 * cohc) * 4],
            [(u.u5 * coh + u.u4 * cohc) * 4, (u.u2 * aa + u.u1 * dd + u.u3) * 4],
        ]
    return [[aa, u.u6 * coh], [u.u6 * cohc, dd]]


def published_fidelity(kind: NoiseKind, state) -> PolyP:
    """The published output state's fidelity on ``state``'s exact
    amplitudes, a polynomial in p."""
    amps = exact_amplitudes(state)
    return overlap(amps, published_state(kind, *amps))


def error_in_eps(value: float, fidelity: PolyP, p: float) -> Fraction:
    """|value - fidelity(p)| in units of EPS, exactly, at the float ``p``."""
    exact = fidelity.evaluate_at(Fraction(p))
    assert exact.im == 0, "a fidelity is real"
    return abs(Fraction(value) - exact.re) / EPS
