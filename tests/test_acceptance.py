"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2 and 5 check the pipeline against the Pauli-transfer table
below, which is derived by hand and uses no teleportsim code.  Each also
pins where the published closed forms agree with the circuit and where
they do not, so the findings of the verification report stay asserted:

1. the pipeline fidelity equals the table's on every grid point; the
   published fidelity matches it on 8 (channel, state) pairs and differs
   by more than 1e-3 on the other 7;
2. the depolarizing coherence map is exactly [(1-p)^9 +- (1-p)^12]/2;
   the published uniform (1-p)^12 is its keep - swap combination, so it
   holds only for purely imaginary alpha*conj(beta);
5. the derived slopes at three exact probes equal the table's; the
   published slope differs at the depolarizing and bit-flip probes, and
   the published linear form is the first-order Taylor polynomial of the
   published closed form, with a residual inside its own Taylor envelope.
"""

from fractions import Fraction
from math import comb

import numpy as np

from teleportsim.analytic import (
    PUBLISHED,
    fidelity_closed,
    fidelity_linear,
    linear_slope,
    linear_slope_exact,
)
from expanded_forms import depolarizing_subset_expansion, flip_sum_expansion
from teleportsim.channels import ChannelSpec, NoiseKind, apply_layer
from teleportsim.exact import GaussianRational, P, PolyP, extract_transfer_map
from teleportsim.linalg import (
    Operator,
    hermitian_eigenvalues,
    hermiticity_deviation,
    max_entry_delta,
)
from teleportsim.teleport import InputState, run_stages, teleport_fidelity
from teleportsim.verify import TargetStatus, fidelity_polynomial

FIVE_AMPLITUDES = ((1, 0), (2**-0.5, 2**-0.5), (0.6, 0.8), (0.6, 0.8j), (0.28, 0.96))
FIVE_STATES = tuple(InputState(a, b) for a, b in FIVE_AMPLITUDES)

DEFAULT_STATES = (InputState(1, 0), InputState(2**-0.5, 2**-0.5), InputState(0.6, 0.8))

P_GRID_101 = [i / 100 for i in range(101)]
P_GRID_11 = [i / 10 for i in range(11)]

ONE = PolyP.ONE
Q = ONE - P
R = ONE - PolyP([0, 2])

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


def table_fidelity(kind: NoiseKind, r, p: float) -> float:
    base, exps = PAULI_TRANSFER[kind.value]
    return (1 + sum((1 - base * p) ** e * ri * ri for e, ri in zip(exps, r))) / 2


def table_slope(kind: NoiseKind, r) -> Fraction:
    base, exps = PAULI_TRANSFER[kind.value]
    return -Fraction(1, 2) * sum(base * e * ri * ri for e, ri in zip(exps, r))


def criterion(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}")
    if failures:
        listing = "\n".join(failures[:12])
        more = "" if len(failures) <= 12 else f"\n... and {len(failures) - 12} more"
        raise AssertionError(f"criterion {num} has {len(failures)} violation(s):\n{listing}{more}")


def random_states(count: int, rng) -> list[Operator]:
    out = []
    for _ in range(count):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a @ a.conj().T
        out.append(Operator(m / np.trace(m).real))
    return out


# Where the published fidelity is the circuit's: phase flip everywhere; |0>
# under every channel, since it has no coherence and the published diagonal
# maps are right; and depolarizing at (0.6, 0.8i), where alpha*conj(beta) is
# purely imaginary, so only the (1-p)^12 Y component carries coherence.
PUBLISHED_FIDELITY_HOLDS = {("phaseflip", amp) for amp in FIVE_AMPLITUDES} | {
    ("depolarizing", (1, 0)),
    ("bitflip", (1, 0)),
    ("depolarizing", (0.6, 0.8j)),
}


def test_criterion_1_numeric_analytic_equivalence():
    failures = []
    for kind in NoiseKind:
        worst, worst_at = 0.0, None
        for amp, state in zip(FIVE_AMPLITUDES, FIVE_STATES):
            a, b = map(complex, amp)
            r = bloch(a.real, a.imag, b.real, b.imag)
            published_dev = 0.0
            for p in P_GRID_101:
                f_num = teleport_fidelity(state, ChannelSpec(kind, p))
                delta = abs(f_num - table_fidelity(kind, r, p))
                if delta > worst:
                    worst, worst_at = delta, (amp, p)
                f_pub = fidelity_closed(state, ChannelSpec(kind, p))
                published_dev = max(published_dev, abs(f_num - f_pub))
            if (kind.value, amp) in PUBLISHED_FIDELITY_HOLDS:
                if published_dev > 1e-12:
                    failures.append(
                        f"{kind.value} at {amp}: published fidelity should match, "
                        f"max |numeric - published| = {published_dev:.3e}"
                    )
            elif not published_dev > 1e-3:
                failures.append(
                    f"{kind.value} at {amp}: published fidelity should differ, "
                    f"max |numeric - published| = {published_dev:.3e}"
                )
        if worst > 1e-12:
            amp, p = worst_at
            failures.append(
                f"{kind.value}: max |numeric - Pauli table| = {worst:.3e} at {amp}, p={p}"
            )
    criterion(
        1,
        "pipeline fidelity equals the Pauli-table form to 1e-12; published form "
        "matches on 8 (channel, state) pairs and differs on 7",
        failures,
    )


def test_criterion_2_depolarizing_symbolic_reproduction():
    matrix = extract_transfer_map(NoiseKind.DEPOLARIZING)
    # alpha*conj(beta) = (rx - i ry)/2 goes to (lx rx - i ly ry)/2, which is
    # (lx + ly)/2 times itself plus (lx - ly)/2 times its conjugate.
    lam_x, lam_y, _ = (PolyP(binomial_power(1, e)) for e in PAULI_TRANSFER["depolarizing"][1])
    keep = (lam_x + lam_y) * Fraction(1, 2)
    swap = (lam_x - lam_y) * Fraction(1, 2)
    published_coherence = Q**12
    failures = []
    checks = [
        ("diagonal contraction", Q**9, matrix[0, 0] - matrix[0, 3]),
        ("mixing term", (ONE - Q**9) * Fraction(1, 2), matrix[0, 3]),
        ("coherence keep component", keep, matrix[1, 1]),
        ("coherence swap component", swap, matrix[1, 2]),
        ("published coherence as keep - swap", published_coherence, matrix[1, 1] - matrix[1, 2]),
    ]
    for name, expected, derived in checks:
        if expected != derived:
            failures.append(
                f"depolarizing {name}: expected {expected.to_text()}; "
                f"derived {derived.to_text()}"
            )
    if published_coherence == matrix[1, 1]:
        failures.append("published (1-p)^12 equals the coherence keep component")
    criterion(
        2,
        "depolarizing map: published diagonal exact, coherence [(1-p)^9 +- (1-p)^12]/2, "
        "published (1-p)^12 only its keep - swap",
        failures,
    )


def test_criterion_3_phaseflip_symbolic_reproduction():
    from teleportsim.analytic import PUBLISHED

    matrix = extract_transfer_map(NoiseKind.PHASE_FLIP)
    failures = []
    if matrix[1, 1] != PUBLISHED.u6:
        failures.append("derived coherence polynomial differs from published u6")
    if PUBLISHED.u6 != R**8:
        failures.append("published u6 is not (1-2p)^8")
    if matrix[1, 2]:
        failures.append("unexpected coherence swap component")
    criterion(3, "phase-flip coherence equals published u6 and (1-2p)^8 exactly", failures)


def test_criterion_4_bitflip_comparison_complete(verification_report):
    failures = []
    expected_targets = {
        "bitflip diagonal keep 4(u1+u3)",
        "bitflip diagonal swap 4(u2+u3)",
        "bitflip coherence keep 4u4",
        "bitflip coherence swap 4u5",
    }
    for name in expected_targets:
        try:
            t = verification_report.find(name)
        except KeyError:
            failures.append(f"missing comparison target {name}")
            continue
        if t.status not in (TargetStatus.MATCH, TargetStatus.MISMATCH):
            failures.append(f"{name}: no definitive Match/Mismatch status")
        if t.status is TargetStatus.MISMATCH and not t.coefficient_diffs:
            failures.append(f"{name}: mismatch without coefficient diffs")
        if not t.expected or not t.derived:
            failures.append(f"{name}: comparison not recorded")
    u3 = verification_report.find("bitflip u3 standalone")
    if u3.status is not TargetStatus.NOT_IDENTIFIABLE:
        failures.append("u3 target must be NotIdentifiable")
    if "1/4*p - 1/4*p^2" not in u3.expected:
        failures.append("u3 target must echo the published form")
    criterion(
        4,
        "bit-flip comparison is exact and complete (Mismatch with diffs allowed)",
        failures,
    )


# (kind, alpha, beta, dF/dp at 0 from the Pauli table, published slope agrees);
# amplitudes are exact (re, im) pairs.
SLOPE_PROBES = (
    (NoiseKind.DEPOLARIZING, (Fraction(3, 5), 0), (Fraction(4, 5), 0), Fraction(-9, 2), False),
    (NoiseKind.BIT_FLIP, (Fraction(3, 5), 0), (Fraction(4, 5), 0), Fraction(-1017, 625), False),
    (NoiseKind.PHASE_FLIP, (Fraction(3, 5), 0), (0, Fraction(4, 5)), Fraction(-4608, 625), True),
)


def published_fidelity_coefficients(kind: NoiseKind, alpha: complex, beta: complex) -> list[float]:
    """Coefficients c_k of the published closed-form fidelity F = sum c_k p^k.

    With t = |alpha|^2 |beta|^2 and cross = 2 Re((alpha conj(beta))^2),
    <psi|rho|psi> of the published output states expands to
      depolarizing: 1/2 + (1/2 - 2t)(1-p)^9 + 2t (1-p)^12,
      bit flip:     4(1-2t) u1 + 8t u2 + 4 u3 + 8t u4 + 4 cross u5,
      phase flip:   1 - 2t + 2t u6, with u6 = (1-2p)^8 (criterion 3).
    """
    a, b = complex(alpha), complex(beta)
    t = abs(a) ** 2 * abs(b) ** 2
    cross = 2 * ((a * b.conjugate()) ** 2).real
    if kind is NoiseKind.DEPOLARIZING:
        terms = [(0.5, [1]), (0.5 - 2 * t, binomial_power(1, 9)), (2 * t, binomial_power(1, 12))]
    elif kind is NoiseKind.BIT_FLIP:
        u = [
            [c.re for c in poly.coefficients]
            for poly in (PUBLISHED.u1, PUBLISHED.u2, PUBLISHED.u3, PUBLISHED.u4, PUBLISHED.u5)
        ]
        terms = list(zip((4 * (1 - 2 * t), 8 * t, 4, 8 * t, 4 * cross), u))
    else:
        terms = [(1 - 2 * t, [1]), (2 * t, binomial_power(2, 8))]
    out = [0.0] * max(len(coeffs) for _, coeffs in terms)
    for scale, coeffs in terms:
        for k, c in enumerate(coeffs):
            out[k] += scale * float(c)
    return out


def test_criterion_5_linear_approximation_slopes():
    failures = []
    for kind, a, b, expected, published_agrees in SLOPE_PROBES:
        alpha, beta = GaussianRational(*a), GaussianRational(*b)
        if table_slope(kind, bloch(*a, *b)) != expected:
            failures.append(f"{kind.value}: Pauli-table slope is not {expected}")
        derived = fidelity_polynomial(kind, InputState(alpha, beta)).coefficient(1)
        if derived != GaussianRational(expected):
            failures.append(
                f"{kind.value}: derived dF/dp at 0 is {derived}, table gives {expected}"
            )
        published = GaussianRational(-linear_slope_exact(kind, alpha, beta))
        if (published == derived) is not published_agrees:
            failures.append(
                f"{kind.value}: published slope {published} vs derived {derived}, "
                f"expected {'Match' if published_agrees else 'Mismatch'}"
            )
    # Taylor's theorem on the published closed form F = sum c_k p^k: if the
    # linear form is its first-order polynomial (c0 = 1, c1 = -slope), the
    # residual r(p) = F(p) - (1 - slope p) is sum_{k>=2} c_k p^k, so for
    # 0 <= p <= 1, |r(p) - c2 p^2| <= p^3 sum_{k>=3} |c_k|.
    for kind in NoiseKind:
        for amp, state in zip(FIVE_AMPLITUDES, FIVE_STATES):
            c = published_fidelity_coefficients(kind, *amp)
            slope = linear_slope(kind, state)
            if abs(c[0] - 1) > 1e-12 or abs(c[1] + slope) > 1e-12:
                failures.append(
                    f"{kind.value} at {amp}: closed form starts {c[0]!r} + {c[1]!r} p, "
                    f"linear form 1 - {slope!r} p"
                )
            tail = sum(abs(ck) for ck in c[3:])
            for p in np.linspace(0.001, 0.02, 20):
                p = float(p)
                spec = ChannelSpec(kind, p)
                resid = fidelity_closed(state, spec) - fidelity_linear(state, spec)
                excess = abs(resid - c[2] * p**2)
                if excess > p**3 * tail + 1e-14:
                    failures.append(
                        f"{kind.value} at {amp}: |residual - c2 p^2| = {excess:.3e} "
                        f"exceeds p^3 * {tail:.4g} at p={p:.4f}"
                    )
    criterion(
        5,
        "probe slopes equal the Pauli table (published: Mismatch, Mismatch, Match); "
        "published residual within its Taylor envelope",
        failures,
    )


def test_criterion_6_limit_checks():
    failures = []
    for kind in NoiseKind:
        for state in FIVE_STATES:
            f0 = teleport_fidelity(state, ChannelSpec(kind, 0.0))
            if abs(f0 - 1) > 1e-14:
                failures.append(f"{kind.value} at p=0: F = {f0!r}")
    for state in FIVE_STATES:
        f1 = teleport_fidelity(state, ChannelSpec(NoiseKind.DEPOLARIZING, 1.0))
        if abs(f1 - 0.5) > 1e-12:
            failures.append(f"depolarizing at p=1: F = {f1!r}")
    basis = InputState(1, 0)
    for p in P_GRID_101:
        f = teleport_fidelity(basis, ChannelSpec(NoiseKind.PHASE_FLIP, p))
        if abs(f - 1) > 1e-12:
            failures.append(f"phase flip on basis state at p={p}: F = {f!r}")
    criterion(6, "limits: F(0)=1, depolarizing F(1)=1/2, phase flip immune basis state", failures)


def test_criterion_7_channel_form_equivalences(rng):
    failures = []
    worst = 0.0
    for rho in random_states(50, rng):
        for p in P_GRID_11:
            delta = max_entry_delta(
                apply_layer(ChannelSpec(NoiseKind.DEPOLARIZING, p), rho),
                depolarizing_subset_expansion(rho, p),
            )
            worst = max(worst, delta)
    if worst > 1e-14:
        failures.append(f"depolarizing subset expansion deviates by {worst:.3e}")
    for kind in (NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP):
        worst = 0.0
        for rho in random_states(5, rng):
            for p in P_GRID_11:
                spec = ChannelSpec(kind, p)
                delta = max_entry_delta(apply_layer(spec, rho), flip_sum_expansion(spec, rho))
                worst = max(worst, delta)
        if worst > 1e-14:
            failures.append(f"{kind.value} explicit sum deviates by {worst:.3e}")
    criterion(7, "layer composition equals the expanded channel forms to 1e-14", failures)


def test_criterion_8_marginal_factorization_discrepancy(verification_report):
    failures = []
    product = verification_report.find("factorized marginal form on a product state")
    entangled = verification_report.find("factorized marginal form on an entangled state")
    if product.status is not TargetStatus.MATCH:
        failures.append("factorized form must agree on product states within 1e-14")
    dev = float(entangled.derived.split("deviation")[1].split()[0])
    if not dev > 1e-6:
        failures.append(f"entangled-state deviation {dev!r} not reported as nonzero")
    if entangled.status is not TargetStatus.MATCH:
        failures.append("entangled-state deviation target missing from report")
    criterion(
        8,
        "factorized-marginal shortcut: documented nonzero deviation on entangled states",
        failures,
    )


def test_criterion_9_property_suite():
    failures = []
    for kind in NoiseKind:
        for state in DEFAULT_STATES:
            for p in P_GRID_11:
                stages = run_stages(state, ChannelSpec(kind, p))
                for label, rho in stages.items():
                    if abs(rho.trace() - 1) > 1e-12:
                        failures.append(f"{kind.value} {label} p={p}: trace off")
                    if hermiticity_deviation(rho) > 1e-12:
                        failures.append(f"{kind.value} {label} p={p}: not Hermitian")
                    if hermitian_eigenvalues(rho)[0] < -1e-10:
                        failures.append(f"{kind.value} {label} p={p}: negative eigenvalue")
    pairs = [(0.6, 0.8), (0.6, 0.8j), (0.28, 0.96j)]
    phase = np.exp(0.9j)
    for kind in NoiseKind:
        for a, b in pairs:
            for p in (0.15, 0.35):
                spec = ChannelSpec(kind, p)
                f = teleport_fidelity(InputState(a, b), spec)
                f_swap = teleport_fidelity(InputState(b, a), spec)
                f_phase = teleport_fidelity(
                    InputState(a * phase, b * phase), spec
                )
                if abs(f - f_swap) > 1e-12:
                    failures.append(f"{kind.value} swap asymmetry at ({a},{b}), p={p}")
                if abs(f - f_phase) > 1e-12:
                    failures.append(f"{kind.value} phase sensitivity at ({a},{b}), p={p}")
    half_grid = np.linspace(0, 0.5, 26)
    for kind in NoiseKind:
        for state in DEFAULT_STATES:
            values = [
                teleport_fidelity(state, ChannelSpec(kind, float(p)))
                for p in half_grid
            ]
            for prev, cur in zip(values, values[1:]):
                if cur > prev + 1e-12:
                    failures.append(f"{kind.value} fidelity increases on [0, 0.5]")
                    break
    criterion(9, "stage physicality, symmetries, and monotone decline on [0, 0.5]", failures)


def test_criterion_10_channel_ordering():
    failures = []
    plus = InputState(2**-0.5, 2**-0.5)
    for p in (0.1, 0.2, 0.3):
        f_bit = fidelity_closed(plus, ChannelSpec(NoiseKind.BIT_FLIP, p))
        f_dep = fidelity_closed(plus, ChannelSpec(NoiseKind.DEPOLARIZING, p))
        if not f_bit >= f_dep:
            failures.append(f"p={p}: bit flip {f_bit} < depolarizing {f_dep}")
    criterion(10, "bit flip degrades equal superposition slower than depolarizing", failures)
