"""The verification report: statuses, diffs, determinism, fault injection."""

from fractions import Fraction

import numpy as np
import pytest

import teleportsim.analytic as analytic
import teleportsim.verify as verify_mod
from conftest import find_target, replace_field
from pauli_table import PAULI_TRANSFER, binomial_power, bloch
from teleportsim.analytic import PUBLISHED, fidelity_closed, linear_slope_exact
from teleportsim.exact import GaussianRational, PolyP, extract_transfer_map
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.teleport import ALTERNATE_ASSIGNMENTS, DEFAULT_ASSIGNMENT, InputState
from teleportsim.verify import TargetStatus, fidelity_polynomial, run_verification, verify_kind

EXPECTED_STATUS = {
    "depolarizing diagonal contraction": TargetStatus.MATCH,
    "depolarizing mixing term": TargetStatus.MATCH,
    "depolarizing coherence keep": TargetStatus.MISMATCH,
    "depolarizing coherence swap": TargetStatus.MISMATCH,
    "bitflip diagonal keep 4(u1+u3)": TargetStatus.MATCH,
    "bitflip diagonal swap 4(u2+u3)": TargetStatus.MATCH,
    "bitflip coherence keep 4u4": TargetStatus.MISMATCH,
    "bitflip coherence swap 4u5": TargetStatus.MISMATCH,
    "bitflip u3 standalone": TargetStatus.NOT_IDENTIFIABLE,
    "bitflip trace identity u1+u2+2u3": TargetStatus.MATCH,
    "bitflip map at p=0 is the identity": TargetStatus.MATCH,
    "phaseflip coherence vs published u6": TargetStatus.MATCH,
    "phaseflip u6 binomial structure (1-2p)^8": TargetStatus.MATCH,
    "phaseflip diagonal passthrough": TargetStatus.MATCH,
    "phaseflip diagonal mixing": TargetStatus.MATCH,
    "slope depolarizing at probe (3/5,4/5)": TargetStatus.MISMATCH,
    "slope bitflip at probe (3/5,4/5)": TargetStatus.MISMATCH,
    "slope phaseflip at probe (3/5,(0,4/5))": TargetStatus.MATCH,
    "factorized marginal form on a product state": TargetStatus.MATCH,
    "factorized marginal form on an entangled state": TargetStatus.MATCH,
    "factorized marginal form at p=0 on an entangled state": TargetStatus.MATCH,
}


def test_every_planned_target_appears_exactly_once(verification_report):
    names = [t.name for t in verification_report.targets]
    assert names == list(EXPECTED_STATUS)


def test_target_statuses(verification_report):
    for name, status in EXPECTED_STATUS.items():
        assert find_target(verification_report, name).status is status, name


def test_mismatches_carry_coefficient_diffs(verification_report):
    for t in verification_report.targets:
        if t.status is TargetStatus.MISMATCH:
            assert t.coefficient_diffs, t.name
        if t.status is TargetStatus.MATCH and not t.name.startswith(
            ("factorized", "bitflip map")
        ):
            assert not t.coefficient_diffs, t.name
            assert t.expected == t.derived


def test_published_bitflip_diagonal_confirmed(verification_report):
    t = find_target(verification_report, "bitflip diagonal keep 4(u1+u3)")
    assert t.expected == t.derived
    assert "256*p^9" in t.expected


def test_depolarizing_coherence_diff_details(verification_report):
    t = find_target(verification_report, "depolarizing coherence keep")
    degrees = [d for d, _, _ in t.coefficient_diffs]
    assert degrees == list(range(1, 13))
    exp_by_degree = dict((d, e) for d, e, _ in t.coefficient_diffs)
    assert exp_by_degree[1] == "-12"
    der_by_degree = dict((d, v) for d, _, v in t.coefficient_diffs)
    assert der_by_degree[1] == "-21/2"


def test_marginal_deviations_are_exact(verification_report):
    # dyadic inputs at p = 1/2: 0, 3/32 and 1/2 exactly, with no rounding
    derived = {
        "factorized marginal form on a product state": "max entry deviation 0.000e+00",
        "factorized marginal form on an entangled state": "max entry deviation 0.09375 at p=1/2",
        "factorized marginal form at p=0 on an entangled state": "max entry deviation 0.5",
    }
    for name, text in derived.items():
        assert find_target(verification_report, name).derived == text
    assert find_target(verification_report, next(iter(derived))).expected == "exact agreement"


def test_fallback_note_present(verification_report):
    assert any("correction assignment used" in n for n in verification_report.notes)
    assert any("fallback exercised" in n for n in verification_report.notes)


def _stub_targets(monkeypatch, published_status, marginal_status):
    """Stub the three target builders: every per-kind and slope target has
    ``published_status``, and one marginal-factorization target, under a
    name that says nothing of its group, has ``marginal_status``."""

    def target(name, status):
        return verify_mod.VerificationTarget(name, status, "expected", "derived")

    monkeypatch.setattr(
        verify_mod, "verify_kind", lambda kind: [target(f"{kind.value} form", published_status)]
    )
    monkeypatch.setattr(
        verify_mod, "verify_linear_slopes", lambda: [target("slope", TargetStatus.MATCH)]
    )
    monkeypatch.setattr(
        verify_mod, "verify_marginal_factorization",
        lambda: [target("shortcut drift", marginal_status)],
    )


def test_fallback_is_decided_by_the_published_targets(monkeypatch):
    # a marginal-factorization mismatch, whatever its name, calls for no
    # other correction assignment
    _stub_targets(monkeypatch, TargetStatus.MATCH, TargetStatus.MISMATCH)
    report = run_verification()
    assert report.has_mismatch and report.targets[-1].name == "shortcut drift"
    assert report.notes == (f"correction assignment used: {DEFAULT_ASSIGNMENT.describe()}",)
    # a published-form mismatch does, and no assignment reproduces these
    _stub_targets(monkeypatch, TargetStatus.MISMATCH, TargetStatus.MATCH)
    monkeypatch.setattr(verify_mod, "_published_forms_match", lambda assignment: False)
    assert "fallback exercised" in run_verification().notes[-1]


@pytest.mark.parametrize("alternate", ALTERNATE_ASSIGNMENTS, ids=lambda a: a.describe())
def test_note_names_the_one_alternate_that_reproduces_the_published_forms(
    monkeypatch, alternate
):
    _stub_targets(monkeypatch, TargetStatus.MISMATCH, TargetStatus.MATCH)
    monkeypatch.setattr(
        verify_mod, "_published_forms_match", lambda assignment: assignment == alternate
    )
    assert run_verification().notes == (
        f"correction assignment used: {DEFAULT_ASSIGNMENT.describe()}",
        "published forms are reproduced under the alternate correction assignment "
        f"{alternate.describe()}; targets above retain the default",
    )


def test_report_is_deterministic(verification_report):
    again = run_verification()
    assert again.to_text() == verification_report.to_text()
    assert again.to_machine() == verification_report.to_machine()


def test_machine_format_shape(verification_report):
    lines = verification_report.to_machine().splitlines()
    assert len(lines) == len(verification_report.targets)
    for line in lines:
        assert len(line.split("\t")) == 4


def test_find_unknown_target_raises(verification_report):
    with pytest.raises(KeyError):
        find_target(verification_report, "no such target")


# at (a, b) = (0.6, 0.8) and p = 0.3, adding p^3 to u6 adds p^3 to the
# coherence, moving the fidelity by 2 p^3 |a|^2 |b|^2; adding it to q9 adds
# p^3 to keep and -p^3/2 to the offset, moving it by p^3 (s - n/2)
SHIFT_AT_PROBE = {"u6": 2 * 0.3**3 * 0.36 * 0.64, "q9": 0.3**3 * (0.36**2 + 0.64**2 - 0.5)}


@pytest.mark.parametrize(
    "field, kind, turned",
    [
        (
            "u6",
            NoiseKind.PHASE_FLIP,
            {"phaseflip coherence vs published u6", "phaseflip u6 binomial structure (1-2p)^8"},
        ),
        (
            "q9",
            NoiseKind.DEPOLARIZING,
            {"depolarizing diagonal contraction", "depolarizing mixing term"},
        ),
    ],
    ids=["u6", "q9"],
)
def test_injected_table_fault_is_detected(monkeypatch, field, kind, turned):
    # perturb one published polynomial at degree 3: exactly the targets that
    # read it turn Mismatch, each comparison localizes that coefficient, and
    # the analytic column moves with it; restoring the record restores both.
    # fidelity_closed runs first, so a float table cached for the original
    # record must not outlive its replacement
    state, spec = InputState(0.6, 0.8), ChannelSpec(kind, 0.3)
    before = {t.name: t.status for t in verify_kind(kind)}
    fidelity = fidelity_closed(state, spec)
    coeffs = list(getattr(PUBLISHED, field).coefficients)
    coeffs[3] = coeffs[3] + 1
    bad_table = replace_field(PUBLISHED, **{field: PolyP(coeffs)})
    # the float table is built from the record it is passed, not from the
    # module's binding, which still holds the original here
    bad_rows, rows = (analytic._fidelity_table(t, kind)[1] for t in (bad_table, PUBLISHED))
    assert not np.array_equal(bad_rows, rows)
    monkeypatch.setattr(analytic, "PUBLISHED", bad_table)
    broken = [
        t
        for t in verify_kind(kind)
        if t.status is TargetStatus.MISMATCH and before[t.name] is not TargetStatus.MISMATCH
    ]
    assert {t.name for t in broken} == turned
    for t in broken:
        assert [d for d, _, _ in t.coefficient_diffs] == [3], t.name
    shift = fidelity_closed(state, spec) - fidelity
    assert shift == pytest.approx(SHIFT_AT_PROBE[field], abs=1e-14)
    monkeypatch.undo()
    assert {t.name: t.status for t in verify_kind(kind)} == before
    assert fidelity_closed(state, spec) == fidelity


PYTHAGOREAN_TRIPLES = (
    (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
    (20, 21, 29), (12, 35, 37), (9, 40, 41), (28, 45, 53),
)
UNIT_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # 1, i, -1, -i


def pythagorean_parts():
    """(re alpha, im alpha, re beta, im beta) of every state ((a/c) w1, (b/c) w2)."""
    for a, b, c in PYTHAGOREAN_TRIPLES:
        for u1, v1 in UNIT_PHASES:
            for u2, v2 in UNIT_PHASES:
                yield (Fraction(a * u1, c), Fraction(a * v1, c),
                       Fraction(b * u2, c), Fraction(b * v2, c))


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_slope_difference_over_the_pythagorean_family(kind):
    """Derived minus published slope, exactly, at every state
    ((a/c) w1, (b/c) w2): 6 Re(ab*)^2 for depolarizing, 2 Re((ab*)^2) for
    bit flip and 0 for phase flip, with ab* from Fraction parts."""
    for ar, ai, br, bi in pythagorean_parts():
        alpha, beta = GaussianRational(ar, ai), GaussianRational(br, bi)
        re, im = ar * br + ai * bi, ai * br - ar * bi  # alpha conj(beta)
        want = {
            NoiseKind.DEPOLARIZING: 6 * re * re,
            NoiseKind.BIT_FLIP: 2 * (re * re - im * im),
            NoiseKind.PHASE_FLIP: 0,
        }[kind]
        derived = fidelity_polynomial(kind, InputState(alpha, beta)).coefficient(1)
        published = GaussianRational(linear_slope_exact(kind, alpha, beta))
        assert derived + published == want, (kind, alpha, beta)


# A slope at p = 0 is a linear form in (rx^2, ry^2, rz^2), held as its three
# rational coefficients; a constant c is held as c (rx^2 + ry^2 + rz^2),
# which is c on the Bloch sphere of a pure input.
RX2, RY2, RZ2 = np.identity(3, dtype=int).astype(object) * Fraction(1)
SPHERE = RX2 + RY2 + RZ2
# |alpha|^2 |beta|^2 = (1 - rz^2)/4, and 2 Re((alpha beta*)^2) = (rx^2 - ry^2)/2
T = (SPHERE - RZ2) / 4
CROSS = (RX2 - RY2) / 2
PUBLISHED_SLOPE = {  # analytic.linear_slope_exact, in Bloch components
    NoiseKind.DEPOLARIZING: 6 * T + Fraction(9, 2) * SPHERE,
    NoiseKind.BIT_FLIP: 9 * SPHERE - 14 * T - 8 * CROSS,
    NoiseKind.PHASE_FLIP: 32 * T,
}
# derived minus published slope: 6 Re(ab*)^2, 2 Re((ab*)^2) and 0, with
# alpha conj(beta) = (rx - i ry)/2
SLOPE_DIFFERENCE = {
    NoiseKind.DEPOLARIZING: 6 * RX2 / 4,
    NoiseKind.BIT_FLIP: CROSS,
    NoiseKind.PHASE_FLIP: 0 * SPHERE,
}


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_bloch_factors_give_the_slope_differences_as_identities(kind):
    """The map's Bloch factors are the Pauli table's monomials, and the slope
    differences hold as identities in rx^2, ry^2 and rz^2."""
    m = extract_transfer_map(kind)
    factors = (m[1, 1] + m[1, 2], m[1, 1] - m[1, 2], m[0, 0] - m[0, 3])
    base, exponents = PAULI_TRANSFER[kind.value]
    assert factors == tuple(PolyP(binomial_power(base, e)) for e in exponents)
    # F = (1 + lx rx^2 + ly ry^2 + lz rz^2)/2, so dF/dp at 0 takes half of
    # each factor's linear coefficient
    derived = np.array([f.coefficient(1).re / 2 for f in factors], dtype=object)
    assert list(derived + PUBLISHED_SLOPE[kind]) == list(SLOPE_DIFFERENCE[kind])
    # the Bloch form is the fidelity, and the published form in Bloch
    # components is linear_slope_exact, on every state of the family
    for ar, ai, br, bi in pythagorean_parts():
        alpha, beta = GaussianRational(ar, ai), GaussianRational(br, bi)
        r2 = [ri * ri for ri in bloch(ar, ai, br, bi)]
        bloch_form = (1 + sum((f * x for f, x in zip(factors, r2)), PolyP.ZERO)) * Fraction(1, 2)
        assert bloch_form == fidelity_polynomial(kind, InputState(alpha, beta)), (alpha, beta)
        assert np.dot(PUBLISHED_SLOPE[kind], r2) == linear_slope_exact(kind, alpha, beta)
