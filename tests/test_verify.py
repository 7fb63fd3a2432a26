"""The verification report: statuses, diffs, determinism, fault injection."""

import dataclasses

import pytest

import teleportsim.verify as verify_mod
from teleportsim.analytic import PUBLISHED
from teleportsim.exact import PolyP
from teleportsim.channels import NoiseKind
from teleportsim.verify import TargetStatus, run_verification, verify_kind

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
        assert verification_report.find(name).status is status, name


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
    t = verification_report.find("bitflip diagonal keep 4(u1+u3)")
    assert t.expected == t.derived
    assert "256*p^9" in t.expected


def test_depolarizing_coherence_diff_details(verification_report):
    t = verification_report.find("depolarizing coherence keep")
    degrees = [d for d, _, _ in t.coefficient_diffs]
    assert degrees == list(range(1, 13))
    exp_by_degree = dict((d, e) for d, e, _ in t.coefficient_diffs)
    assert exp_by_degree[1] == "-12"
    der_by_degree = dict((d, v) for d, _, v in t.coefficient_diffs)
    assert der_by_degree[1] == "-21/2"


def test_fallback_note_present(verification_report):
    assert any("correction assignment used" in n for n in verification_report.notes)
    assert any("fallback exercised" in n for n in verification_report.notes)


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
        verification_report.find("no such target")


def test_injected_table_fault_is_detected(monkeypatch):
    # perturb the published phase-flip polynomial at degree 3 and confirm the
    # comparison localizes exactly that coefficient
    coeffs = [c for c in PUBLISHED.u6.coefficients]
    coeffs[3] = coeffs[3] + 1
    bad_table = dataclasses.replace(PUBLISHED, u6=PolyP([c for c in coeffs]))
    monkeypatch.setattr(verify_mod, "PUBLISHED", bad_table)
    targets = verify_kind(NoiseKind.PHASE_FLIP)
    broken = [t for t in targets if t.name == "phaseflip coherence vs published u6"]
    assert broken[0].status is TargetStatus.MISMATCH
    assert [d for d, _, _ in broken[0].coefficient_diffs] == [3]
    binomial = [t for t in targets if "binomial" in t.name][0]
    assert binomial.status is TargetStatus.MISMATCH
