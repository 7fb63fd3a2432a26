"""Cross-checks of derived pipeline polynomials against published forms.

Every target compares a polynomial derived from the exact transfer maps
against the corresponding published reference form, coefficient by
coefficient in rational arithmetic.  Mismatches never abort: detecting
typos in published polynomials is part of the job, so the report itself is
the product.  Mismatch entries always carry the per-degree coefficient
differences.

Floats appear only in the marginal-factorization targets, which quantify
how far the factorized noisy-marginal shortcut form drifts from the true
product channel on entangled inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import PUBLISHED, linear_slope_exact
from .channels import ChannelSpec, NoiseKind, apply_layer
from .exact import GaussianRational, P, PolyP, extract_transfer_map, run_pipeline_symbolic
from .linalg import (
    Operator,
    PureState,
    fidelity_with,  # unused here, but perfbench/tracer.py wraps this binding
    max_entry_delta,
    partial_trace,
    tensor,
)
from .teleport import ALTERNATE_ASSIGNMENTS, DEFAULT_ASSIGNMENT, CorrectionAssignment, InputState


class TargetStatus(enum.Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    NOT_IDENTIFIABLE = "NotIdentifiable"


@dataclass(frozen=True)
class VerificationTarget:
    name: str
    status: TargetStatus
    expected: str
    derived: str
    coefficient_diffs: tuple[tuple[int, str, str], ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    targets: tuple[VerificationTarget, ...]
    notes: tuple[str, ...] = ()

    @property
    def has_mismatch(self) -> bool:
        return any(t.status is TargetStatus.MISMATCH for t in self.targets)

    def find(self, name: str) -> VerificationTarget:
        for t in self.targets:
            if t.name == name:
                return t
        raise KeyError(name)

    def to_text(self) -> str:
        lines = ["verification report", "==================="]
        for t in self.targets:
            lines.append("")
            lines.append(f"target: {t.name}")
            lines.append(f"  status:   {t.status.value}")
            lines.append(f"  expected: {t.expected}")
            lines.append(f"  derived:  {t.derived}")
            for degree, exp, der in t.coefficient_diffs:
                lines.append(f"  diff p^{degree}: expected {exp}, derived {der}")
        if self.notes:
            lines.append("")
            lines.append("notes:")
            for note in self.notes:
                lines.append(f"  - {note}")
        lines.append("")
        return "\n".join(lines)

    def to_machine(self) -> str:
        rows = [
            "\t".join((t.name, t.status.value, t.expected, t.derived))
            for t in self.targets
        ]
        return "\n".join(rows) + "\n"


def _poly_target(name: str, expected: PolyP, derived: PolyP) -> VerificationTarget:
    if expected == derived:
        return VerificationTarget(
            name, TargetStatus.MATCH, expected.to_text(), derived.to_text()
        )
    diffs = []
    for degree in range(max(expected.degree, derived.degree) + 1):
        e = expected.coefficient(degree)
        d = derived.coefficient(degree)
        if e != d:
            diffs.append((degree, str(e), str(d)))
    return VerificationTarget(
        name,
        TargetStatus.MISMATCH,
        expected.to_text(),
        derived.to_text(),
        tuple(diffs),
    )


_ONE = PolyP.ONE
_Q = _ONE - P          # survival weight 1 - p
_R = _ONE - PolyP([0, 2])  # flip-channel transfer eigenvalue 1 - 2p


def _published_targets_for(
    kind: NoiseKind, matrix: np.ndarray
) -> list[tuple[str, PolyP, PolyP]]:
    """(name, expected, derived) triples for the published-form targets."""
    if kind is NoiseKind.DEPOLARIZING:
        return [
            ("depolarizing diagonal contraction", _Q**9, matrix[0, 0] - matrix[0, 3]),
            (
                "depolarizing mixing term",
                (_ONE - _Q**9) * Fraction(1, 2),
                matrix[0, 3],
            ),
            ("depolarizing coherence keep", _Q**12, matrix[1, 1]),
            ("depolarizing coherence swap", PolyP.ZERO, matrix[1, 2]),
        ]
    if kind is NoiseKind.BIT_FLIP:
        return [
            ("bitflip diagonal keep 4(u1+u3)", (PUBLISHED.u1 + PUBLISHED.u3) * 4, matrix[0, 0]),
            ("bitflip diagonal swap 4(u2+u3)", (PUBLISHED.u2 + PUBLISHED.u3) * 4, matrix[0, 3]),
            ("bitflip coherence keep 4u4", PUBLISHED.u4 * 4, matrix[1, 1]),
            ("bitflip coherence swap 4u5", PUBLISHED.u5 * 4, matrix[1, 2]),
        ]
    return [
        ("phaseflip coherence vs published u6", PUBLISHED.u6, matrix[1, 1]),
        ("phaseflip diagonal passthrough", _ONE, matrix[0, 0]),
        ("phaseflip diagonal mixing", PolyP.ZERO, matrix[0, 3]),
    ]


def verify_kind(kind: NoiseKind) -> list[VerificationTarget]:
    """The published-form targets of one noise kind, in report order."""
    matrix = extract_transfer_map(kind)
    targets = [
        _poly_target(name, expected, derived)
        for name, expected, derived in _published_targets_for(kind, matrix)
    ]
    if kind is NoiseKind.PHASE_FLIP:
        targets.insert(
            1,
            _poly_target("phaseflip u6 binomial structure (1-2p)^8", PUBLISHED.u6, _R**8),
        )
    elif kind is NoiseKind.BIT_FLIP:
        at_zero = [matrix[r, c].evaluate_at(0) for r in range(4) for c in range(4)]
        unit = [1 if r == c else 0 for r in range(4) for c in range(4)]
        targets += [
            VerificationTarget(
                "bitflip u3 standalone",
                TargetStatus.NOT_IDENTIFIABLE,
                PUBLISHED.u3.to_text(),
                "only the combinations u1+u3 and u2+u3 enter the output state "
                "for normalized inputs; u3 alone is not observable",
            ),
            _poly_target(
                "bitflip trace identity u1+u2+2u3",
                PolyP([Fraction(1, 4)]),
                PUBLISHED.u1 + PUBLISHED.u2 + PUBLISHED.u3 * 2,
            ),
            VerificationTarget(
                "bitflip map at p=0 is the identity",
                TargetStatus.MATCH if at_zero == unit else TargetStatus.MISMATCH,
                "entrywise identity map",
                "[" + ", ".join(map(str, at_zero)) + "]",
            ),
        ]
    return targets


_SLOPE_PROBES = (
    (NoiseKind.DEPOLARIZING, Fraction(3, 5), GaussianRational(Fraction(4, 5))),
    (NoiseKind.BIT_FLIP, Fraction(3, 5), GaussianRational(Fraction(4, 5))),
    (NoiseKind.PHASE_FLIP, Fraction(3, 5), GaussianRational(0, Fraction(4, 5))),
)


def fidelity_polynomial(kind: NoiseKind, input_state: InputState) -> PolyP:
    """Exact fidelity <psi| rho10 |psi> of the pipeline output as a polynomial in p."""
    rho = run_pipeline_symbolic(input_state, kind).entries
    amps = [PolyP([input_state.alpha]), PolyP([input_state.beta])]
    return sum(
        (
            ai.conjugate() * rho[i, j] * aj
            for i, ai in enumerate(amps)
            for j, aj in enumerate(amps)
            if ai and aj
        ),
        PolyP.ZERO,
    )


def verify_linear_slopes() -> list[VerificationTarget]:
    """Derived dF/dp at p=0 versus the published first-order coefficients."""
    targets = []
    for kind, alpha_re, beta in _SLOPE_PROBES:
        alpha = GaussianRational(alpha_re)
        probe = InputState(alpha, beta)
        fpoly = fidelity_polynomial(kind, probe)
        derived_c1 = fpoly.coefficient(1)
        expected_c1 = GaussianRational(-linear_slope_exact(kind, alpha, beta))
        label = f"slope {kind.value} at probe ({alpha},{beta})"
        targets.append(_poly_target(label, expected_c1, derived_c1))
    return targets


def _product_of_noisy_marginals(rho: Operator, p: float) -> Operator:
    """The factorized shortcut form: tensor of per-qubit noisy marginals.

    Drops all correlations of the input state, so it can only agree with
    the true product channel on product states.
    """
    out = None
    one_q = np.eye(2, dtype=np.complex128)
    for q in range(1, rho.num_qubits + 1):
        marginal = partial_trace(rho, [q])
        noisy = Operator((1 - p) * marginal.entries + (p / 2) * one_q)
        out = noisy if out is None else tensor(out, noisy)
    return out


def _bell_pair_state() -> Operator:
    amp = 2**-0.5
    bell = PureState([amp, 0, 0, amp]).projector()
    qubit3 = PureState([1, 0]).projector()
    return tensor(bell, qubit3)


def _plus_product_state() -> Operator:
    plus = PureState([2**-0.5, 2**-0.5]).projector()
    mixed = Operator([[0.3, 0], [0, 0.7]])
    zero = PureState([1, 0]).projector()
    return tensor(tensor(plus, mixed), zero)


def verify_marginal_factorization() -> list[VerificationTarget]:
    """Quantify the factorized-marginal shortcut against the true channel."""
    spec = ChannelSpec(NoiseKind.DEPOLARIZING, 0.5)

    product = _plus_product_state()
    dev_product = max_entry_delta(
        _product_of_noisy_marginals(product, 0.5), apply_layer(spec, product)
    )
    entangled = _bell_pair_state()
    dev_entangled = max_entry_delta(
        _product_of_noisy_marginals(entangled, 0.5), apply_layer(spec, entangled)
    )
    dev_p0 = max_entry_delta(_product_of_noisy_marginals(entangled, 0.0), entangled)

    return [
        VerificationTarget(
            "factorized marginal form on a product state",
            TargetStatus.MATCH if dev_product <= 1e-14 else TargetStatus.MISMATCH,
            "agreement within 1e-14",
            f"max entry deviation {dev_product:.3e}",
        ),
        VerificationTarget(
            "factorized marginal form on an entangled state",
            TargetStatus.MATCH if dev_entangled > 1e-6 else TargetStatus.MISMATCH,
            "nonzero deviation (correlations dropped on entangled inputs)",
            f"max entry deviation {dev_entangled:.17g} at p=1/2",
        ),
        VerificationTarget(
            "factorized marginal form at p=0 on an entangled state",
            TargetStatus.MATCH if dev_p0 > 1e-6 else TargetStatus.MISMATCH,
            "nonzero deviation (form reduces to the product of marginals, not the state)",
            f"max entry deviation {dev_p0:.17g}",
        ),
    ]


def _published_forms_match(assignment: CorrectionAssignment) -> bool:
    for kind in NoiseKind:
        matrix = extract_transfer_map(kind, assignment)
        for _, expected, derived in _published_targets_for(kind, matrix):
            if expected != derived:
                return False
    return True


def run_verification() -> VerificationReport:
    """Run every verification target in fixed order and assemble the report."""
    targets = [target for kind in NoiseKind for target in verify_kind(kind)]
    targets += verify_linear_slopes() + verify_marginal_factorization()
    notes = [f"correction assignment used: {DEFAULT_ASSIGNMENT.describe()}"]
    published_mismatch = any(
        t.status is TargetStatus.MISMATCH
        and not t.name.startswith("factorized marginal")
        for t in targets
    )
    if published_mismatch:
        matched = None
        for alt in ALTERNATE_ASSIGNMENTS:
            if _published_forms_match(alt):
                matched = alt
                break
        if matched is not None:
            notes.append(
                "published forms are reproduced under the alternate correction "
                f"assignment {matched.describe()}; targets above retain the default"
            )
        else:
            notes.append(
                "fallback exercised: no correction assignment (default or the "
                "three alternates) reproduces the published coherence forms; "
                "the mismatches above are assignment-independent"
            )
    return VerificationReport(tuple(targets), tuple(notes))
