"""Symbolic runs, transfer maps, and agreement of the exact routes.

The package derives its exact maps by Pauli propagation.  The dense route,
the gate/noise ladder run over 8x8 :class:`PolyP` arrays in
``dense_reference``, is the reference they must equal exactly.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_reference as ref
from exact_fidelity import EPS
from teleportsim import exact, teleport
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.exact import (
    GaussianRational,
    P,
    PolyP,
    extract_transfer_map,
    run_pipeline_symbolic,
)
from teleportsim.teleport import (
    ALTERNATE_ASSIGNMENTS,
    DEFAULT_ASSIGNMENT,
    InputState,
    build_initial,
    run_stages,
    run_stages_from_initial,
)
from teleportsim.verify import fidelity_polynomial

ONE = PolyP.ONE
Q = ONE - P
R = ONE - PolyP([0, 2])

PROBE_REAL = InputState(GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5)))
PROBE_IMAG = InputState(GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5)))
PROBE_BASIS = InputState(GaussianRational(Fraction(1)), GaussianRational(0))

ALL_PROBES = (PROBE_REAL, PROBE_IMAG, PROBE_BASIS)


class TestSymbolicRuns:
    def test_phaseflip_probe_structure(self):
        out = run_pipeline_symbolic(PROBE_REAL, NoiseKind.PHASE_FLIP)
        assert out.entries[0, 0] == PolyP([Fraction(9, 25)])
        assert out.entries[1, 1] == PolyP([Fraction(16, 25)])
        assert out.entries[0, 1] == R**8 * Fraction(12, 25)

    def test_depolarizing_probe_coherence(self):
        # the coherence map splits by component: real alpha*beta decays with
        # the ninth power of the survival weight, imaginary with the twelfth
        out = run_pipeline_symbolic(PROBE_REAL, NoiseKind.DEPOLARIZING)
        assert out.entries[0, 1] == Q**9 * Fraction(12, 25)
        out = run_pipeline_symbolic(PROBE_IMAG, NoiseKind.DEPOLARIZING)
        assert out.entries[0, 1] == Q**12 * GaussianRational(0, Fraction(-12, 25))

    def test_basis_probe_at_zero(self):
        for kind in NoiseKind:
            out = run_pipeline_symbolic(PROBE_BASIS, kind)
            assert out.entries[0, 0].evaluate_at(0) == GaussianRational(1)
            assert out.entries[1, 1].evaluate_at(0) == GaussianRational(0)
            assert out.entries[0, 1].evaluate_at(0) == GaussianRational(0)

    def test_trace_polynomial_is_one(self):
        for kind in NoiseKind:
            for probe in ALL_PROBES:
                out = run_pipeline_symbolic(probe, kind)
                assert out.entries[0, 0] + out.entries[1, 1] == ONE

    def test_hermitian_symmetry(self):
        for kind in NoiseKind:
            out = run_pipeline_symbolic(PROBE_IMAG, kind)
            assert out.entries[0, 1] == out.entries[1, 0].conjugate()

    def test_degree_bounds(self):
        caps = {
            NoiseKind.DEPOLARIZING: 12,
            NoiseKind.BIT_FLIP: 12,
            NoiseKind.PHASE_FLIP: 8,
        }
        for kind, cap in caps.items():
            out = run_pipeline_symbolic(PROBE_REAL, kind)
            for r in range(2):
                for c in range(2):
                    assert out.entries[r, c].degree <= cap

    def test_rejects_unnormalized_exact_input(self):
        with pytest.raises(ValueError):
            run_pipeline_symbolic(
                InputState(GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 2))),
                NoiseKind.BIT_FLIP,
            )

    def test_rejects_float_amplitudes(self):
        with pytest.raises(TypeError):
            run_pipeline_symbolic(InputState(0.6, 0.8), NoiseKind.BIT_FLIP)


class TestBackendAgreement:
    def test_symbolic_evaluation_matches_float_pipeline(self):
        rationals = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(7, 8), Fraction(1)]
        for kind in NoiseKind:
            for probe in ALL_PROBES:
                sym = run_pipeline_symbolic(probe, kind)
                for pr in rationals:
                    flo = run_stages(
                        InputState(complex(probe.alpha), complex(probe.beta)),
                        ChannelSpec(kind, float(pr)),
                    )["rho10"]
                    for r in range(2):
                        for c in range(2):
                            want = complex(sym.entries[r, c].evaluate_at(pr))
                            assert abs(flo.entries[r, c] - want) <= 1e-12


class TestTransferMap:
    def test_identity_at_zero(self):
        for kind in NoiseKind:
            matrix = extract_transfer_map(kind)
            for r in range(4):
                for c in range(4):
                    expected = GaussianRational(1 if r == c else 0)
                    assert matrix[r, c].evaluate_at(0) == expected

    def test_depolarizing_coherence_columns(self):
        matrix = extract_transfer_map(NoiseKind.DEPOLARIZING)
        assert matrix[1, 1] == (Q**9 + Q**12) * Fraction(1, 2)
        assert matrix[1, 2] == (Q**9 - Q**12) * Fraction(1, 2)
        assert matrix[2, 1] == matrix[1, 2]
        assert matrix[2, 2] == matrix[1, 1]

    def test_bitflip_coherence_columns(self):
        matrix = extract_transfer_map(NoiseKind.BIT_FLIP)
        assert matrix[1, 1] == (R + R**10) * Fraction(1, 2)
        assert matrix[1, 2] == (R - R**10) * Fraction(1, 2)

    def test_no_population_coherence_mixing(self):
        for kind in NoiseKind:
            matrix = extract_transfer_map(kind)
            for r in (0, 3):
                for c in (1, 2):
                    assert not matrix[r, c]
            for r in (1, 2):
                for c in (0, 3):
                    assert not matrix[r, c]

    def test_linearity_reconstructs_symbolic_runs(self):
        # the dense pipeline's map, applied to the probe by linearity, equals
        # the symbolic run of the Pauli-propagation engine
        for kind in NoiseKind:
            matrix = dense_transfer_map(kind)
            for probe in (PROBE_REAL, PROBE_IMAG):
                a, b = PolyP([probe.alpha]), PolyP([probe.beta])
                vec = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
                direct = run_pipeline_symbolic(probe, kind)
                flat = [direct.entries[0, 0], direct.entries[0, 1], direct.entries[1, 0], direct.entries[1, 1]]
                for row in range(4):
                    rebuilt = PolyP.ZERO
                    for col in range(4):
                        rebuilt = rebuilt + matrix[row, col] * vec[col]
                    assert rebuilt == flat[row]

    def test_cached_map_is_frozen(self):
        matrix = extract_transfer_map(NoiseKind.PHASE_FLIP)
        with pytest.raises(ValueError):
            matrix[0, 0] = PolyP.ZERO


_BASIS_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def dense_transfer_map(kind, assignment=None):
    """The transfer map from the dense exact pipeline.

    The pipeline is linear in the single-qubit factor of the initial state,
    so probing it with the four matrix units |i><j| (tensored with the |00>
    ancilla projector) recovers the complete process map.
    """
    matrix = np.full((4, 4), PolyP.ZERO, dtype=object)
    for col, (i, j) in enumerate(_BASIS_PAIRS):
        rho1 = np.full((8, 8), PolyP.ZERO, dtype=object)
        rho1[4 * i, 4 * j] = PolyP.ONE
        out = ref.run(rho1, kind, assignment)
        for row, (a, b) in enumerate(_BASIS_PAIRS):
            matrix[row, col] = out[a, b]
    return matrix


def _entries_equal(a, b):
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def _apply_map(matrix, state):
    a, b = PolyP([state.alpha]), PolyP([state.beta])
    vec = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
    out = np.full((2, 2), PolyP.ZERO, dtype=object)
    for row, (r, c) in enumerate(_BASIS_PAIRS):
        for col in range(4):
            out[r, c] = out[r, c] + matrix[row, col] * vec[col]
    return out


WIRINGS = (DEFAULT_ASSIGNMENT,) + ALTERNATE_ASSIGNMENTS

# the primitive Pythagorean triples (m^2 - n^2, 2mn, m^2 + n^2) with m <= 8
TRIPLES = (
    (3, 4, 5), (5, 12, 13), (15, 8, 17), (7, 24, 25), (21, 20, 29),
    (9, 40, 41), (35, 12, 37), (11, 60, 61), (45, 28, 53), (33, 56, 65),
    (13, 84, 85), (63, 16, 65), (55, 48, 73), (39, 80, 89), (15, 112, 113),
)
PHASES = (
    GaussianRational(1), GaussianRational(0, 1),
    GaussianRational(-1), GaussianRational(0, -1),
)


@st.composite
def exact_states(draw):
    """alpha = a/c and beta = b/c of a Pythagorean triple, each times a phase."""
    a, b, c = draw(st.sampled_from(TRIPLES))
    if draw(st.booleans()):
        a, b = b, a
    alpha = draw(st.sampled_from(PHASES)) * Fraction(a, c)
    beta = draw(st.sampled_from(PHASES)) * Fraction(b, c)
    return InputState(alpha, beta)


def _pauli_string(labels):
    return ref.kron(*(ref.PAULIS[label] for label in labels))


class TestDenseRouteAgreement:
    @pytest.mark.parametrize("name", sorted({gate for gate, _ in teleport.CIRCUIT}))
    def test_gate_rules_equal_dense_conjugation(self, name):
        # in this circuit the CNOT sign flips of the pulled-back strings come
        # in pairs, so only a gate-level check sees a wrong CNOT phase rule
        gate, scale = ref.GATES[name]
        qubits = tuple(range(1, gate.shape[0].bit_length()))  # dim 2**n: qubits 1..n
        for labels in itertools.product("IXYZ", repeat=len(qubits)):
            x, z = [0] * 4, [0] * 4
            for q, label in zip(qubits, labels):
                x[q], z[q] = exact._BITS[label]
            flip = exact._PULL_BACK[name](x, z, qubits)
            pulled = _pauli_string(exact._LABELS[x[q], z[q]] for q in qubits)
            dense = ref.conjugate(_pauli_string(labels), gate, scale)
            assert _entries_equal(-pulled if flip else pulled, dense), labels

    @pytest.mark.parametrize("assignment", WIRINGS, ids=lambda w: w.describe())
    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_engine_map_equals_dense_map(self, kind, assignment):
        engine = extract_transfer_map(kind, assignment)
        assert _entries_equal(engine, dense_transfer_map(kind, assignment))
        if assignment is DEFAULT_ASSIGNMENT:
            assert _entries_equal(extract_transfer_map(kind), engine)

    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_probe_states_equal_dense_runs(self, kind):
        for probe in ALL_PROBES:
            dense = ref.run(ref.initial_state(probe), kind)
            assert _entries_equal(run_pipeline_symbolic(probe, kind).entries, dense)
            assert fidelity_polynomial(kind, probe) == ref.overlap(probe, dense)

    @given(
        kind=st.sampled_from(list(NoiseKind)),
        assignment=st.sampled_from(WIRINGS),
        state=exact_states(),
    )
    def test_drawn_states_equal_dense_runs(self, kind, assignment, state):
        dense = ref.run(ref.initial_state(state), kind, assignment)
        assert _entries_equal(_apply_map(extract_transfer_map(kind, assignment), state), dense)
        if assignment is DEFAULT_ASSIGNMENT:
            assert _entries_equal(run_pipeline_symbolic(state, kind).entries, dense)
            assert fidelity_polynomial(kind, state) == ref.overlap(state, dense)


class TestPullBackInvariant:
    def test_pull_back_onto_another_pauli_raises(self, monkeypatch):
        # the map's Bloch form rests on the invariant, so a circuit that
        # breaks it fails by name
        monkeypatch.setattr(teleport, "CIRCUIT", (("H", (1,)),) + teleport.CIRCUIT)
        with pytest.raises(ValueError, match="X pulls back to Z on qubit 1"):
            exact._pull_back("X", DEFAULT_ASSIGNMENT)


# the largest |rho10 entry - exact entry| of the float pipeline, in EPS,
# the exact entry taken at the Gaussian-rational input itself: the measured
# maximum, 5.31 EPS over every drawable state, wiring and kind at 41 points,
# rounded up
ROUTE_BUDGET_EPS = 6


class TestFloatRouteAgreement:
    @given(
        kind=st.sampled_from(list(NoiseKind)),
        assignment=st.sampled_from(WIRINGS),
        state=exact_states(),
        p=st.floats(0, 1),
    )
    def test_float_pipeline_equals_exact_map_at_p(self, kind, assignment, state, p):
        noise = ChannelSpec(kind, p)
        rho10 = run_stages_from_initial(build_initial(state), noise, assignment=assignment)["rho10"]
        want = _apply_map(extract_transfer_map(kind, assignment), state)
        for got_row, want_row in zip(rho10.entries.tolist(), want):
            for got, entry in zip(got_row, want_row):
                exact = entry.evaluate_at(Fraction(p))
                d_re, d_im = Fraction(got.real) - exact.re, Fraction(got.imag) - exact.im
                assert d_re**2 + d_im**2 <= (ROUTE_BUDGET_EPS * EPS) ** 2
