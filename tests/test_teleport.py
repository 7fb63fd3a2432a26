"""The staged pipeline: initial state, gate/noise ladder, measurement, fidelity."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from teleportsim import cli
from teleportsim.analytic import fidelity_closed, fidelity_linear
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.cli import SweepConfig, run_sweep
from teleportsim.exact import GaussianRational
from teleportsim.linalg import (
    Operator,
    hermitian_eigenvalues,
    hermiticity_deviation,
)
from teleportsim.teleport import (
    ALTERNATE_ASSIGNMENTS,
    STAGE_LABELS,
    CorrectionAssignment,
    InputState,
    build_initial,
    measure_and_correct,
    run_stages,
    run_stages_from_initial,
    teleport_fidelity,
)

PROBES = [
    InputState(1, 0),
    InputState(0.6, 0.8),
    InputState(0.6, 0.8j),
    InputState(2**-0.5, 2**-0.5),
]


def depolarizing(p):
    return ChannelSpec(NoiseKind.DEPOLARIZING, p)


class TestInputState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            InputState(1.0, 1.0)
        with pytest.raises(ValueError):
            InputState(GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 2)))

    def test_normalized_constructor(self):
        st = InputState.normalized(3, 4j)
        assert complex(st.alpha) == pytest.approx(0.6)
        assert complex(st.beta) == pytest.approx(0.8j)
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            InputState.normalized(0, 0)

    @pytest.mark.parametrize(
        "alpha,beta,name",
        [
            (float("nan"), 0, "alpha"),
            (complex(0, float("nan")), 1, "alpha"),
            (float("-inf"), 0, "alpha"),
            (1, float("inf"), "beta"),
        ],
    )
    def test_rejects_non_finite(self, alpha, beta, name):
        # nan slips through the norm check, so finiteness is checked first
        with pytest.raises(ValueError, match=f"amplitude {name} = .* is not finite"):
            InputState(alpha, beta)
        with pytest.raises(ValueError, match="is not finite"):
            InputState.normalized(alpha, beta)

    def test_rejects_text_amplitudes(self):
        # complex("0.6") parses, so text would pass the norm check
        with pytest.raises(ValueError, match="amplitude alpha = '0.6' is not a number"):
            InputState("0.6", "0.8")
        with pytest.raises(ValueError, match="amplitude beta = '0.8' is not a number"):
            InputState(0.6, "0.8")

    def test_overflowing_amplitude_rejected_by_deviation(self):
        # |1e200|^2 overflows; the deviation is reported as inf, not raised
        with pytest.raises(ValueError, match="deviate from unit norm by inf"):
            InputState(1e200, 0)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1e155, 1e155), (1e154, 1e154), (1e-170, 1e-170), (1e-158, 1e-158), (1e-160, 0)],
        ids=["overflow", "sum-overflow", "underflow", "subnormal", "subnormal-basis"],
    )
    def test_normalize_outside_double_range(self, alpha, beta):
        with pytest.raises(ValueError) as err:
            InputState.normalized(alpha, beta)
        message = str(err.value)
        assert "squared norm is outside the double range" in message
        assert f"({complex(alpha)}, {complex(beta)})" in message

    @pytest.mark.parametrize(
        "alpha,beta", [(1e-155, 1e-155), (1e-155, 0), (1e153, 1e153), (3, 4j)]
    )
    def test_normalize_near_range_edges_keeps_arithmetic(self, alpha, beta):
        a, b = complex(alpha), complex(beta)
        norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
        st = InputState.normalized(alpha, beta)
        assert (st.alpha, st.beta) == (a / norm, b / norm)

    def test_exact_amplitudes_accepted(self):
        InputState(GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5)))


class TestBuildInitial:
    def test_basis_input(self):
        rho = build_initial(InputState(1, 0))
        expected = np.zeros((8, 8))
        expected[0, 0] = 1
        assert np.array_equal(rho.entries, expected)

    def test_exact_probe(self):
        # exact amplitudes enter the pipeline as their nearest complex values
        rho = build_initial(
            InputState(GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5)))
        )
        assert rho.entries.tobytes() == build_initial(InputState(0.6, 0.8j)).entries.tobytes()

    def test_general_entries(self):
        a, b = 0.6, 0.8j
        rho = build_initial(InputState(a, b))
        assert rho.entries[0, 0] == pytest.approx(abs(a) ** 2)
        assert rho.entries[0, 4] == pytest.approx(a * np.conj(b))
        assert rho.entries[4, 0] == pytest.approx(b * np.conj(a))
        assert rho.entries[4, 4] == pytest.approx(abs(b) ** 2)
        nz = {(0, 0), (0, 4), (4, 0), (4, 4)}
        for r in range(8):
            for c in range(8):
                if (r, c) not in nz:
                    assert rho.entries[r, c] == 0


class TestRunStages:
    def test_noiseless_pipeline_retrieves_input(self):
        for probe in PROBES:
            out = run_stages_from_initial(build_initial(probe), depolarizing(0.3), False)["rho10"]
            a, b = complex(probe.alpha), complex(probe.beta)
            expected = np.array([[abs(a) ** 2, a * np.conj(b)], [b * np.conj(a), abs(b) ** 2]])
            assert np.max(np.abs(out.entries - expected)) <= 1e-15

    def test_p_zero_equals_noise_disabled(self):
        # a noiseless run is p = 0: the stages equal the noise-off ladder
        # bit for bit, so the public API needs no noise switch
        for kind in NoiseKind:
            spec = ChannelSpec(kind, 0.0)
            for state in PROBES + random_states(21, 20):
                on = run_stages(state, spec)
                off = run_stages_from_initial(build_initial(state), spec, False)
                assert tuple(on) == tuple(off) == STAGE_LABELS
                for label in STAGE_LABELS:
                    assert on[label].entries.tobytes() == off[label].entries.tobytes()

    def test_disabled_noise_stages_collapse(self):
        stages = run_stages_from_initial(build_initial(PROBES[1]), depolarizing(0.7), False)
        for a, b in (("rho3", "rho2"), ("rho5", "rho4"), ("rho7", "rho6"), ("rho9", "rho8")):
            assert stages[a] is stages[b]

    def test_stage_labels_and_shapes(self):
        stages = run_stages(PROBES[0], depolarizing(0.2))
        assert tuple(label for label, _ in stages.items()) == STAGE_LABELS
        for label, rho in stages.items():
            assert rho.num_qubits == (1 if label == "rho10" else 3)
            assert abs(rho.trace() - 1) <= 1e-12

    def test_full_depolarization_final_stages(self):
        stages = run_stages(PROBES[2], depolarizing(1.0))
        assert np.max(np.abs(stages["rho9"].entries - np.eye(8) / 8)) <= 1e-14
        assert np.max(np.abs(stages["rho10"].entries - np.eye(2) / 2)) <= 1e-14

    def test_stage_physicality_under_noise(self):
        for kind in NoiseKind:
            stages = run_stages(PROBES[3], ChannelSpec(kind, 0.35))
            for _, rho in stages.items():
                assert abs(rho.trace() - 1) <= 1e-12
                assert hermiticity_deviation(rho) <= 1e-12
                assert hermitian_eigenvalues(rho)[0] >= -1e-10

    @given(
        kind=st.sampled_from(list(NoiseKind)),
        p=st.floats(0, 1),
        theta=st.floats(0, math.pi),
        phi=st.floats(0, 2 * math.pi),
    )
    def test_every_stage_is_a_state(self, kind, p, theta, phi):
        # the state at Bloch angles (theta, phi); every stage of a CPTP
        # pipeline is a density matrix
        state = InputState(math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))
        for label, rho in run_stages(state, ChannelSpec(kind, p)).items():
            ent = rho.entries
            assert abs(np.trace(ent) - 1) <= 1e-12, label
            assert np.max(np.abs(ent - ent.conj().T)) <= 1e-12, label
            assert np.linalg.eigvalsh(ent)[0] >= -1e-12, label
            assert np.sum(np.abs(ent) ** 2) <= 1 + 1e-12, label  # purity tr(rho^2)


class TestMeasureAndCorrect:
    def test_ideal_branches_reproduce_input(self):
        for probe in PROBES:
            stages = run_stages(probe, depolarizing(0.0))
            out = measure_and_correct(stages["rho9"])
            a, b = complex(probe.alpha), complex(probe.beta)
            expected = np.array([[abs(a) ** 2, a * np.conj(b)], [b * np.conj(a), abs(b) ** 2]])
            assert np.max(np.abs(out.entries - expected)) <= 1e-15

    def test_maximally_mixed_input(self):
        rho9 = Operator(np.eye(8) / 8)
        out = measure_and_correct(rho9)
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) <= 1e-15

    def test_corrected_branches_are_identical(self):
        # Pauli noise commutes with the Pauli frame fixups, so each corrected
        # outcome branch is the same operator and equals a quarter of the sum.
        for kind in NoiseKind:
            stages = run_stages(PROBES[1], ChannelSpec(kind, 0.3))
            rho9 = stages["rho9"]
            out = measure_and_correct(rho9)
            block00 = rho9.entries[0:2, 0:2]
            assert np.max(np.abs(out.entries - 4 * block00)) <= 1e-14

    def test_phaseflip_probe_output(self):
        p = 0.25
        probe = InputState(0.6, 0.8)
        stages = run_stages(probe, ChannelSpec(NoiseKind.PHASE_FLIP, p))
        out = stages["rho10"]
        assert out.entries[0, 0] == pytest.approx(0.36, abs=1e-13)
        assert out.entries[1, 1] == pytest.approx(0.64, abs=1e-13)
        # coherence scaled by (1-2p)^8 at p=1/4
        assert out.entries[0, 1] == pytest.approx(0.48 * 0.5**8, abs=1e-13)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            measure_and_correct(Operator(np.eye(4) / 4))

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            CorrectionAssignment(x_source=3)
        assert len(ALTERNATE_ASSIGNMENTS) == 3

    def test_alternate_assignments_break_ideal_teleportation(self):
        stages = run_stages(PROBES[1], depolarizing(0.0))
        a, b = 0.6, 0.8
        ideal = np.array([[a * a, a * b], [a * b, b * b]])
        for alt in ALTERNATE_ASSIGNMENTS:
            out = measure_and_correct(stages["rho9"], alt)
            assert np.max(np.abs(out.entries - ideal)) > 0.1


class TestTeleportFidelity:
    def test_perfect_at_zero_noise(self):
        for kind in NoiseKind:
            for probe in PROBES:
                f = teleport_fidelity(probe, ChannelSpec(kind, 0.0))
                assert f == pytest.approx(1.0, abs=1e-14)

    def test_depolarizing_classical_limit(self):
        for probe in PROBES:
            f = teleport_fidelity(probe, depolarizing(1.0))
            assert f == pytest.approx(0.5, abs=1e-13)

    def test_equal_superposition_closed_form(self):
        # independently derived: diagonal contraction and the real coherence
        # component both decay as (1-p)^9, so F = 1/2 + (1-p)^9 / 2
        for p in (0.05, 0.1, 0.4):
            f = teleport_fidelity(PROBES[3], depolarizing(p))
            assert f == pytest.approx(0.5 + (1 - p) ** 9 / 2, abs=1e-12)

    def test_phaseflip_basis_state_immune(self):
        for p in np.linspace(0, 1, 11):
            f = teleport_fidelity(
                PROBES[0], ChannelSpec(NoiseKind.PHASE_FLIP, float(p))
            )
            assert f == pytest.approx(1.0, abs=1e-13)

    def test_fidelity_stays_above_classical_floor(self):
        # bit flip is floor-bounded only up to p = 1/2: beyond that the
        # coherence transfer eigenvalue 1-2p is negative and F can reach 0
        for kind in NoiseKind:
            ps = (0.0, 0.3, 0.5) if kind is NoiseKind.BIT_FLIP else (0.0, 0.3, 0.7, 1.0)
            for p in ps:
                f = teleport_fidelity(PROBES[1], ChannelSpec(kind, p))
                assert 0.5 - 1e-12 <= f <= 1 + 1e-12
        f = teleport_fidelity(PROBES[1], ChannelSpec(NoiseKind.BIT_FLIP, 1.0))
        assert f == pytest.approx(0.0, abs=1e-13)

    def test_swap_and_global_phase_symmetry(self):
        phase = np.exp(0.7j)
        for kind in NoiseKind:
            s = ChannelSpec(kind, 0.3)
            f1 = teleport_fidelity(InputState(0.6, 0.8j), s)
            f2 = teleport_fidelity(InputState(0.8j, 0.6), s)
            f3 = teleport_fidelity(
                InputState(0.6 * phase, 0.8j * phase), s
            )
            assert f1 == pytest.approx(f2, abs=1e-12)
            assert f1 == pytest.approx(f3, abs=1e-12)


GRID_101 = tuple(k / 100 for k in range(101))


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    return [InputState.normalized(*(rng.normal(size=2) + 1j * rng.normal(size=2))) for _ in range(count)]


class TestBatchedPipeline:
    """A batch of probabilities runs the pipeline once; every slice equals the
    per-point run bit for bit."""

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_stages_and_fidelity_equal_per_point(self, kind):
        for state in random_states(11, 3) + [PROBES[2]]:
            batched = ChannelSpec(kind, GRID_101)
            stages = run_stages(state, batched)
            fidelities = teleport_fidelity(state, batched)
            assert fidelities.shape == (len(GRID_101),) and fidelities.dtype == np.float64
            for k, p in enumerate(GRID_101):
                point = ChannelSpec(kind, p)
                point_stages = run_stages(state, point)
                for label in STAGE_LABELS[2:]:
                    assert stages[label].entries[k].tobytes() == point_stages[label].entries.tobytes()
                assert fidelities[k] == teleport_fidelity(state, point)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_batched_stages_are_physical(self, kind):
        for state in random_states(12, 3):
            stages = run_stages(state, ChannelSpec(kind, GRID_101))
            assert stages["rho2"].entries.shape == (8, 8)
            for label in STAGE_LABELS[2:]:
                rho = stages[label]
                assert rho.entries.shape[0] == len(GRID_101)
                assert rho.num_qubits == (1 if label == "rho10" else 3)
                assert np.max(np.abs(rho.trace() - 1)) <= 1e-12
                assert hermiticity_deviation(rho) <= 1e-12
                assert hermitian_eigenvalues(rho)[:, 0].min() >= -1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_sweep_longer_than_one_chunk_equals_per_point(self, kind):
        # --steps 2500 runs three batches of at most 1024 points
        state = random_states(13, 1)[0]
        alpha, beta = complex(state.alpha), complex(state.beta)
        config = SweepConfig(kind, ((alpha, beta),), steps=2500)
        rows = [row.split(",") for row in run_sweep(config).splitlines()[1:]]
        assert len(rows) == 2500 > cli.BATCH_POINTS
        grid = config.grid()
        for row, p in zip(rows, grid):
            assert float(row[2]) == teleport_fidelity(state, ChannelSpec(kind, p))
        # the published-form columns, run per chunk, equal one whole-grid run
        whole = ChannelSpec(kind, grid)
        for index, function in ((3, fidelity_closed), (4, fidelity_linear)):
            column = np.array([float(row[index]) for row in rows])
            assert column.tobytes() == function(state, whole).tobytes()

    def test_chunk_boundaries_do_not_change_bytes(self, monkeypatch):
        # the three complex states of the golden sweeps
        states = ((0.6, 0.8j), (0.6 + 0.8j, 0), (0.5 + 0.5j, 0.5 - 0.5j))
        for kind in NoiseKind:
            config = SweepConfig(kind, states, steps=101)
            monkeypatch.setattr(cli, "BATCH_POINTS", 1024)
            whole = run_sweep(config)
            # chunks of 10 leave a last batch of one point; chunks of 1 are
            # all one-point batches, which broadcast their weights apart
            for points in (1, 10):
                monkeypatch.setattr(cli, "BATCH_POINTS", points)
                assert run_sweep(config) == whole
