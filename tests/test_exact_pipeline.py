"""Symbolic pipeline runs, transfer-map extraction, and float/exact agreement."""

from fractions import Fraction

import pytest

from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.exact import (
    GaussianRational,
    P,
    PolyP,
    extract_transfer_map,
    run_pipeline_symbolic,
)
from teleportsim.teleport import InputState, run_stages

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
        for kind in NoiseKind:
            matrix = extract_transfer_map(kind)
            for probe in (PROBE_REAL, PROBE_IMAG):
                a = GaussianRational.from_value(probe.alpha)
                b = GaussianRational.from_value(probe.beta)
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
