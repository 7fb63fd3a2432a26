"""Tensor products, partial trace (with brute-force oracle), conjugation, fidelity."""

import numpy as np
import pytest

from expanded_forms import GATES, pauli_conjugate, sort_qubits
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.linalg import (
    Operator,
    PureState,
    conjugate_by,
    fidelity_with,
    hermitian_eigenvalues,
    hermiticity_deviation,
    max_entry_delta,
    partial_trace,
    tensor,
)
from teleportsim.teleport import InputState, run_stages


def proj(amplitudes) -> Operator:
    return PureState(amplitudes).projector()


BELL = proj([2**-0.5, 0, 0, 2**-0.5])


def brute_force_partial_trace(rho: Operator, keep) -> np.ndarray:
    """Index-summation oracle: loop over kept and summed bit patterns."""
    n = rho.num_qubits
    keep = list(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)

    def full_index(keep_bits, traced_bits):
        bits = {}
        for q, b in zip(keep, keep_bits):
            bits[q] = b
        for q, b in zip(traced, traced_bits):
            bits[q] = b
        idx = 0
        for q in range(1, n + 1):
            idx = 2 * idx + bits[q]
        return idx

    def bit_patterns(k):
        return [[(m >> (k - 1 - j)) & 1 for j in range(k)] for m in range(2**k)]

    for r, rbits in enumerate(bit_patterns(len(keep))):
        for c, cbits in enumerate(bit_patterns(len(keep))):
            for sbits in bit_patterns(len(traced)):
                out[r, c] += rho.entries[full_index(rbits, sbits), full_index(cbits, sbits)]
    return out


class TestTensor:
    def test_identity_case(self):
        i2 = Operator(np.eye(2))
        i4 = tensor(i2, i2)
        assert np.array_equal(i4.entries, np.eye(4))

    def test_basis_projectors(self):
        out = tensor(proj([1, 0]), proj([0, 1]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.array_equal(out.entries, expected)

    def test_initial_product_structure(self):
        alpha, beta = 0.6, 0.8
        rho = tensor(proj([alpha, beta]), proj([1, 0, 0, 0]))
        nonzero = {(0, 0): alpha**2, (0, 4): alpha * beta, (4, 0): alpha * beta, (4, 4): beta**2}
        for r in range(8):
            for c in range(8):
                assert rho.entries[r, c] == pytest.approx(nonzero.get((r, c), 0.0), abs=1e-15)

    def test_associativity(self, random_density):
        a, b, c = random_density(1), random_density(1), random_density(1)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert max_entry_delta(left, right) <= 1e-15


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        out = partial_trace(BELL, keep=[1])
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_factor_recovery(self):
        psi = proj([0.6, 0.8j])
        rho = tensor(psi, proj([1, 0, 0, 0]))
        out = partial_trace(rho, keep=[1])
        assert np.allclose(out.entries, psi.entries, atol=1e-15)

    def test_against_brute_force_oracle(self, random_density):
        for keep in ([2], [1, 3], [3, 1], [2, 3], [1, 2, 3], [3, 2, 1]):
            rho = random_density(3)
            expected = brute_force_partial_trace(rho, keep)
            got = partial_trace(rho, keep).entries
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_trace_preserved(self, random_density):
        rho = random_density(3)
        out = partial_trace(rho, keep=[2])
        assert abs(out.trace() - rho.trace()) < 1e-13

    def test_keep_order_controls_output_order(self, random_density):
        rho = random_density(3)
        ab = partial_trace(rho, keep=[1, 2])
        ba = partial_trace(rho, keep=[2, 1])
        swap = ab.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        assert np.max(np.abs(ba.entries - swap)) <= 1e-15

    def test_tensor_then_trace_identity(self, random_density):
        a, b = random_density(1), random_density(2)
        joint = tensor(a, b)
        back = partial_trace(joint, keep=[1])
        assert np.max(np.abs(back.entries - a.entries * b.trace())) <= 1e-14

    @pytest.mark.parametrize("keep", [[], [0], [4], [1, 1]])
    def test_invalid_keep_sets(self, keep, random_density):
        with pytest.raises(ValueError):
            partial_trace(random_density(3), keep)


class TestConjugateBy:
    @pytest.mark.parametrize("gate", [g for g in GATES if g[0] == "CNOT"], ids=str)
    def test_cnot_twice_is_the_identity(self, gate, random_density):
        rho = random_density(3)
        out = conjugate_by(conjugate_by(rho, gate), gate)
        assert max_entry_delta(out, rho) == 0.0

    def test_hadamard_on_zero(self):
        out = conjugate_by(proj([1, 0]), ("H", (1,)))
        assert np.allclose(out.entries, np.full((2, 2), 0.5), atol=1e-16)

    def test_hand_expanded_second_qubit_hadamard(self):
        # (alpha, beta) = (1, 0): H on qubit 2 gives |0>|+><+|<0| x |0><0|
        rho1 = tensor(proj([1, 0]), proj([1, 0, 0, 0]))
        out = conjugate_by(rho1, ("H", (2,)))
        expected = np.zeros((8, 8))
        for r in (0, 2):
            for c in (0, 2):
                expected[r, c] = 0.5
        assert np.max(np.abs(out.entries - expected)) <= 1e-15

    def test_hand_expanded_cnot(self):
        # CNOT(1 -> 3) maps |1 0 0> to |1 0 1>: basis index 4 to 5
        out = conjugate_by(proj([0, 0, 0, 0, 1, 0, 0, 0]), ("CNOT", (1, 3)))
        expected = np.zeros((8, 8))
        expected[5, 5] = 1
        assert np.array_equal(out.entries, expected)

    @pytest.mark.parametrize("gate", GATES, ids=str)
    def test_trace_and_hermiticity_preserved(self, gate, random_density):
        rho = random_density(3)
        out = conjugate_by(rho, gate)
        assert abs(out.trace() - 1) < 1e-13
        assert hermiticity_deviation(out) < 1e-13

    @pytest.mark.parametrize(
        "gate,message",
        [
            (("X", (1,)), "unknown gate"),
            (("h", (1,)), "unknown gate"),
            (("H", (1, 2)), "unknown gate"),
            (("CNOT", (1,)), "unknown gate"),
            (("CNOT", (2, 2)), "unknown gate"),
            (("H", (0,)), "acts outside qubits 1..2"),
            (("H", (3,)), "acts outside qubits 1..2"),
            (("CNOT", (1, 3)), "acts outside qubits 1..2"),
        ],
        ids=["X", "lowercase-h", "H-two-qubits", "CNOT-one-qubit", "CNOT-same-qubit",
             "H-qubit-0", "H-qubit-3", "CNOT-target-3"],
    )
    def test_bad_gate_rejected(self, gate, message, random_density):
        with pytest.raises(ValueError, match=message):
            conjugate_by(random_density(2), gate)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        psi = PureState([0.6, 0.8j])
        assert fidelity_with(psi, psi.projector()) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_gives_half(self):
        psi = PureState([2**-0.5, -(2**-0.5)])
        assert fidelity_with(psi, Operator(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        psi = PureState([1, 0])
        with pytest.raises(ValueError):
            fidelity_with(psi, BELL)

    def test_non_hermitian_rejected(self):
        psi = PureState([1, 0])
        bad = Operator([[1, 1], [0, 0]])
        with pytest.raises(ValueError):
            fidelity_with(psi, bad)
        # the tolerance is 1e-9: a 1e-10 deviation passes, a 1e-8 one fails
        assert fidelity_with(psi, Operator([[1, 1e-10], [0, 0]])) == 1.0
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation 1\.000e-08\)"):
            fidelity_with(psi, Operator([[1, 1e-8], [0, 0]]))
        # a nan entry makes a nan deviation, which must fail the check too
        for entry in ((1, 1), (0, 1)):
            ent = np.array([[1, 0], [0, 0]], dtype=complex)
            ent[entry] = np.nan
            with pytest.raises(ValueError, match=r"not Hermitian \(deviation nan\)"):
                fidelity_with(psi, Operator(ent))

    def test_range_on_random_states(self, random_density, rng):
        for _ in range(10):
            rho = random_density(1)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            f = fidelity_with(PureState(v), rho)
            assert -1e-12 <= f <= 1 + 1e-12


class TestOperatorScaling:
    def test_trace_linearity(self, random_density, rng):
        a, b = random_density(2), random_density(2)
        x, y = complex(rng.normal()), complex(rng.normal())
        combo = Operator(x * a.entries + y * b.entries)
        assert combo.trace() == pytest.approx(x * a.trace() + y * b.trace(), abs=1e-13)

    def test_qubit_cap_enforced(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2**11, 2**11)))

    def test_non_square_and_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Operator(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Operator(np.zeros((1, 1)))


class TestSortQubits:
    def test_roundtrip_against_partial_trace_order(self, random_density):
        rho = random_density(3)
        scrambled = partial_trace(rho, keep=[3, 1, 2])
        restored = sort_qubits(scrambled, [3, 1, 2])
        assert max_entry_delta(restored, rho) <= 1e-15

    def test_bad_labels(self, random_density):
        with pytest.raises(ValueError):
            sort_qubits(random_density(2), [1, 1])


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([1, 1])
    with pytest.raises(ValueError):
        PureState([[1, 0], [0, 1]])
    # a nan amplitude makes a nan norm, which must fail the check too
    for amps in ([float("nan"), 0], [1, complex(0, float("nan"))]):
        with pytest.raises(ValueError, match="deviates from 1 by nan"):
            PureState(amps)


def test_min_eigenvalue_helper(random_density):
    rho = random_density(2)
    eigs = hermitian_eigenvalues(rho)
    assert eigs[0] >= -1e-12
    assert eigs.sum() == pytest.approx(1.0, abs=1e-12)


class TestBatchAxis:
    """Float operators may stack matrices along one leading axis; each slice
    behaves exactly as the matrix on its own."""

    def stack(self, random_density, num_qubits, size=5):
        return Operator(np.stack([random_density(num_qubits).entries for _ in range(size)]))

    def test_shape_rules(self):
        op = Operator(np.zeros((4, 8, 8)))
        assert op.num_qubits == 3 and op.dim == 8
        with pytest.raises(ValueError, match="optionally batched"):
            Operator(np.zeros((2, 2, 4)))
        with pytest.raises(ValueError, match="optionally batched"):
            Operator(np.zeros((2, 2, 2, 2)))

    def test_trace_dagger_and_hermiticity_per_slice(self, random_density, rng):
        rho = self.stack(random_density, 2)
        skew = Operator(rho.entries + 1j * rng.normal(size=rho.entries.shape))
        assert rho.trace().shape == (5,)
        skew_dagger = np.conjugate(skew.entries).swapaxes(-1, -2)
        for k in range(5):
            single = Operator(skew.entries[k])
            assert skew.trace()[k] == single.trace()
            assert skew_dagger[k].tobytes() == np.conjugate(single.entries).T.tobytes()
        assert hermiticity_deviation(skew) == max(
            hermiticity_deviation(Operator(e)) for e in skew.entries
        )

    @pytest.mark.parametrize("label", ["I", "X", "Y", "Z"])
    def test_pauli_conjugate_slices_and_index_grid(self, label, random_density):
        rho = self.stack(random_density, 3)
        for qubit in (1, 2, 3):
            got = pauli_conjugate(rho.entries, label, qubit, 3)
            for k in range(5):
                single = pauli_conjugate(rho.entries[k], label, qubit, 3)
                assert got[k].tobytes() == single.tobytes()
            # the broadcast index equals the open-mesh (np.ix_) index
            if label == "X":
                flipped = np.arange(8) ^ (1 << (3 - qubit))
                mesh = rho.entries[0][np.ix_(flipped, flipped)]
                assert got[0].tobytes() == mesh.tobytes()

    def test_fidelity_per_slice(self, random_density, rng):
        rho = self.stack(random_density, 1, size=7)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = PureState(v / np.linalg.norm(v))
        got = fidelity_with(psi, rho)
        assert got.shape == (7,)
        assert got.tolist() == [fidelity_with(psi, Operator(e)) for e in rho.entries]
        bad = rho.entries.copy()
        bad[3, 0, 1] += 1
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity_with(psi, Operator(bad))

    def test_entries_are_c_contiguous_whatever_the_input_layout(self):
        # A batched fidelity rounds according to the entries' memory layout,
        # so operators store their entries C-contiguous: a bit-flip rho10
        # copied into a (2, 2, B)-strided array of equal values gave 18 of
        # 101 fidelities that differed in the last bit.
        state = InputState(0.6 + 0.8j, 0)
        grid = tuple(k / 100 for k in range(101))
        rho10 = run_stages(state, ChannelSpec(NoiseKind.BIT_FLIP, grid))["rho10"]
        strided = np.empty((2, 2, len(grid)), dtype=complex).transpose(2, 0, 1)
        strided[...] = rho10.entries
        assert not strided.flags.c_contiguous
        copy = Operator(strided)
        assert copy.entries.flags.c_contiguous
        assert copy.entries.tobytes() == rho10.entries.tobytes()
        psi = PureState([0.6 + 0.8j, 0])
        assert fidelity_with(psi, copy).tobytes() == fidelity_with(psi, rho10).tobytes()
