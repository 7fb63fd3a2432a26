"""Tensor products, partial trace (with brute-force oracle), conjugation, fidelity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expanded_forms import GATES, pauli_conjugate, sort_qubits
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.linalg import (
    Operator,
    conjugate_by,
    fidelity_with,
    hermitian_eigenvalues,
    hermiticity_deviation,
    max_entry_delta,
    partial_trace,
    projector,
    tensor,
)
from teleportsim.teleport import InputState, run_stages


# float parts with signed zeros drawn often: a rounding or a reordering that
# loses the sign of a zero shows in the bytes
PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


def complex_parts(count: int):
    """``count`` complex numbers built part by part from PARTS."""
    return st.lists(st.tuples(PARTS, PARTS), min_size=count, max_size=count).map(
        lambda pairs: [complex(re, im) for re, im in pairs]
    )


def fold_reference(amplitudes, matrix) -> float:
    """<psi| rho |psi> in pure Python: Re(conj(psi_i) psi_j rho_ij) summed
    left to right over (i, j) in row-major order, each product formed on
    real pairs the textbook way."""
    total = None
    for i, a in enumerate(amplitudes):
        for j, b in enumerate(amplitudes):
            # conj(a) * b, then the real part of its product with rho_ij
            u = a.real * b.real - (-a.imag) * b.imag
            v = a.real * b.imag + (-a.imag) * b.real
            z = matrix[i][j]
            term = u * z.real - v * z.imag
            total = term if total is None else total + term
    return total


@st.composite
def hermitian_entries(draw, dim: int):
    """A Hermitian ``dim`` x ``dim`` list of lists: the upper triangle drawn,
    the lower one its exact conjugate, real diagonal parts with a signed
    zero imaginary part."""
    m = [[0j] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = complex(draw(PARTS), draw(st.sampled_from([0.0, -0.0])))
        for j in range(i + 1, dim):
            m[i][j] = complex(draw(PARTS), draw(PARTS))
            m[j][i] = m[i][j].conjugate()
    return m


BELL = projector([2**-0.5, 0, 0, 2**-0.5])


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
        out = tensor(projector([1, 0]), projector([0, 1]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.array_equal(out.entries, expected)

    def test_initial_product_structure(self):
        alpha, beta = 0.6, 0.8
        rho = tensor(projector([alpha, beta]), projector([1, 0, 0, 0]))
        nonzero = {(0, 0): alpha**2, (0, 4): alpha * beta, (4, 0): alpha * beta, (4, 4): beta**2}
        for r in range(8):
            for c in range(8):
                assert rho.entries[r, c] == pytest.approx(nonzero.get((r, c), 0.0), abs=1e-15)

    @given(st.sampled_from([(2, 2), (2, 4), (4, 2)]), st.data())
    def test_equals_kron_bit_for_bit(self, dims, data):
        a = np.array(data.draw(complex_parts(dims[0] ** 2))).reshape(dims[0], dims[0])
        b = np.array(data.draw(complex_parts(dims[1] ** 2))).reshape(dims[1], dims[1])
        out = tensor(Operator(a), Operator(b)).entries
        assert out.tobytes() == np.kron(a, b).tobytes()
        # a batch on either side: each slice is the unbatched product
        stack = np.stack([a, a[::-1], -a])
        left = tensor(Operator(stack), Operator(b)).entries
        right = tensor(Operator(b), Operator(stack)).entries
        assert left.shape == right.shape == (3,) + out.shape
        for k in range(3):
            assert left[k].tobytes() == np.kron(stack[k], b).tobytes()
            assert right[k].tobytes() == np.kron(b, stack[k]).tobytes()

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
        psi = projector([0.6, 0.8j])
        rho = tensor(psi, projector([1, 0, 0, 0]))
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
        out = conjugate_by(projector([1, 0]), ("H", (1,)))
        assert np.allclose(out.entries, np.full((2, 2), 0.5), atol=1e-16)

    def test_hand_expanded_second_qubit_hadamard(self):
        # (alpha, beta) = (1, 0): H on qubit 2 gives |0>|+><+|<0| x |0><0|
        rho1 = tensor(projector([1, 0]), projector([1, 0, 0, 0]))
        out = conjugate_by(rho1, ("H", (2,)))
        expected = np.zeros((8, 8))
        for r in (0, 2):
            for c in (0, 2):
                expected[r, c] = 0.5
        assert np.max(np.abs(out.entries - expected)) <= 1e-15

    def test_hand_expanded_cnot(self):
        # CNOT(1 -> 3) maps |1 0 0> to |1 0 1>: basis index 4 to 5
        out = conjugate_by(projector([0, 0, 0, 0, 1, 0, 0, 0]), ("CNOT", (1, 3)))
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
        psi = [0.6, 0.8j]
        assert fidelity_with(psi, projector(psi)) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_gives_half(self):
        psi = [2**-0.5, -(2**-0.5)]
        assert fidelity_with(psi, Operator(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(
            ValueError, match="dimension mismatch: 2 amplitudes, operator of dimension 4"
        ):
            fidelity_with([1, 0], BELL)

    def test_non_hermitian_rejected(self):
        psi = [1, 0]
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

    @given(st.sampled_from([2, 4]), st.data())
    def test_fold_equals_pure_python_reference(self, dim, data):
        raw = np.array(data.draw(complex_parts(dim).filter(
            lambda v: sum(abs(z) ** 2 for z in v) > 1e-3
        )))
        psi = (raw / np.linalg.norm(raw)).tolist()
        matrices = [data.draw(hermitian_entries(dim)) for _ in range(3)]
        want = [fold_reference(psi, m) for m in matrices]
        got = fidelity_with(psi, Operator(matrices[0]))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want[0]).tobytes()
        batch = fidelity_with(psi, Operator(np.array(matrices)))
        assert batch.tobytes() == np.array(want).tobytes()

    def test_range_on_random_states(self, random_density, rng):
        for _ in range(10):
            rho = random_density(1)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            f = fidelity_with(v, rho)
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

    def test_caller_array_is_copied(self):
        # C-ordered complex128 already, so only the copy keeps the two apart
        caller = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        op = Operator(caller)
        assert caller.flags.writeable and not op.entries.flags.writeable
        assert not np.shares_memory(caller, op.entries)
        caller[0, 0] = 7.0
        assert op.entries[0, 0] == 0.5

    def test_owned_array_is_taken_over(self):
        built = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        op = Operator(built, copy=False)
        assert op.entries is built and not built.flags.writeable
        # an array of another dtype or layout is still converted into a copy
        for other in (np.eye(2), np.eye(2, dtype=complex)[:, ::-1]):
            op = Operator(other, copy=False)
            assert op.entries.flags.c_contiguous and not np.shares_memory(other, op.entries)
            assert other.flags.writeable

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


def test_projector_amplitude_count():
    # the dense layer checks no norm; an amplitude count that is not a power
    # of two fails Operator's check
    with pytest.raises(ValueError, match="dimension 3 is not a power of two >= 2"):
        projector([1, 0, 0])


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
        psi = v / np.linalg.norm(v)
        got = fidelity_with(psi, rho)
        assert got.shape == (7,)
        assert got.tolist() == [fidelity_with(psi, Operator(e)) for e in rho.entries]
        bad = rho.entries.copy()
        bad[3, 0, 1] += 1
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity_with(psi, Operator(bad))

    def test_entries_are_c_contiguous_whatever_the_input_layout(self):
        # The fidelity reads the entries as interleaved real pairs, which
        # takes a contiguous last axis, so operators store their entries
        # C-contiguous: a bit-flip rho10 copied into a (2, 2, B)-strided
        # array of equal values gives the same fidelities bit for bit.
        state = InputState(0.6 + 0.8j, 0)
        grid = tuple(k / 100 for k in range(101))
        rho10 = run_stages(state, ChannelSpec(NoiseKind.BIT_FLIP, grid))["rho10"]
        strided = np.empty((2, 2, len(grid)), dtype=complex).transpose(2, 0, 1)
        strided[...] = rho10.entries
        assert not strided.flags.c_contiguous
        copy = Operator(strided)
        assert copy.entries.flags.c_contiguous
        assert copy.entries.tobytes() == rho10.entries.tobytes()
        psi = [0.6 + 0.8j, 0]
        assert fidelity_with(psi, copy).tobytes() == fidelity_with(psi, rho10).tobytes()
