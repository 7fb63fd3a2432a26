"""Kraus decompositions, per-qubit application, layers, and the expanded-form oracles.

The Kraus form and the expanded forms are test oracles, in ``expanded_forms``.
"""

import gc
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_reference as ref
from expanded_forms import (
    GATES,
    X,
    Z,
    dense_conjugate,
    depolarizing_subset_expansion,
    embed,
    eye,
    flip_sum_expansion,
    gate_matrix,
    kraus_operators,
    pauli_conjugate,
    sort_qubits,
)
from teleportsim import channels
from teleportsim.channels import (
    ChannelSpec,
    NoiseKind,
    _complex_p,
    _pauli_weights,
    apply_layer,
    apply_to_qubit,
)
from teleportsim.exact import GaussianRational, P, PolyP
from teleportsim.linalg import (
    Operator,
    conjugate_by,
    hermitian_eigenvalues,
    max_entry_delta,
    partial_trace,
    projector,
    tensor,
)
from teleportsim.teleport import (
    ALTERNATE_ASSIGNMENTS,
    DEFAULT_ASSIGNMENT,
    InputState,
    measure_and_correct,
    teleport_fidelity,
)

P_GRID = [k / 10 for k in range(11)]

# drawn noise probabilities, with the endpoints drawn on their own
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


def spec(kind, p):
    return ChannelSpec(kind, p)


class TestKrausOperators:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_completeness(self, kind, p):
        acc = np.zeros((2, 2), dtype=complex)
        for w, op in kraus_operators(spec(kind, p)):
            acc += w * (np.conjugate(op).T @ op)
        assert np.allclose(acc, np.eye(2), atol=1e-15)

    def test_completeness_symbolic(self):
        # every Kraus operator is a Pauli (K^dag K = I), so completeness is
        # the symbolic weights, as the exact maps take them, summing to 1
        for kind in NoiseKind:
            weights = _pauli_weights(kind, P, lambda c: PolyP([c]))
            assert sum((w for w, _ in weights), PolyP.ZERO) == PolyP.ONE

    def test_flip_weights(self):
        ws = [w for w, _ in kraus_operators(spec(NoiseKind.BIT_FLIP, 0.2))]
        assert ws == [pytest.approx(0.8), pytest.approx(0.2)]

    def test_bitflip_p0_is_identity_channel(self, random_density):
        rho = random_density(1)
        out = apply_to_qubit(spec(NoiseKind.BIT_FLIP, 0.0), rho, 1)
        assert max_entry_delta(out, rho) == 0.0

    def test_depolarizing_equals_mix_with_identity(self, random_density):
        for p in (0.0, 0.25, 0.7, 1.0):
            rho = random_density(1)
            out = apply_to_qubit(spec(NoiseKind.DEPOLARIZING, p), rho, 1)
            expected = (1 - p) * rho.entries + p * np.eye(2) / 2
            assert np.max(np.abs(out.entries - expected)) <= 1e-15

    def test_phaseflip_scales_off_diagonals(self):
        plus = projector([2**-0.5, 2**-0.5])
        p = 0.3
        out = apply_to_qubit(spec(NoiseKind.PHASE_FLIP, p), plus, 1)
        assert out.entries[0, 0] == pytest.approx(0.5)
        assert out.entries[0, 1] == pytest.approx((1 - 2 * p) * 0.5)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            ChannelSpec(NoiseKind.DEPOLARIZING, 1.2)
        with pytest.raises(ValueError):
            ChannelSpec(NoiseKind.BIT_FLIP, -0.1)

    @pytest.mark.parametrize(
        "p",
        [np.float32(1.5), np.int64(2), np.float32("nan"), float("nan"), float("inf"), Fraction(-1, 3)],
        ids=repr,
    )
    def test_range_enforced_for_any_real_type(self, p):
        with pytest.raises(ValueError, match=f"noise probability {p} outside"):
            ChannelSpec(NoiseKind.BIT_FLIP, p)

    def test_in_range_reals_accepted(self):
        for p in (np.float32(0.5), np.int64(1), Fraction(1, 3), 0, 1.0):
            assert ChannelSpec(NoiseKind.PHASE_FLIP, p).p is p

    @pytest.mark.parametrize(
        "p",
        [2j, 0.5 + 0j, np.complex128(0.5), "0.3", None, True, np.True_, P],
        ids=repr,
    )
    def test_non_real_probability_rejected_by_name(self, p):
        with pytest.raises(ValueError, match=re.escape(f"noise probability {p!r} is not real")):
            ChannelSpec(NoiseKind.BIT_FLIP, p)


class TestProbabilityBatch:
    def test_stored_as_hashable_tuple_of_floats(self):
        a = ChannelSpec(NoiseKind.BIT_FLIP, [0, 0.25, np.float32(0.5), 1])
        b = ChannelSpec(NoiseKind.BIT_FLIP, np.array([0.0, 0.25, 0.5, 1.0]))
        assert a.p == (0.0, 0.25, 0.5, 1.0)
        assert all(type(x) is float for x in a.p)
        assert a == b and hash(a) == hash(b)
        assert a != ChannelSpec(NoiseKind.BIT_FLIP, (0.0, 0.25, 0.5))

    @pytest.mark.parametrize(
        "batch,message",
        [
            ([0.1, float("nan"), 0.3], "noise probability nan outside [0, 1]"),
            ((0.1, 1.5), "noise probability 1.5 outside [0, 1]"),
            (np.array([-0.25, 0.5]), "noise probability -0.25 outside [0, 1]"),
            ([0.5, float("inf")], "noise probability inf outside [0, 1]"),
            ([], "must be 1-D and non-empty, got shape (0,)"),
            ([[0.1, 0.2]], "must be 1-D and non-empty, got shape (1, 2)"),
            (np.array(0.5), "must be 1-D and non-empty, got shape ()"),
            ([0.5, 0.5j], "must be real numbers, got dtype complex128"),
            (["0.5"], "must be real numbers, got dtype <U3"),
            ([True, False], "must be real numbers, got dtype bool"),
            ([0.5, True], "noise probability True is not real"),
            ((0.5, np.True_), "noise probability np.True_ is not real"),
        ],
        ids=[
            "nan", "above-one", "negative", "inf", "empty", "2-D", "0-D", "complex", "string",
            "bool", "bool-in-list", "numpy-bool-in-tuple",
        ],
    )
    def test_every_element_validated(self, batch, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelSpec(NoiseKind.DEPOLARIZING, batch)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_layer_slices_equal_scalar_layers(self, kind, random_density):
        batch = (0.0, 0.125, 0.7, 1.0)
        rho = random_density(3)
        got = apply_layer(spec(kind, batch), rho).entries
        assert got.shape == (len(batch), 8, 8)
        for k, p in enumerate(batch):
            assert got[k].tobytes() == apply_layer(spec(kind, p), rho).entries.tobytes()


class TestApplyToQubit:
    def test_single_qubit_embedding(self, random_density):
        sigma = random_density(2)
        zero = projector([1, 0])
        rho = tensor(zero, sigma)
        p = 0.3
        out = apply_to_qubit(spec(NoiseKind.BIT_FLIP, p), rho, 1)
        target = Operator([[1 - p, 0], [0, p]])
        assert max_entry_delta(out, tensor(target, sigma)) <= 1e-15

    def test_p0_leaves_input_exactly(self, random_density):
        rho = random_density(3)
        for kind in NoiseKind:
            out = apply_to_qubit(spec(kind, 0.0), rho, 2)
            assert max_entry_delta(out, rho) == 0.0

    def test_full_depolarization_forces_mixed_marginal(self, random_density):
        rho = random_density(3)
        out = apply_to_qubit(spec(NoiseKind.DEPOLARIZING, 1.0), rho, 2)
        marg = partial_trace(rho, keep=[1, 3])
        rebuilt = sort_qubits(tensor(marg, Operator(eye(1))), [1, 3, 2])
        assert max_entry_delta(out, Operator(rebuilt.entries / 2)) <= 1e-14

    def test_index_out_of_range(self, random_density):
        with pytest.raises(ValueError):
            apply_to_qubit(spec(NoiseKind.BIT_FLIP, 0.1), random_density(2), 3)


class TestApplyLayer:
    def test_full_depolarization_gives_maximally_mixed(self, random_density):
        out = apply_layer(spec(NoiseKind.DEPOLARIZING, 1.0), random_density(3))
        assert np.max(np.abs(out.entries - np.eye(8) / 8)) <= 1e-14

    def test_bitflip_layer_binomial_weights(self):
        p = 0.3
        rho = projector([1, 0, 0, 0, 0, 0, 0, 0])
        out = apply_layer(spec(NoiseKind.BIT_FLIP, p), rho)
        for idx in range(8):
            k = bin(idx).count("1")
            assert out.entries[idx, idx] == pytest.approx(p**k * (1 - p) ** (3 - k))
        assert np.max(np.abs(out.entries - np.diag(np.diag(out.entries)))) == 0.0

    def test_trace_preserved_everywhere(self, random_density):
        for kind in NoiseKind:
            for p in P_GRID:
                rho = random_density(3)
                assert apply_layer(spec(kind, p), rho).trace() == pytest.approx(1.0, abs=1e-13)

    def test_order_irrelevant(self, random_density):
        rho = random_density(3)
        s = spec(NoiseKind.DEPOLARIZING, 0.4)
        ij = apply_to_qubit(spec(NoiseKind.BIT_FLIP, 0.2), apply_to_qubit(s, rho, 1), 3)
        ji = apply_to_qubit(s, apply_to_qubit(spec(NoiseKind.BIT_FLIP, 0.2), rho, 3), 1)
        assert max_entry_delta(ij, ji) <= 1e-14

    def test_complete_positivity_witness(self):
        bell = projector([2**-0.5, 0, 0, 2**-0.5])
        for kind in NoiseKind:
            for p in (0.1, 0.5, 0.9):
                out = apply_to_qubit(spec(kind, p), bell, 1)
                assert hermitian_eigenvalues(out)[0] >= -1e-10

    def test_flip_layers_relate_p_and_complement(self, random_density):
        xxx = np.kron(np.kron(X, X), X)
        zzz = np.kron(np.kron(Z, Z), Z)
        rho = random_density(3)
        p = 0.23
        for kind, u in ((NoiseKind.BIT_FLIP, xxx), (NoiseKind.PHASE_FLIP, zzz)):
            direct = apply_layer(spec(kind, 1 - p), rho)
            related = dense_conjugate(apply_layer(spec(kind, p), rho), u)
            assert np.max(np.abs(direct.entries - related)) <= 1e-14

    def test_phaseflip_fixes_diagonal_states(self, rng):
        diag = np.diag(rng.random(8))
        diag /= diag.trace()
        rho = Operator(diag)
        out = apply_layer(spec(NoiseKind.PHASE_FLIP, 0.37), rho)
        assert max_entry_delta(out, rho) <= 1e-15

    def test_bitflip_composition_law(self, random_density):
        rho = random_density(2)
        p, q = 0.2, 0.35
        twice = apply_layer(spec(NoiseKind.BIT_FLIP, q), apply_layer(spec(NoiseKind.BIT_FLIP, p), rho))
        once = apply_layer(spec(NoiseKind.BIT_FLIP, p + q - 2 * p * q), rho)
        assert max_entry_delta(twice, once) <= 1e-13


class TestWeightRetention:
    def test_module_keeps_one_specs_weights(self):
        """After three 101-point runs on different specs the module holds at
        most the last spec's sign-folded weights: three (101, 8, 8) complex
        arrays, 3 x 101 x 64 x 16 B."""
        state = InputState(0.6, 0.8j)
        grid = [k / 100 for k in range(101)]
        teleport_fidelity(state, ChannelSpec(NoiseKind.BIT_FLIP, 0.5))  # build the lazy tables
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for kind, p in (
                (NoiseKind.DEPOLARIZING, grid),
                (NoiseKind.PHASE_FLIP, grid),
                (NoiseKind.DEPOLARIZING, grid[::-1]),
            ):
                teleport_fidelity(state, ChannelSpec(kind, p))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the slack covers the last spec's probabilities and its I and X weights
        assert held <= 3 * 101 * 64 * 16 + 32_768


class TestWeightCache:
    def test_entry_is_read_once(self, monkeypatch, random_density):
        """The cached entry is read in one step.  An entry whose indexing
        swaps in another spec's entry, as another thread could between two
        reads, changes no layer."""
        rho = random_density(3)
        spec_a = ChannelSpec(NoiseKind.DEPOLARIZING, 0.1)
        spec_b = ChannelSpec(NoiseKind.DEPOLARIZING, 0.9)
        want = apply_layer(spec_a, rho)
        entry_a = channels._LAST_BRANCHES
        apply_layer(spec_b, rho)
        entry_b = channels._LAST_BRANCHES

        class Swapping(tuple):
            def __getitem__(self, index):
                monkeypatch.setattr(channels, "_LAST_BRANCHES", entry_b)
                return tuple.__getitem__(self, index)

        monkeypatch.setattr(channels, "_LAST_BRANCHES", Swapping(entry_a))
        assert np.array_equal(apply_layer(spec_a, rho).entries, want.entries)


class TestExpandedForms:
    def test_subset_expansion_limits(self, random_density):
        rho = random_density(3)
        assert max_entry_delta(depolarizing_subset_expansion(rho, 0.0), rho) == 0.0
        full = depolarizing_subset_expansion(rho, 1.0)
        assert np.max(np.abs(full.entries - np.eye(8) / 8)) <= 1e-14

    def test_subset_expansion_matches_layer(self, random_density):
        for p in (0.1, 0.5, 0.85):
            rho = random_density(3)
            a = apply_layer(spec(NoiseKind.DEPOLARIZING, p), rho)
            b = depolarizing_subset_expansion(rho, p)
            assert max_entry_delta(a, b) <= 1e-14

    def test_subset_expansion_requires_three_qubits(self, random_density):
        with pytest.raises(ValueError):
            depolarizing_subset_expansion(random_density(2), 0.5)

    def test_flip_sums_match_layers(self, random_density):
        for kind in (NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP):
            for p in (0.15, 0.6):
                rho = random_density(3)
                a = apply_layer(spec(kind, p), rho)
                b = flip_sum_expansion(spec(kind, p), rho)
                assert max_entry_delta(a, b) <= 1e-14

    def test_flip_sum_rejects_depolarizing(self, random_density):
        with pytest.raises(ValueError):
            flip_sum_expansion(spec(NoiseKind.DEPOLARIZING, 0.1), random_density(3))

    @given(
        kind=st.sampled_from(list(NoiseKind)),
        p=st.one_of(PROBABILITIES, st.lists(PROBABILITIES, min_size=1, max_size=5).map(tuple)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_oracles_equal_layer_on_drawn_inputs(self, kind, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a @ a.conj().T
        rho = Operator(m / np.trace(m).real)
        s = spec(kind, p)
        if kind is NoiseKind.DEPOLARIZING:
            oracle = depolarizing_subset_expansion(rho, s.p)
        else:
            oracle = flip_sum_expansion(s, rho)
        layer = apply_layer(s, rho)
        assert layer.entries.shape == oracle.entries.shape
        assert max_entry_delta(layer, oracle) <= 1e-14


def embedded_kraus_reference(spec, rho, qubit):
    """Dense form of apply_to_qubit: each weighted Kraus Pauli tensored up to
    the full register, then applied by two matrix products."""
    n = rho.num_qubits
    acc = None
    for w, op in kraus_operators(spec):
        branch = dense_conjugate(rho, embed(op, qubit, n)) * w
        acc = branch if acc is None else acc + branch
    return acc


def dense_correction_reference(rho9, assignment):
    """Dense form of measure_and_correct: Z @ X, X or Z by matrix products."""
    acc = None
    for m1 in (0, 1):
        for m2 in (0, 1):
            base = 4 * m1 + 2 * m2
            block = Operator(rho9.entries[base : base + 2, base : base + 2])
            outcome = {1: m1, 2: m2}
            x_pow = outcome[assignment.x_source]
            z_pow = outcome[assignment.z_source]
            u = {(1, 1): Z @ X, (1, 0): X, (0, 1): Z}.get((x_pow, z_pow))
            branch = block.entries if u is None else dense_conjugate(block, u)
            acc = branch if acc is None else acc + branch
    return acc


def pauli_correction_reference(rho9, assignment):
    """measure_and_correct as one-qubit Pauli conjugations of each 2x2 block
    by expanded_forms.pauli_conjugate: I, X, Z, or Y for X then Z (Z X = iY)."""
    labels = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    acc = None
    for m1 in (0, 1):
        for m2 in (0, 1):
            base = 4 * m1 + 2 * m2
            block = rho9.entries[..., base : base + 2, base : base + 2]
            outcome = {1: m1, 2: m2}
            label = labels[outcome[assignment.x_source], outcome[assignment.z_source]]
            branch = pauli_conjugate(block, label, 1, 1)
            acc = branch if acc is None else acc + branch
    return acc


def random_rational_rows(rng, dim):
    """dim x dim Gaussian rationals with small numerators and denominators."""

    def rational():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))

    return [[GaussianRational(rational(), rational()) for _ in range(dim)] for _ in range(dim)]


def evaluate_at(polys, p):
    """Complex values of an object array of PolyP at the exact point p."""
    return np.array([[complex(e.evaluate_at(p)) for e in row] for row in polys])


def random_operator(rng, num_qubits, batch=None, zeros=False):
    """Random complex entries, optionally a batch of them.

    With ``zeros``, each part of each entry is drawn from -0.0, 0.0, -0.5,
    0.5 and 1.25, so that real parts, imaginary parts or both are signed zeros.
    """
    dim = 2**num_qubits
    shape = (dim, dim) if batch is None else (batch, dim, dim)
    if zeros:
        re, im = rng.choice([-0.0, 0.0, -0.5, 0.5, 1.25], size=(2, *shape))
    else:
        re, im = rng.normal(size=(2, *shape))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re, im  # `re + 1j * im` would turn -0.0 into 0.0
    return Operator(out)


def layer_reference(spec, rho, reference=embedded_kraus_reference):
    """Dense form of apply_layer: a per-qubit reference, qubit by qubit."""
    for qubit in range(1, rho.num_qubits + 1):
        rho = Operator(reference(spec, rho, qubit))
    return rho.entries


def branch_sum_reference(spec, rho, qubit):
    """apply_to_qubit as one Pauli branch at a time: each conjugated by
    expanded_forms.pauli_conjugate, then weighted, then summed in order."""
    acc = None
    for w, label in _pauli_weights(spec.kind, _complex_p(spec.p)):
        branch = pauli_conjugate(rho.entries, label, qubit, rho.num_qubits) * w
        acc = branch if acc is None else acc + branch
    return acc


class TestAgainstDenseReference:
    """The index-flip and sign-mask path equals the embedded-Kraus matmul path
    bit for bit: the arithmetic per entry is the same.  On entries with a
    signed-zero part it equals the per-branch sums instead."""

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_apply_to_qubit_float_bytes_equal(self, kind, num_qubits, random_density, rng):
        for _ in range(20):
            r = float(rng.random())
            for rho in (random_density(num_qubits), random_operator(rng, num_qubits, 3)):
                # one-point batches broadcast their weights apart
                for p in (0.0, 1.0, r, (0.0, r, 1.0), (1.0, r, 0.0), (r,)):
                    s = spec(kind, p)
                    for qubit in range(1, num_qubits + 1):
                        got = apply_to_qubit(s, rho, qubit).entries
                        assert got.flags.c_contiguous
                        assert got.tobytes() == embedded_kraus_reference(s, rho, qubit).tobytes()
                    got = apply_layer(s, rho).entries
                    assert got.flags.c_contiguous
                    assert got.tobytes() == layer_reference(s, rho).tobytes()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_apply_to_qubit_exact_equal(self, kind, qubit, rng):
        # the kernel at a rational p on rational entries, against the Kraus
        # operators that the dense exact reference writes out on its own
        for _ in range(3):
            p = Fraction(int(rng.integers(0, 101)), 100)
            rows = random_rational_rows(rng, 8)
            rho = Operator([[complex(x) for x in row] for row in rows])
            got = apply_to_qubit(spec(kind, float(p)), rho, qubit).entries
            want = ref.noise_on_qubit(ref.matrix(rows), kind, qubit)
            assert np.max(np.abs(got - evaluate_at(want, p))) <= 1e-14

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_apply_layer_exact_equal(self, kind, num_qubits, rng):
        # an n-qubit layer against the reference's channel on qubits 1..n of
        # rho (x) |0..0><0..0|: the ancilla factor stays put, so the entries
        # whose last 3 - n bits are 0 hold the n-qubit result
        pad = 2 ** (3 - num_qubits)
        ancillas = [[int(r == c == 0) for c in range(pad)] for r in range(pad)]
        for _ in range(2):
            rows = random_rational_rows(rng, 2**num_qubits)
            rho = Operator([[complex(x) for x in row] for row in rows])
            want = ref.kron(ref.matrix(rows), ref.matrix(ancillas))
            for qubit in range(1, num_qubits + 1):
                want = ref.noise_on_qubit(want, kind, qubit)
            want = want[::pad, ::pad]
            for p in (Fraction(0), Fraction(1), Fraction(int(rng.integers(1, 100)), 101)):
                got = apply_layer(spec(kind, float(p)), rho).entries
                assert np.max(np.abs(got - evaluate_at(want, p))) <= 1e-14

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_signed_zeros_equal_branch_sums(self, kind, num_qubits, rng):
        # The matmul reference adds the zero products of a row into each
        # entry, which can turn a -0.0 part into +0.0, so signed zeros are
        # checked against the branch sums.  -0.0 right after 0.0: equal
        # values whose weights differ in the sign of a zero.
        for _ in range(4):
            for rho in (
                random_operator(rng, num_qubits, zeros=True),
                random_operator(rng, num_qubits, 3, zeros=True),
            ):
                for p in (0.0, -0.0, 1.0, 0.3, (0.0, 0.3, 1.0), (-0.0, 1.0, 0.3), (0.0,)):
                    s = spec(kind, p)
                    for qubit in range(1, num_qubits + 1):
                        got = apply_to_qubit(s, rho, qubit).entries
                        assert got.flags.c_contiguous
                        assert got.tobytes() == branch_sum_reference(s, rho, qubit).tobytes()
                    got = apply_layer(s, rho).entries
                    assert got.flags.c_contiguous
                    assert got.tobytes() == layer_reference(s, rho, branch_sum_reference).tobytes()

    @pytest.mark.parametrize("gate", GATES, ids=str)
    def test_conjugate_by_equals_dense_conjugate(self, gate, random_density, rng):
        # the index maps against U rho U^dagger by two matrix products, with
        # H's factor 1/2 after both; most inputs have signed-zero parts
        u, scale = gate_matrix(gate, 3)
        inputs = [random_density(3)]
        for batch in (None, 6, 101):
            inputs += [random_operator(rng, 3, batch, zeros=True) for _ in range(4)]
        for rho in inputs:
            got = conjugate_by(rho, gate).entries
            assert got.flags.c_contiguous
            assert got.tobytes() == dense_conjugate(rho, u, scale).tobytes()

    def test_negative_zero_probability_keeps_its_own_weights(self):
        # p = -0.0 equals 0.0, but its X weight is -0.0, and so is the real
        # part of output entry (1, 0) here; weights kept for p = 0.0 would
        # give +0.0
        rho = Operator([[0.5 + 0.5j, 0.5 + 0.5j], [complex(-0.0, 0.5), -0.5 - 0.5j]])
        for p in (0.0, -0.0, 0.0, (0.0, 0.5), (-0.0, 0.5)):
            s = spec(NoiseKind.BIT_FLIP, p)
            got = apply_layer(s, rho).entries
            assert got.tobytes() == layer_reference(s, rho, branch_sum_reference).tobytes()
            assert np.signbit(got[..., 1, 0].real).tolist() == np.signbit(p).tolist()

    @pytest.mark.parametrize("assignment", [DEFAULT_ASSIGNMENT, *ALTERNATE_ASSIGNMENTS])
    def test_measure_and_correct_equals_pauli_conjugations(self, assignment, rng):
        # the 2x2 flips and sign masks give the general conjugation's bits,
        # signed zeros included, unbatched and batched
        for batch in (None, 1, 5):
            for zeros in (True, False):
                for _ in range(100):
                    rho9 = random_operator(rng, 3, batch, zeros)
                    got = measure_and_correct(rho9, assignment).entries
                    want = pauli_correction_reference(rho9, assignment)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("assignment", [DEFAULT_ASSIGNMENT, *ALTERNATE_ASSIGNMENTS])
    def test_measure_and_correct_equals_dense_corrections(self, assignment, random_density, rng):
        for _ in range(20):
            rho9 = random_density(3)
            got = measure_and_correct(rho9, assignment).entries
            assert got.tobytes() == dense_correction_reference(rho9, assignment).tobytes()
        for _ in range(3):
            rows = random_rational_rows(rng, 8)
            rho9 = Operator([[complex(x) for x in row] for row in rows])
            got = measure_and_correct(rho9, assignment).entries
            want = ref.measure_and_correct(ref.matrix(rows), assignment.x_source, assignment.z_source)
            assert np.max(np.abs(got - evaluate_at(want, 0))) <= 1e-14
