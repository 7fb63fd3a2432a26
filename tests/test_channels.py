"""Kraus decompositions, per-qubit application, layers, and the expanded-form oracles."""

import gc
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from teleportsim.channels import (
    ChannelSpec,
    NoiseKind,
    apply_layer,
    apply_to_qubit,
    depolarizing_subset_expansion,
    flip_sum_expansion,
    gate_set,
    identity,
    kraus_operators,
)
from teleportsim.exact import EXACT, GaussianRational, P, PolyP
from teleportsim.linalg import (
    FLOAT,
    DensityOperator,
    PureState,
    conjugate_by,
    hermitian_eigenvalues,
    max_entry_delta,
    partial_trace,
    pauli_conjugate,
    sort_qubits,
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


def spec(kind, p):
    return ChannelSpec(kind, p)


class TestGateSet:
    def test_unitarity_is_exact(self):
        g = gate_set(FLOAT)
        for u in (g.I, g.X, g.Y, g.Z, g.H, g.CNOT):
            prod = u @ u.dagger()
            assert np.array_equal(prod.dense(), np.eye(u.dim))

    def test_involutions(self):
        g = gate_set(FLOAT)
        for u in (g.X, g.Y, g.Z, g.H):
            assert np.array_equal((u @ u).dense(), np.eye(2))
        assert np.array_equal((g.CNOT @ g.CNOT).dense(), np.eye(4))

    def test_exact_backend_gates(self):
        g = gate_set(EXACT)
        prod = (g.Y @ g.Y).dense()
        assert prod[0, 0] == PolyP.ONE and not prod[0, 1]


class TestKrausOperators:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_completeness(self, kind, p):
        acc = np.zeros((2, 2), dtype=complex)
        for w, op in kraus_operators(spec(kind, p), FLOAT):
            acc += w * (op.dagger() @ op).dense()
        assert np.allclose(acc, np.eye(2), atol=1e-15)

    def test_completeness_symbolic(self):
        for kind in NoiseKind:
            acc = None
            for w, op in kraus_operators(ChannelSpec(kind, P), EXACT):
                term = (op.dagger() @ op).dense() * w
                acc = term if acc is None else acc + term
            assert acc[0, 0] == PolyP.ONE and not acc[0, 1] and not acc[1, 0]

    def test_flip_weights(self):
        ws = [w for w, _ in kraus_operators(spec(NoiseKind.BIT_FLIP, 0.2), FLOAT)]
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
        plus = PureState(FLOAT, [2**-0.5, 2**-0.5]).projector()
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

    def test_in_range_reals_and_symbolic_accepted(self):
        for p in (np.float32(0.5), np.int64(1), Fraction(1, 3), True, P, P * P + 2):
            assert ChannelSpec(NoiseKind.PHASE_FLIP, p).p is p

    @pytest.mark.parametrize("p", [2j, 0.5 + 0j, np.complex128(0.5)], ids=repr)
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
        ],
        ids=["nan", "above-one", "negative", "inf", "empty", "2-D", "0-D", "complex", "string"],
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

    def test_exact_backend_refuses_a_batch(self):
        with pytest.raises(TypeError, match="tuple"):
            kraus_operators(spec(NoiseKind.BIT_FLIP, [0.1, 0.2]), EXACT)


class TestApplyToQubit:
    def test_single_qubit_embedding(self, random_density):
        sigma = random_density(2)
        zero = PureState(FLOAT, [1, 0]).projector()
        rho = tensor(zero, sigma)
        p = 0.3
        out = apply_to_qubit(spec(NoiseKind.BIT_FLIP, p), rho, 1)
        target = DensityOperator(FLOAT, [[1 - p, 0], [0, p]])
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
        rebuilt = sort_qubits(tensor(marg, identity(FLOAT, 1)), [1, 3, 2])
        assert max_entry_delta(out, DensityOperator(FLOAT, rebuilt.entries / 2)) <= 1e-14

    def test_index_out_of_range(self, random_density):
        with pytest.raises(ValueError):
            apply_to_qubit(spec(NoiseKind.BIT_FLIP, 0.1), random_density(2), 3)


class TestApplyLayer:
    def test_full_depolarization_gives_maximally_mixed(self, random_density):
        out = apply_layer(spec(NoiseKind.DEPOLARIZING, 1.0), random_density(3))
        assert np.max(np.abs(out.entries - np.eye(8) / 8)) <= 1e-14

    def test_bitflip_layer_binomial_weights(self):
        p = 0.3
        rho = PureState(FLOAT, [1, 0, 0, 0, 0, 0, 0, 0]).projector()
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
        bell = PureState(FLOAT, [2**-0.5, 0, 0, 2**-0.5]).projector()
        for kind in NoiseKind:
            for p in (0.1, 0.5, 0.9):
                out = apply_to_qubit(spec(kind, p), bell, 1)
                assert hermitian_eigenvalues(out)[0] >= -1e-10

    def test_flip_layers_relate_p_and_complement(self, random_density):
        g = gate_set(FLOAT)
        xxx = tensor(tensor(g.X, g.X), g.X)
        zzz = tensor(tensor(g.Z, g.Z), g.Z)
        rho = random_density(3)
        p = 0.23
        for kind, u in ((NoiseKind.BIT_FLIP, xxx), (NoiseKind.PHASE_FLIP, zzz)):
            direct = apply_layer(spec(kind, 1 - p), rho)
            related = conjugate_by(apply_layer(spec(kind, p), rho), u)
            assert max_entry_delta(direct, related) <= 1e-14

    def test_phaseflip_fixes_diagonal_states(self, rng):
        diag = np.diag(rng.random(8))
        diag /= diag.trace()
        rho = DensityOperator(FLOAT, diag)
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


def embedded_kraus_reference(spec, rho, qubit):
    """Dense form of apply_to_qubit: each weighted Kraus Pauli tensored up to
    the full register, then applied by two matrix products."""
    backend = rho.backend
    n = rho.num_qubits
    acc = None
    for w, op in kraus_operators(spec, backend):
        if qubit > 1:
            op = tensor(identity(backend, qubit - 1), op)
        if qubit < n:
            op = tensor(op, identity(backend, n - qubit))
        branch = conjugate_by(rho, op).entries * w
        acc = branch if acc is None else acc + branch
    return acc


def dense_correction_reference(rho9, assignment):
    """Dense form of measure_and_correct: Z @ X, X or Z by matrix products."""
    g = gate_set(rho9.backend)
    acc = None
    for m1 in (0, 1):
        for m2 in (0, 1):
            base = 4 * m1 + 2 * m2
            branch = DensityOperator(rho9.backend, rho9.entries[base : base + 2, base : base + 2])
            outcome = {1: m1, 2: m2}
            x_pow = outcome[assignment.x_source]
            z_pow = outcome[assignment.z_source]
            if x_pow and z_pow:
                branch = conjugate_by(branch, g.Z @ g.X)
            elif x_pow:
                branch = conjugate_by(branch, g.X)
            elif z_pow:
                branch = conjugate_by(branch, g.Z)
            acc = branch.entries if acc is None else acc + branch.entries
    return acc


def random_exact_operator(rng, num_qubits):
    """Operator with random Gaussian-rational polynomial entries, about a third zero."""
    dim = 2**num_qubits
    ent = np.full((dim, dim), PolyP.ZERO, dtype=object)
    for r in range(dim):
        for c in range(dim):
            if rng.random() < 0.3:
                continue
            ent[r, c] = PolyP(
                GaussianRational(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
    return DensityOperator(EXACT, ent)


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
    return DensityOperator(FLOAT, out)


def layer_reference(spec, rho, reference=embedded_kraus_reference):
    """Dense form of apply_layer: a per-qubit reference, qubit by qubit."""
    for qubit in range(1, rho.num_qubits + 1):
        rho = DensityOperator(rho.backend, reference(spec, rho, qubit))
    return rho.entries


def branch_sum_reference(spec, rho, qubit):
    """apply_to_qubit as one Pauli branch at a time: each conjugated by
    linalg.pauli_conjugate, then weighted, then summed in order."""
    g = gate_set(rho.backend)
    acc = None
    for w, op in kraus_operators(spec, rho.backend):
        label = next(k for k in "IXYZ" if getattr(g, k) is op)
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
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_apply_to_qubit_exact_equal(self, kind, num_qubits, rng):
        for _ in range(3):
            rho = random_exact_operator(rng, num_qubits)
            for p in (0, 1, Fraction(int(rng.integers(1, 100)), 101), P):
                for qubit in range(1, num_qubits + 1):
                    got = apply_to_qubit(ChannelSpec(kind, p), rho, qubit).entries
                    want = embedded_kraus_reference(ChannelSpec(kind, p), rho, qubit)
                    assert (got == want).all()

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

    def test_negative_zero_probability_keeps_its_own_weights(self):
        # p = -0.0 equals 0.0, but its X weight is -0.0, and so is the real
        # part of output entry (1, 0) here; weights kept for p = 0.0 would
        # give +0.0
        rho = DensityOperator(FLOAT, [[0.5 + 0.5j, 0.5 + 0.5j], [complex(-0.0, 0.5), -0.5 - 0.5j]])
        for p in (0.0, -0.0, 0.0, (0.0, 0.5), (-0.0, 0.5)):
            s = spec(NoiseKind.BIT_FLIP, p)
            got = apply_layer(s, rho).entries
            assert got.tobytes() == layer_reference(s, rho, branch_sum_reference).tobytes()
            assert np.signbit(got[..., 1, 0].real).tolist() == np.signbit(p).tolist()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_apply_layer_exact_equal(self, kind, num_qubits, rng):
        for _ in range(2):
            rho = random_exact_operator(rng, num_qubits)
            for p in (0, 1, Fraction(int(rng.integers(1, 100)), 101), P):
                s = ChannelSpec(kind, p)
                assert (apply_layer(s, rho).entries == layer_reference(s, rho)).all()

    @pytest.mark.parametrize("assignment", [DEFAULT_ASSIGNMENT, *ALTERNATE_ASSIGNMENTS])
    def test_measure_and_correct_equals_dense_corrections(self, assignment, random_density, rng):
        for _ in range(20):
            rho9 = random_density(3)
            got = measure_and_correct(rho9, assignment).entries
            assert got.tobytes() == dense_correction_reference(rho9, assignment).tobytes()
        for _ in range(3):
            rho9 = random_exact_operator(rng, 3)
            got = measure_and_correct(rho9, assignment).entries
            assert (got == dense_correction_reference(rho9, assignment)).all()
