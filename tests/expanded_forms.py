"""Expanded forms of the noise layers, kept as test oracles.

The package applies a channel to every qubit with one per-qubit kernel
(``channels.apply_layer``).  The forms below re-derive the same layer by a
different route, with dense tensor products, partial traces and matrix
conjugations:

- :func:`depolarizing_subset_expansion` sums over the subsets of qubits
  replaced by I/2;
- :func:`flip_sum_expansion` sums every Pauli flip string with its binomial
  weight;
- :func:`kraus_operators` writes each channel as weighted 2x2 Kraus
  operators, for the embedded-Kraus references in ``test_channels``.
"""

import itertools
from typing import Any

from teleportsim.channels import (
    ChannelSpec,
    NoiseKind,
    _complex_p,
    _pauli_weights,
    gate_set,
    identity,
)
from teleportsim.linalg import (
    DensityOperator,
    Operator,
    conjugate_by,
    partial_trace,
    tensor,
)


def kraus_operators(spec: ChannelSpec) -> list[tuple[Any, Operator]]:
    """Weighted Kraus decomposition {(w_i, K_i)} with sum_i w_i K_i^dag K_i = I.

    Bit flip: {(1-p, I), (p, X)}.  Phase flip: {(1-p, I), (p, Z)}.
    Depolarizing: {(1-3p/4, I), (p/4, X), (p/4, Y), (p/4, Z)}, which equals
    the mix-with-I/2 form (1-p) rho + p I/2 on every input.  The weights are
    the kernel's own, bit for bit.
    """
    g = gate_set()
    return [(w, getattr(g, label)) for w, label in _pauli_weights(spec.kind, _complex_p(spec.p))]


def sort_qubits(op: Operator, labels: list[int]) -> DensityOperator:
    """Reorder qubit axes so the given logical labels come out ascending.

    ``labels[k]`` is the logical index carried by the operator's k-th qubit;
    the result carries logical qubits in sorted order.  Inverse companion to
    the reordering that ``partial_trace`` applies via ``keep``.
    """
    labels = list(labels)
    n = op.num_qubits
    if op.root2_shift:
        raise ValueError("sort_qubits expects an unscaled operator")
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError(f"labels {labels} must be {n} distinct qubit indices")
    order = sorted(range(n), key=lambda k: labels[k])
    axes = order + [n + ax for ax in order]
    ent = op.entries.reshape((2,) * (2 * n)).transpose(axes).reshape(op.dim, op.dim)
    return DensityOperator(ent)


def depolarizing_subset_expansion(rho: DensityOperator, p: Any) -> DensityOperator:
    """Expanded form of the three-qubit depolarizing layer.

    Sums over the subsets of qubits that get replaced by I/2: the surviving
    qubits keep their joint reduced state.  ``p`` is a probability, or a
    batch of them as a tuple.
    """
    if rho.num_qubits != 3:
        raise ValueError(f"subset expansion is defined for 3 qubits, got {rho.num_qubits}")
    pp = _complex_p(p)
    keep_w = 1 + 0j - pp
    half, quarter, eighth = 0.5 + 0j, 0.25 + 0j, 0.125 + 0j

    acc = (keep_w * keep_w * keep_w) * rho.entries
    one_q = identity(1)
    two_q = identity(2)
    for traced in (1, 2, 3):
        keep = [q for q in (1, 2, 3) if q != traced]
        marg = partial_trace(rho, keep)
        emb = sort_qubits(tensor(marg, one_q), keep + [traced])
        acc = acc + (pp * keep_w * keep_w * half) * emb.entries
    for kept in (1, 2, 3):
        others = [q for q in (1, 2, 3) if q != kept]
        marg = partial_trace(rho, [kept])
        emb = sort_qubits(tensor(marg, two_q), [kept] + others)
        acc = acc + (pp * pp * keep_w * quarter) * emb.entries
    full_w = pp * pp * pp * eighth * rho.trace()
    acc = acc + full_w * identity(3).entries
    return DensityOperator(acc)


def flip_sum_expansion(spec: ChannelSpec, rho: DensityOperator) -> DensityOperator:
    """Explicit Pauli-string sum form of a flip-channel layer.

    Sums over every combination of per-qubit flips with weight
    p^(flips) (1-p)^(n-flips).
    """
    if spec.kind is NoiseKind.DEPOLARIZING:
        raise ValueError("flip_sum_expansion covers the bit/phase flip channels only")
    g = gate_set()
    flip = g.X if spec.kind is NoiseKind.BIT_FLIP else g.Z
    p = _complex_p(spec.p)
    q = 1 + 0j - p
    n = rho.num_qubits
    acc = None
    for bits in itertools.product((0, 1), repeat=n):
        weight = 1 + 0j
        string = None
        for b in bits:
            weight = weight * (p if b else q)
            factor = flip if b else g.I
            string = factor if string is None else tensor(string, factor)
        branch = conjugate_by(rho, string).entries * weight
        acc = branch if acc is None else acc + branch
    return DensityOperator(acc)
