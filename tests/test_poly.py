"""Polynomial arithmetic, evaluation, and canonical serialization."""

from fractions import Fraction

import pytest

from teleportsim.analytic import PUBLISHED
from teleportsim.exact import GaussianRational, P, PolyP

ONE = PolyP.ONE


def test_square_of_linear():
    q = ONE - P
    assert q * q == PolyP([1, -2, 1])


def test_one_minus_two_p_to_the_eighth_matches_published_u6():
    expanded = (ONE - PolyP([0, 2])) ** 8
    assert expanded == PUBLISHED.u6
    assert expanded.coefficients == (
        GaussianRational(1),
        GaussianRational(-16),
        GaussianRational(112),
        GaussianRational(-448),
        GaussianRational(1120),
        GaussianRational(-1792),
        GaussianRational(1792),
        GaussianRational(-1024),
        GaussianRational(256),
    )


def test_published_table_evaluations_at_zero():
    assert PUBLISHED.u4.evaluate_at(0) == GaussianRational(Fraction(1, 4))
    assert PUBLISHED.u1.evaluate_at(0) == GaussianRational(Fraction(1, 4))
    assert PUBLISHED.u2.evaluate_at(0) == GaussianRational(0)
    assert PUBLISHED.u6.evaluate_at(0) == GaussianRational(1)


def test_evaluation_commutes_with_ring_ops(rng):
    for _ in range(20):
        f = PolyP([Fraction(int(c), int(rng.integers(1, 9))) for c in rng.integers(-9, 9, size=5)])
        g = PolyP([int(c) for c in rng.integers(-9, 9, size=4)])
        x = Fraction(int(rng.integers(-20, 20)), 7)
        assert (f * g).evaluate_at(x) == f.evaluate_at(x) * g.evaluate_at(x)
        assert (f + g).evaluate_at(x) == f.evaluate_at(x) + g.evaluate_at(x)
        assert (-f).evaluate_at(x) == -f.evaluate_at(x)


def test_degree_of_product_adds():
    f = PolyP([1, 2, 3])
    g = PolyP([Fraction(1, 2), 0, 0, 5])
    assert (f * g).degree == f.degree + g.degree
    assert PolyP.ZERO.degree == -1
    assert (f * PolyP.ZERO) == PolyP.ZERO


def test_normalization_trims_and_reduces():
    assert PolyP([1, 0, 0]).degree == 0
    assert PolyP([Fraction(2, 4)]) == PolyP([Fraction(1, 2)])
    assert not PolyP([0, 0])
    assert bool(P)


def test_conjugate_distributes_over_product():
    f = PolyP([GaussianRational(1, 2), GaussianRational(0, -3)])
    g = PolyP([GaussianRational(Fraction(1, 2), Fraction(5, 3)), GaussianRational(4)])
    assert (f * g).conjugate() == f.conjugate() * g.conjugate()
    assert f.conjugate().conjugate() == f


def test_power_matches_repeated_multiplication():
    base = ONE - PolyP([0, 2])
    acc = ONE
    for _ in range(8):
        acc = acc * base
    assert base**8 == acc
    assert base**0 == ONE
    with pytest.raises(ValueError):
        base**-1


def test_subtraction_and_scalar_mixing():
    assert (P - P) == PolyP.ZERO
    assert 1 - P == PolyP([1, -1])
    assert Fraction(3, 4) * P == PolyP([0, Fraction(3, 4)])
    assert P + GaussianRational(0, 1) == PolyP([GaussianRational(0, 1), GaussianRational(1)])


def test_serialization_canonical_text():
    assert PolyP.ZERO.to_text() == "0"
    assert PolyP([1, -16, 112]).to_text() == "1 - 16*p + 112*p^2"
    assert PolyP([0, Fraction(9, 2)]).to_text() == "9/2*p"
    assert PolyP([Fraction(-1, 4), 0, 1]).to_text() == "-1/4 + 1*p^2"
    assert PolyP([GaussianRational(0, 1)]).to_text() == "(0,1)"
    assert (P * GaussianRational(Fraction(1, 2), Fraction(-1, 3))).to_text() == "(1/2,-1/3)*p"


def test_coefficient_accessors():
    f = PolyP([Fraction(1, 4), 0, 7])
    assert f.coefficient(0) == GaussianRational(Fraction(1, 4))
    assert f.coefficient(1) == GaussianRational(0)
    assert f.coefficient(99) == GaussianRational(0)
    assert len(f.coefficients) == 3


def test_hash_consistency():
    a = PolyP([Fraction(1, 2), 1])
    b = PolyP([Fraction(2, 4), 1])
    assert a == b and hash(a) == hash(b)
