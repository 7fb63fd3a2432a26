"""Polynomial arithmetic, evaluation, and canonical serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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


# Gaussian-rational, zero, negative and non-unit-denominator coefficients
LINEAR_COEFFICIENTS = (
    0,
    1,
    -2,
    Fraction(-3, 7),
    GaussianRational(Fraction(2, 3), Fraction(-5, 4)),
    GaussianRational(0, -2),
)


@pytest.mark.parametrize("a", LINEAR_COEFFICIENTS)
@pytest.mark.parametrize("b", LINEAR_COEFFICIENTS)
def test_power_matches_repeated_multiplication(a, b):
    # a noise factor of the transfer maps is a base a + b p
    base = PolyP([a, b])
    acc = ONE
    for e in range(14):
        assert base**e == acc, e
        acc = acc * base
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
    # a constant equals, and hashes like, its coefficient in any exact type
    for constant, plain in (
        (PolyP(), 0),
        (PolyP([2]), 2),
        (PolyP([Fraction(-3, 4)]), Fraction(-3, 4)),
        (PolyP([Fraction(4, 2)]), GaussianRational(2)),
        (PolyP([GaussianRational(1, 1)]), GaussianRational(1, 1)),
        (PolyP([GaussianRational(0, Fraction(1, 3))]), GaussianRational(0, Fraction(1, 3))),
    ):
        assert constant == plain and hash(constant) == hash(plain)
        assert plain in {constant} and constant in {plain}
    assert 2 in {PolyP([2]), GaussianRational(2)} and len({PolyP([2]), GaussianRational(2), 2}) == 1
    assert PolyP([0, 1]) not in {0, 1}


# --- PolyP against a Fraction-pair reference ---------------------------------

ZERO_PAIR = (Fraction(0), Fraction(0))


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == ZERO_PAIR:
        coeffs.pop()
    return coeffs


def _ref_add(f, g):
    n = max(len(f), len(g))
    f, g = f + [ZERO_PAIR] * (n - len(f)), g + [ZERO_PAIR] * (n - len(g))
    return _ref_trim((a + c, b + d) for (a, b), (c, d) in zip(f, g))


def _ref_neg(f):
    return [(-a, -b) for a, b in f]


def _ref_mul(f, g):
    out = [ZERO_PAIR] * max(len(f) + len(g) - 1, 0)
    for i, (a, b) in enumerate(f):
        for j, (c, d) in enumerate(g):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return _ref_trim(out)


def _ref_evaluate(f, x):
    u, v = x
    re, im = Fraction(0), Fraction(0)
    for a, b in reversed(f):
        re, im = re * u - im * v + a, re * v + im * u + b
    return re, im


def _ref_text(f):
    """The canonical text as `PolyP.to_text` documents it, from Fractions."""
    parts = []
    for k, (a, b) in enumerate(f):
        if not a and not b:
            continue
        if b:
            coeff, sign = f"({a},{b})", "+"
        else:
            coeff, sign = str(abs(a)), "-" if a < 0 else "+"
        term = coeff if k == 0 else f"{coeff}*p" if k == 1 else f"{coeff}*p^{k}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f" {sign} {term}")
    return "".join(parts) or "0"


def _poly(f):
    return PolyP([GaussianRational(a, b) for a, b in f])


def _pairs(poly):
    return [(c.re, c.im) for c in poly.coefficients]


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
gaussian_pairs = st.one_of(
    st.tuples(rationals, st.just(Fraction(0))),  # real coefficients print unparenthesized
    st.tuples(rationals, rationals),
)
coefficient_lists = st.lists(st.one_of(st.just(ZERO_PAIR), gaussian_pairs), max_size=6)
points = st.one_of(st.just(ZERO_PAIR), gaussian_pairs)


class TestAgainstFractionPairs:
    @given(f=coefficient_lists, g=coefficient_lists, e=st.integers(0, 4))
    @example(f=[], g=[ZERO_PAIR, ZERO_PAIR], e=0)
    def test_ring_ops(self, f, g, e):
        pf, pg = _poly(f), _poly(g)
        f, g = _ref_trim(f), _ref_trim(g)
        assert _pairs(pf) == f
        assert _pairs(pf + pg) == _ref_add(f, g)
        assert _pairs(pf - pg) == _ref_add(f, _ref_neg(g))
        assert _pairs(pf * pg) == _ref_mul(f, g)
        power = [(Fraction(1), Fraction(0))]
        for _ in range(e):
            power = _ref_mul(power, f)
        assert _pairs(pf**e) == power
        assert _pairs(pf.conjugate()) == [(a, -b) for a, b in f]

    @given(f=coefficient_lists)
    @example(f=[])
    def test_coefficient_and_text(self, f):
        poly = _poly(f)
        f = _ref_trim(f)
        assert poly.degree == len(f) - 1
        for k in range(-1, len(f) + 2):
            c = poly.coefficient(k)
            assert (c.re, c.im) == (f[k] if 0 <= k < len(f) else ZERO_PAIR)
        assert poly.to_text() == _ref_text(f)

    @given(f=coefficient_lists, g=coefficient_lists, x=points)
    @example(f=[], g=[], x=ZERO_PAIR)
    @example(f=[(Fraction(1, 3), Fraction(2))] * 4, g=[], x=ZERO_PAIR)
    def test_evaluation_at_gaussian_points(self, f, g, x):
        point = GaussianRational(*x) if x[1] else x[0]
        for ref, poly in (
            (_ref_trim(f), _poly(f)),
            (_ref_mul(_ref_trim(f), _ref_trim(g)), _poly(f) * _poly(g)),
        ):
            value = poly.evaluate_at(point)
            assert (value.re, value.im) == _ref_evaluate(ref, x)


# --- Gaussian rationals are constant polynomials -------------------------------


def test_gaussian_rational_is_a_constant_polyp():
    g = GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    assert isinstance(g, PolyP) and g.degree == 0
    assert g == PolyP([g])
    # it only builds a constant: arithmetic, comparison, hash and text are PolyP's
    assert [name for name, v in vars(GaussianRational).items() if callable(v)] == ["__init__"]
    assert type(g * g) is PolyP and type(g + 1) is PolyP
    assert str(g) == "(3/5,-4/5)" and repr(g) == "<PolyP (3/5,-4/5)>"
    assert str(GaussianRational(Fraction(-3, 5))) == "-3/5" and str(GaussianRational()) == "0"
    assert (g.re, g.im, g.norm_sq()) == (Fraction(3, 5), Fraction(-4, 5), 1)
    assert complex(g) == 0.6 - 0.8j
    assert PolyP([PolyP([Fraction(1, 2)])]) == Fraction(1, 2)


@pytest.mark.parametrize(
    "read",
    [
        lambda x: x.re,
        lambda x: x.im,
        lambda x: x.norm_sq(),
        complex,
        lambda x: PolyP([1, x]),
        lambda x: PolyP.ONE.evaluate_at(x),
    ],
)
def test_a_non_constant_is_not_a_number(read):
    for poly in (P, PolyP([Fraction(1, 2), 0, GaussianRational(0, 1)])):
        with pytest.raises(TypeError, match="expected a constant"):
            read(poly)
