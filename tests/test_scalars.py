"""Ring/field axioms for complex floats, the exact polynomials and the rational types."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from teleportsim.exact import GaussianRational, P, PolyP
from teleportsim.teleport import InputState, _exact_norm_sq


def _float_samples(rng, n=12):
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [complex(v) for v in vals]


# (zero, one) of each scalar ring
UNITS = {"float": (0j, 1 + 0j), "exact": (PolyP.ZERO, PolyP.ONE)}


def _close(exact, a, b, tol):
    """Equality for exact scalars, |a - b| <= tol for floats."""
    return a == b if exact else abs(a - b) <= tol


def _exact_samples():
    g = GaussianRational
    return [
        PolyP([1]),
        PolyP([g(Fraction(3, 5), Fraction(-4, 5))]),
        P,
        PolyP([1, -2, 1]),
        PolyP([Fraction(1, 4), Fraction(-3, 4)]),
        PolyP([g(0, 1), g(Fraction(1, 2)), g(Fraction(-2, 3), Fraction(1, 7))]),
        PolyP.ZERO,
    ]


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_ring_axioms(ring, rng):
    exact = ring == "exact"
    zero, one = UNITS[ring]
    xs = _float_samples(rng) if ring == "float" else _exact_samples()
    tol = 1e-12
    for i, a in enumerate(xs):
        for b in xs[i:]:
            for c in xs[:3]:
                assert _close(exact, (a + b) + c, a + (b + c), tol)
                assert _close(exact, (a * b) * c, a * (b * c), tol)
                assert _close(exact, a * (b + c), a * b + a * c, tol)
            assert _close(exact, a + b, b + a, tol)
            assert _close(exact, a * b, b * a, tol)
        assert _close(exact, a + zero, a, tol)
        assert _close(exact, a * one, a, tol)
        assert _close(exact, a + (-a), zero, tol)


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_conjugation_involution_and_multiplicativity(ring, rng):
    exact = ring == "exact"
    xs = _float_samples(rng) if ring == "float" else _exact_samples()
    for a in xs:
        assert _close(exact, a.conjugate().conjugate(), a, 1e-15)
        for b in xs:
            assert _close(exact, (a * b).conjugate(), a.conjugate() * b.conjugate(), 1e-12)


def test_backend_equality_semantics():
    # exact equality admits no tolerance at all
    eps = PolyP([GaussianRational(Fraction(1, 10**30))])
    assert PolyP.ONE != PolyP.ONE + eps
    assert PolyP.ONE == PolyP([1])


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert a * a.conjugate() == GaussianRational(a.norm_sq())
    assert a + (-a) == GaussianRational()
    assert complex(a) == 0.6 + 0.8j
    assert PolyP([Fraction(2, 3)]) == GaussianRational(Fraction(2, 3))
    with pytest.raises(TypeError):
        PolyP([0.5])


def test_gaussian_rational_immutability_and_hash():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    assert hash(a) == hash(GaussianRational(Fraction(1, 2), Fraction(1, 3)))


def test_big_rational_always_reduced():
    samples = [Fraction(6, 4), Fraction(-10, 15) * Fraction(9, 2), Fraction(7, -3)]
    for f in samples:
        assert gcd(f.numerator, f.denominator) == 1
        assert f.denominator > 0


# --- GaussianRational against Fraction-pair definitions -----------------------

big_rationals = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)
)
scalars = st.one_of(st.integers(-(10**6), 10**6), big_rationals)
pairs = st.tuples(scalars, scalars)


def _parts(g):
    return g.re, g.im


@given(x=pairs, y=pairs)
@example(x=(0, 0), y=(Fraction(1, 3), -1))
def test_gaussian_rational_matches_fraction_pairs(x, y):
    a, b = map(Fraction, x)
    c, d = map(Fraction, y)
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert _parts(gx) == (a, b)
    assert _parts(gx * gy) == (a * c - b * d, a * d + b * c)
    assert _parts(gx + gy) == (a + c, b + d)
    assert _parts(gx - gy) == (a - c, b - d)
    assert _parts(-gx) == (-a, -b)
    assert _parts(gx.conjugate()) == (a, -b)
    assert gx.norm_sq() == a * a + b * b
    assert _parts(PolyP([x[0]])) == (a, 0)
    assert PolyP([gx]) == gx
    assert (gx == gy) == ((a, b) == (c, d))
    assert (gx == x[0]) == ((a, b) == (x[0], 0))
    assert str(gx) == (str(a) if not b else f"({a},{b})")
    assert complex(gx) == complex(float(a), float(b))
    assert bool(gx) == bool(a or b)


@given(x=pairs, y=pairs)
@example(x=(2, 0), y=(0, 0))
@example(x=(Fraction(-3, 4), 1), y=(1, 1))
def test_gaussian_rational_equal_values_hash_equal(x, y):
    """Values reached by different routes compare and hash alike."""
    g = GaussianRational(*x)
    h = GaussianRational(*y)
    for same in (g + h - h, (g * h + g) - g * h, -(-g), g.conjugate().conjugate()):
        assert same == g and hash(same) == hash(g)
    # a real value equals, and hashes like, its Fraction (and its int)
    re = Fraction(x[0])
    real = GaussianRational(re)
    for plain in [re] + ([re.numerator] if re.denominator == 1 else []):
        assert real == plain and hash(real) == hash(plain)
        assert plain in {real} and real in {plain} and {real: 1}[plain] == 1
    if x[1]:
        assert g not in {re}


def test_gaussian_rational_hash_ignores_construction():
    two = GaussianRational(Fraction(4, 2), 0)
    assert two == GaussianRational(2) and hash(two) == hash(GaussianRational(2))
    half, one_one = GaussianRational(Fraction(1, 2), Fraction(1, 2)), GaussianRational(1, 1)
    for same in (half * 2, half + half, 2 * half):
        assert same == one_one and hash(same) == hash(one_one)


PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
UNIT_PHASES = ((1, 0), (-1, 0), (0, 1), (0, -1))


@pytest.mark.parametrize("a,b,c", PYTHAGOREAN_TRIPLES)
def test_exact_norm_sq_on_pythagorean_states(a, b, c):
    for ua, va in UNIT_PHASES:
        for ub, vb in UNIT_PHASES:
            alpha = GaussianRational(Fraction(a * ua, c), Fraction(a * va, c))
            beta = GaussianRational(Fraction(b * ub, c), Fraction(b * vb, c))
            norm = _exact_norm_sq(alpha, beta)
            # a sum of real squares, so a Fraction with no imaginary part
            assert type(norm) is Fraction and norm == 1
            InputState(alpha, beta)
    # |a/c|^2 + |a/c|^2 from the Fraction-pair definition
    off = _exact_norm_sq(Fraction(a, c), GaussianRational(0, Fraction(a, c)))
    assert type(off) is Fraction and off == Fraction(2 * a * a, c * c)
    with pytest.raises(ValueError, match=f"= {Fraction(2 * a * a, c * c)}, not 1"):
        InputState(Fraction(a, c), GaussianRational(0, Fraction(a, c)))
    assert _exact_norm_sq(a / c, b / c) is None
