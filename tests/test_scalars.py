"""Ring/field axioms for both scalar backends and the rational types."""

from fractions import Fraction
from math import gcd

import pytest

from teleportsim.exact import EXACT, GaussianRational, P, PolyP
from teleportsim.linalg import FLOAT


def _float_samples(rng, n=12):
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [complex(v) for v in vals]


def _close(backend, a, b, tol):
    """Equality on the exact backend, |a - b| <= tol on the float backend."""
    return a == b if backend.is_exact else abs(a - b) <= tol


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


@pytest.mark.parametrize("backend_name", ["float", "exact"])
def test_ring_axioms(backend_name, rng):
    backend = FLOAT if backend_name == "float" else EXACT
    xs = _float_samples(rng) if backend_name == "float" else _exact_samples()
    tol = 1e-12
    for i, a in enumerate(xs):
        for b in xs[i:]:
            for c in xs[:3]:
                assert _close(backend, (a + b) + c, a + (b + c), tol)
                assert _close(backend, (a * b) * c, a * (b * c), tol)
                assert _close(backend, a * (b + c), a * b + a * c, tol)
            assert _close(backend, a + b, b + a, tol)
            assert _close(backend, a * b, b * a, tol)
        assert _close(backend, a + backend.zero, a, tol)
        assert _close(backend, a * backend.one, a, tol)
        assert _close(backend, a + (-a), backend.zero, tol)


@pytest.mark.parametrize("backend_name", ["float", "exact"])
def test_conjugation_involution_and_multiplicativity(backend_name, rng):
    backend = FLOAT if backend_name == "float" else EXACT
    xs = _float_samples(rng) if backend_name == "float" else _exact_samples()
    for a in xs:
        assert _close(backend, a.conjugate().conjugate(), a, 1e-15)
        for b in xs:
            assert _close(backend, (a * b).conjugate(), a.conjugate() * b.conjugate(), 1e-12)


def test_backend_equality_semantics():
    # exact equality admits no tolerance at all
    eps = PolyP([GaussianRational(Fraction(1, 10**30))])
    assert PolyP.ONE != PolyP.ONE + eps
    assert PolyP.ONE == PolyP([1])


def test_backend_coercion():
    assert FLOAT.coerce(Fraction(1, 2)) == 0.5 + 0j
    assert FLOAT.coerce(GaussianRational(Fraction(3, 5), Fraction(4, 5))) == 0.6 + 0.8j
    assert EXACT.coerce(Fraction(1, 2)) == PolyP([Fraction(1, 2)])
    with pytest.raises(TypeError):
        EXACT.coerce(0.5)
    with pytest.raises(TypeError):
        FLOAT.coerce("nope")


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert a * a.conjugate() == GaussianRational(a.norm_sq())
    assert a + (-a) == GaussianRational()
    assert complex(a) == 0.6 + 0.8j
    assert GaussianRational.from_value(Fraction(2, 3)) == GaussianRational(Fraction(2, 3))
    with pytest.raises(TypeError):
        GaussianRational.from_value(0.5)


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
