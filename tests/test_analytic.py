"""The published closed forms: table invariants, limits, slopes, residual order."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from teleportsim import analytic
from teleportsim.analytic import (
    PUBLISHED,
    fidelity_closed,
    fidelity_linear,
    linear_slope,
    linear_slope_exact,
    rho10_closed,
)
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.exact import GaussianRational, P, PolyP
from teleportsim.linalg import Operator
from teleportsim.teleport import InputState

STATES = [
    InputState(1, 0),
    InputState(2**-0.5, 2**-0.5),
    InputState(0.6, 0.8),
    InputState(0.6, 0.8j),
]


def horner(poly, p):
    """Float Horner evaluation of a real polynomial, each coefficient
    rounded correctly to float."""
    acc = 0.0
    for c in reversed(poly.coefficients):
        acc = acc * p + float(c.re)
    return acc


def fd_slope_at_zero(fn, h=1e-5):
    """Richardson-extrapolated one-sided difference of fn at 0 (fn domain is [0,1])."""

    def one_sided(hh):
        return (-3 * fn(0.0) + 4 * fn(hh) - fn(2 * hh)) / (2 * hh)

    return (4 * one_sided(h / 2) - one_sided(h)) / 3


class TestPublishedTable:
    def test_trace_identity(self):
        combo = PUBLISHED.u1 + PUBLISHED.u2 + PUBLISHED.u3 * 2
        assert combo == PolyP([Fraction(1, 4)])

    def test_values_at_zero(self):
        expected = {"u1": Fraction(1, 4), "u2": 0, "u3": 0, "u4": Fraction(1, 4), "u5": 0, "u6": 1}
        for name, value in expected.items():
            assert getattr(PUBLISHED, name).evaluate_at(0) == GaussianRational(Fraction(value))

    def test_u6_binomial_factorization(self):
        assert PUBLISHED.u6 == (PolyP.ONE - PolyP([0, 2])) ** 8

    def test_degrees(self):
        assert PUBLISHED.u1.degree == 9
        assert PUBLISHED.u4.degree == 11
        assert PUBLISHED.u6.degree == 8


class TestClosedState:
    def test_identity_at_zero_noise(self):
        for kind in NoiseKind:
            for st in STATES:
                rho = rho10_closed(st, ChannelSpec(kind, 0.0))
                a, b = complex(st.alpha), complex(st.beta)
                expected = np.array(
                    [[abs(a) ** 2, a * np.conj(b)], [b * np.conj(a), abs(b) ** 2]]
                )
                assert np.max(np.abs(rho.entries - expected)) <= 1e-14

    def test_depolarizing_coherence_entry(self):
        st = STATES[2]
        for p in (0.1, 0.6):
            rho = rho10_closed(st, ChannelSpec(NoiseKind.DEPOLARIZING, p))
            assert rho.entries[0, 1] == pytest.approx((1 - p) ** 12 * 0.48, abs=1e-15)

    def test_phaseflip_half_is_diagonal(self):
        rho = rho10_closed(STATES[2], ChannelSpec(NoiseKind.PHASE_FLIP, 0.5))
        assert rho.entries[0, 1] == 0
        assert rho.entries[0, 0] == pytest.approx(0.36)
        assert rho.entries[1, 1] == pytest.approx(0.64)

    def test_unit_trace_everywhere(self):
        for kind in NoiseKind:
            for st in STATES:
                for p in np.linspace(0, 1, 11):
                    rho = rho10_closed(st, ChannelSpec(kind, float(p)))
                    assert abs(rho.trace().real - 1) <= 1e-12

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            rho10_closed(STATES[0], ChannelSpec(NoiseKind.DEPOLARIZING, 1.5))


class TestClosedFidelity:
    def test_one_at_zero(self):
        for kind in NoiseKind:
            for st in STATES:
                assert fidelity_closed(st, ChannelSpec(kind, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_depolarizing_equal_superposition_form(self):
        st = STATES[1]
        for p in (0.0, 0.2, 1.0):
            expected = 0.5 + (1 - p) ** 12 / 2
            got = fidelity_closed(st, ChannelSpec(NoiseKind.DEPOLARIZING, p))
            assert got == pytest.approx(expected, abs=1e-13)
        assert fidelity_closed(st, ChannelSpec(NoiseKind.DEPOLARIZING, 1.0)) == pytest.approx(0.5)

    def test_phaseflip_expansion(self):
        st = STATES[3]
        a, b = complex(st.alpha), complex(st.beta)
        t = abs(a) ** 2 * abs(b) ** 2
        for p in (0.1, 0.4):
            u6 = horner(PUBLISHED.u6, p)
            expected = abs(a) ** 4 + abs(b) ** 4 + 2 * u6 * t
            got = fidelity_closed(st, ChannelSpec(NoiseKind.PHASE_FLIP, p))
            assert got == pytest.approx(expected, abs=1e-14)


class TestLinearApproximation:
    def test_one_at_zero(self):
        for kind in NoiseKind:
            assert fidelity_linear(STATES[2], ChannelSpec(kind, 0.0)) == 1.0

    def test_depolarizing_spot_value(self):
        spec = ChannelSpec(NoiseKind.DEPOLARIZING, 0.01)
        assert fidelity_linear(STATES[1], spec) == pytest.approx(0.94)

    def test_phaseflip_basis_state(self):
        for p in (0.0, 0.3, 1.0):
            assert fidelity_linear(STATES[0], ChannelSpec(NoiseKind.PHASE_FLIP, p)) == 1.0

    def test_named_slopes(self):
        assert linear_slope(NoiseKind.DEPOLARIZING, STATES[0]) == pytest.approx(4.5)
        assert linear_slope(NoiseKind.BIT_FLIP, STATES[0]) == pytest.approx(9.0)
        assert linear_slope(NoiseKind.PHASE_FLIP, InputState(2**-0.5, 1j * 2**-0.5)) == pytest.approx(8.0)

    def test_slope_is_derivative_of_closed_form_at_named_probes(self):
        for kind in NoiseKind:
            for st in STATES:
                fd = fd_slope_at_zero(lambda p: fidelity_closed(st, ChannelSpec(kind, p)))
                assert abs(fd + linear_slope(kind, st)) <= 1e-9

    def test_slope_consistency_on_random_states(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            st = InputState(complex(v[0]), complex(v[1]))
            for kind in NoiseKind:
                fd = fd_slope_at_zero(lambda p: fidelity_closed(st, ChannelSpec(kind, p)))
                assert abs(fd + linear_slope(kind, st)) <= 1e-6

    def test_residual_is_second_order(self):
        grid = np.linspace(0.0005, 0.02, 40)
        for kind in NoiseKind:
            for st in STATES:
                def residual(p):
                    spec = ChannelSpec(kind, p)
                    return fidelity_closed(st, spec) - fidelity_linear(st, spec)

                c2_ref = abs(residual(0.02)) / 0.02**2
                for p in grid:
                    assert abs(residual(float(p))) <= 1.5 * c2_ref * p**2 + 1e-12
                # extrapolate the linear residual component; it must vanish
                c1 = 2 * residual(1e-6) / 1e-6 - residual(2e-6) / 2e-6
                assert abs(c1) <= 2e-9

    def test_exact_slopes_match_float(self):
        probes = [
            (GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))),
            (GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5))),
        ]
        for kind in NoiseKind:
            for alpha, beta in probes:
                exact = linear_slope_exact(kind, alpha, beta)
                st = InputState(complex(alpha), complex(beta))
                assert float(exact) == pytest.approx(linear_slope(kind, st), abs=1e-14)

    @given(
        a=st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
    )
    def test_bitflip_cross_term_is_exactly_real(self, a, b):
        # linear_slope's cross term, as it computes it: the two products are
        # exact float conjugates, so their squares' imaginary parts cancel to
        # 0.0 and the slope needs no check on them
        cross = (a * b.conjugate()) ** 2 + (b * a.conjugate()) ** 2
        assert cross.imag == 0.0


# The per-point closed forms, as the package computed them before it took a
# whole p grid: Python scalar arithmetic, one Operator per point.  The
# grid forms must equal them bit for bit.


def reference_rho10_closed(kind, input_state, p):
    if not 0 <= p <= 1:
        raise ValueError(f"noise probability {p} outside [0, 1]")
    p = float(p)
    a, b = complex(input_state.alpha), complex(input_state.beta)
    aa, dd = abs(a) ** 2, abs(b) ** 2
    coh = a * b.conjugate()

    def u(name):
        return horner(getattr(PUBLISHED, name), p)

    if kind is NoiseKind.DEPOLARIZING:
        q9 = (1 - p) ** 9
        q12 = (1 - p) ** 12
        mix = (1 - q9) / 2
        ent = [
            [q9 * aa + mix, q12 * coh],
            [q12 * coh.conjugate(), q9 * dd + mix],
        ]
    elif kind is NoiseKind.BIT_FLIP:
        u1, u2, u3, u4, u5 = u("u1"), u("u2"), u("u3"), u("u4"), u("u5")
        ent = [
            [
                4 * (u1 * aa + u2 * dd + u3),
                4 * (u4 * coh + u5 * coh.conjugate()),
            ],
            [
                4 * (u5 * coh + u4 * coh.conjugate()),
                4 * (u2 * aa + u1 * dd + u3),
            ],
        ]
    else:
        u6 = u("u6")
        ent = [[aa, u6 * coh], [u6 * coh.conjugate(), dd]]
    return Operator(ent)


def reference_fidelity_closed(kind, input_state, p):
    a, b = complex(input_state.alpha), complex(input_state.beta)
    rho = reference_rho10_closed(kind, input_state, p).entries
    val = (
        abs(a) ** 2 * rho[0, 0]
        + a.conjugate() * b * rho[0, 1]
        + b.conjugate() * a * rho[1, 0]
        + abs(b) ** 2 * rho[1, 1]
    )
    assert abs(val.imag) <= 1e-12
    return float(val.real)


def reference_fidelity_linear(kind, input_state, p):
    return 1.0 - float(p) * linear_slope(kind, input_state)


def haar_state(seed):
    v = np.random.default_rng(seed).normal(size=4)
    v /= np.linalg.norm(v)
    return InputState(complex(v[0], v[1]), complex(v[2], v[3]))


H = 2**-0.5
NAMED_STATES = [
    InputState(1, 0),
    InputState(0, 1),
    InputState(1j, 0),
    InputState(0, -1j),
    InputState(H, H),
    InputState(H, -H),
    InputState(H, 1j * H),
    InputState(H, -1j * H),
    InputState(0.6, 0.8j),
    InputState(-0.8j, 0.6),
]

input_states = st.one_of(
    st.sampled_from(NAMED_STATES), st.integers(0, 2**32 - 1).map(haar_state)
)



@st.composite
def grids(draw):
    """Unsorted points in [0, 1]: drawn ones, 0 and 1 often among them, mixed
    with uniform ones, whose full mantissas make rounding differences show."""
    points = draw(st.lists(st.sampled_from([0.0, 1.0, -0.0, 0.5]) | st.floats(0, 1), max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points += rng.random(draw(st.integers(0 if points else 1, 60))).tolist()
    return rng.permutation(np.array(points))


class TestGridForms:
    """Over a p grid the closed forms keep every bit of the per-point ones."""

    @given(kind=st.sampled_from(list(NoiseKind)), state=input_states, grid=grids())
    def test_grid_equals_per_point_reference(self, kind, state, grid):
        points = grid.tolist()
        spec = ChannelSpec(kind, grid)
        expected = np.array([reference_fidelity_closed(kind, state, p) for p in points])
        assert fidelity_closed(state, spec).tobytes() == expected.tobytes()
        rho = rho10_closed(state, spec).entries
        expected_rho = np.array([reference_rho10_closed(kind, state, p).entries for p in points])
        assert rho.tobytes() == expected_rho.tobytes()
        expected_linear = np.array([reference_fidelity_linear(kind, state, p) for p in points])
        assert fidelity_linear(state, spec).tobytes() == expected_linear.tobytes()
        # a scalar p is the one-point grid
        for p, want in zip(points[:3], expected):
            got = fidelity_closed(state, ChannelSpec(kind, p))
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes()

    def test_sweep_grid_on_named_and_random_states(self):
        # the named states have real or imaginary coherences, whose products
        # round the same under most formulas; the random ones do not
        grid = np.linspace(0, 1, 101)
        for kind in NoiseKind:
            for state in NAMED_STATES + [haar_state(seed) for seed in range(20)]:
                expected = [reference_fidelity_closed(kind, state, p) for p in grid.tolist()]
                got = fidelity_closed(state, ChannelSpec(kind, grid))
                assert got.tobytes() == np.array(expected).tobytes()

    def test_powers_equal_python_pow(self, rng):
        # np.power takes a SIMD path on some hosts and rounds differently
        # from Python's float ** on a few percent of these points
        q = np.concatenate([rng.random(20000), np.linspace(0, 1, 1001)])
        for exponent in (9, 12):
            expected = np.array([x**exponent for x in q.tolist()])
            assert analytic._pow(q, exponent).tobytes() == expected.tobytes()

    def test_return_types(self):
        state = NAMED_STATES[8]
        for kind in NoiseKind:
            assert type(fidelity_closed(state, ChannelSpec(kind, 0.25))) is float
            assert type(fidelity_linear(state, ChannelSpec(kind, 0.25))) is float
            assert rho10_closed(state, ChannelSpec(kind, 0.25)).entries.shape == (2, 2)
            grid = np.array([0.0, 0.25, 1.0])
            assert fidelity_closed(state, ChannelSpec(kind, grid)).shape == (3,)
            assert fidelity_linear(state, ChannelSpec(kind, grid)).shape == (3,)
            assert rho10_closed(state, ChannelSpec(kind, grid)).entries.shape == (3, 2, 2)

    @pytest.mark.parametrize(
        "fn", [fidelity_closed, fidelity_linear, rho10_closed], ids=lambda f: f.__name__
    )
    def test_first_bad_grid_value_is_named(self, fn):
        state = NAMED_STATES[8]
        for p, bad in (([0.5, 2.75, -1.0], "2.75"), ([-3.0, 0.5], "-3.0"), ([0.0, float("nan")], "nan")):
            with pytest.raises(ValueError, match=rf"^noise probability {bad} outside \[0, 1\]$"):
                fn(state, ChannelSpec(NoiseKind.BIT_FLIP, np.array(p)))
        with pytest.raises(ValueError, match=r"^noise probability 1.5 outside"):
            fn(state, ChannelSpec(NoiseKind.BIT_FLIP, 1.5))
        with pytest.raises(ValueError, match="1-D"):
            fn(state, ChannelSpec(NoiseKind.BIT_FLIP, np.zeros((2, 2))))

    def test_imaginary_part_checked_at_every_point(self, monkeypatch):
        real_entries = analytic._closed_entries

        def skewed(kind, a, b, grid):
            # a typo-like imaginary residue at p = 1 only
            entries = real_entries(kind, a, b, grid)
            re, im = entries[0]
            entries[0] = (re, np.where(grid == 1, 1e-9, im))
            return entries

        monkeypatch.setattr(analytic, "_closed_entries", skewed)
        grid = np.linspace(0, 1, 11)
        fidelity_closed(NAMED_STATES[8], ChannelSpec(NoiseKind.BIT_FLIP, grid[:-1]))
        with pytest.raises(ValueError, match="imaginary part above 1e-12"):
            fidelity_closed(NAMED_STATES[8], ChannelSpec(NoiseKind.BIT_FLIP, grid))
