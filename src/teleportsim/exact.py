"""Exact scalar backend: rationals, Gaussian rationals, polynomials in p.

Running the teleportation pipeline over these scalars instead of floats
turns the final density matrix into exact polynomials in the noise
probability, which can then be compared coefficient-by-coefficient against
published closed forms.  Equality here is always exact, never tolerance
based.

Rationals are :class:`fractions.Fraction` (arbitrary precision, always
reduced, positive denominator).  ``GaussianRational`` is a complex number
with rational parts.  ``PolyP`` is a dense univariate polynomial in the
noise probability with Gaussian-rational coefficients; internally it keeps
integer coefficient arrays over a common denominator so that pipeline
arithmetic stays in fast integer operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Any, Iterable

import numpy as np

from . import channels, teleport
from .linalg import DensityOperator, ScalarBackend

def _as_fraction(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Any = 0, im: Any = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, value: Any) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(_as_fraction(value))

    @staticmethod
    def _coerce(value: Any) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re},{self.im})"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _normalized(
    re: list, im: list, den: int
) -> tuple[tuple, tuple, int]:
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if n == 0:
        return (), (), 1
    del re[n:], im[n:]
    if den != 1:
        g = den
        for v in re:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g != 1:
            for v in im:
                if v:
                    g = gcd(g, v)
                    if g == 1:
                        break
        if g > 1:
            re = [v // g for v in re]
            im = [v // g for v in im]
            den //= g
    return tuple(re), tuple(im), den


class PolyP:
    """Dense polynomial in the noise probability p over Gaussian rationals.

    Coefficients are exposed as :class:`GaussianRational`; storage is a pair
    of integer coefficient tuples over one positive denominator, trimmed of
    trailing zeros and reduced, so equality and hashing are structural.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coefficients: Iterable[Any] = ()):
        values = [GaussianRational.from_value(c) for c in coefficients]
        den = 1
        for g in values:
            den = lcm(den, g.re.denominator, g.im.denominator)
        re = [int(g.re * den) for g in values]
        im = [int(g.im * den) for g in values]
        self._re, self._im, self._den = _normalized(re, im, den)

    @classmethod
    def _raw(cls, re: list, im: list, den: int) -> "PolyP":
        obj = object.__new__(cls)
        obj._re, obj._im, obj._den = _normalized(re, im, den)
        return obj

    @staticmethod
    def _coerce(value: Any) -> "PolyP | None":
        if isinstance(value, PolyP):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return PolyP([value])
        return None

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._re) - 1

    @property
    def coefficients(self) -> tuple[GaussianRational, ...]:
        den = self._den
        return tuple(
            GaussianRational(Fraction(r, den), Fraction(i, den))
            for r, i in zip(self._re, self._im)
        )

    def coefficient(self, degree: int) -> GaussianRational:
        if degree < 0 or degree >= len(self._re):
            return GaussianRational()
        return GaussianRational(
            Fraction(self._re[degree], self._den),
            Fraction(self._im[degree], self._den),
        )

    def __bool__(self):
        return bool(self._re)

    def __add__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self:
            return o
        if not o:
            return self
        d1, d2 = self._den, o._den
        if d1 == d2:
            den, f1, f2 = d1, 1, 1
        else:
            g = gcd(d1, d2)
            den = d1 // g * d2
            f1, f2 = den // d1, den // d2
        n = max(len(self._re), len(o._re))
        re = [0] * n
        im = [0] * n
        for k, v in enumerate(self._re):
            re[k] = v * f1
        for k, v in enumerate(self._im):
            im[k] = v * f1
        for k, v in enumerate(o._re):
            re[k] += v * f2
        for k, v in enumerate(o._im):
            im[k] += v * f2
        return PolyP._raw(re, im, den)

    __radd__ = __add__

    def __sub__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return PolyP.ZERO
        ar, ai = self._re, self._im
        br, bi = o._re, o._im
        n, m = len(ar), len(br)
        cr = [0] * (n + m - 1)
        ci = [0] * (n + m - 1)
        for i in range(n):
            x, y = ar[i], ai[i]
            if not x and not y:
                continue
            if y:
                for j in range(m):
                    u, v = br[j], bi[j]
                    if u or v:
                        cr[i + j] += x * u - y * v
                        ci[i + j] += x * v + y * u
            else:
                for j in range(m):
                    u, v = br[j], bi[j]
                    if u or v:
                        cr[i + j] += x * u
                        ci[i + j] += x * v
        return PolyP._raw(cr, ci, self._den * o._den)

    __rmul__ = __mul__

    def __neg__(self):
        return PolyP._raw([-v for v in self._re], [-v for v in self._im], self._den)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = PolyP.ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "PolyP":
        """Coefficientwise conjugate (p itself is real)."""
        return PolyP._raw(list(self._re), [-v for v in self._im], self._den)

    def __eq__(self, other: Any):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._im == o._im and self._den == o._den

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def evaluate_at(self, p: Any) -> GaussianRational:
        """Exact evaluation at a rational (or Gaussian-rational) point."""
        x = GaussianRational.from_value(p)
        acc = GaussianRational()
        den = self._den
        for k in range(len(self._re) - 1, -1, -1):
            coeff = GaussianRational(Fraction(self._re[k], den), Fraction(self._im[k], den))
            acc = acc * x + coeff
        return acc

    def evaluate_float(self, p: float) -> complex:
        """Horner evaluation converting each exact coefficient to float.

        ``int / int`` rounds the exact quotient correctly, as
        ``float(Fraction(...))`` does, without building the Fraction.
        """
        acc = 0j
        den = self._den
        for k in range(len(self._re) - 1, -1, -1):
            c = complex(self._re[k] / den, self._im[k] / den)
            acc = acc * p + c
        return acc

    def to_text(self) -> str:
        """Canonical serialization: "c0 + c1*p + c2*p^2 + ...".

        Real rational coefficients render as "num" or "num/den"; coefficients
        with an imaginary part render as "(re,im)".  Zero terms are omitted;
        the zero polynomial renders as "0".
        """
        if not self:
            return "0"
        parts: list[str] = []
        den = self._den
        for k in range(len(self._re)):
            r, i = self._re[k], self._im[k]
            if not r and not i:
                continue
            if i:
                coeff = f"({Fraction(r, den)},{Fraction(i, den)})"
                sign = "+"
            else:
                frac = Fraction(r, den)
                sign = "-" if frac < 0 else "+"
                coeff = str(abs(frac))
            if k == 0:
                term = coeff
            elif k == 1:
                term = f"{coeff}*p"
            else:
                term = f"{coeff}*p^{k}"
            if not parts:
                parts.append(term if sign == "+" else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"<PolyP {self.to_text()}>"


PolyP.ZERO = PolyP()
PolyP.ONE = PolyP([1])

#: The indeterminate noise probability.
P = PolyP([0, 1])


def _coerce_exact(value: Any) -> PolyP:
    if isinstance(value, PolyP):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return PolyP([value])
    raise TypeError(
        f"exact backend cannot represent {type(value).__name__} values exactly"
    )


EXACT = ScalarBackend(
    name="exact",
    dtype=object,
    zero=PolyP.ZERO,
    one=PolyP.ONE,
    imaginary=PolyP([GaussianRational(0, 1)]),
    coerce=_coerce_exact,
    is_exact=True,
)


def run_pipeline_symbolic(
    input_state: "teleport.InputState", kind: "channels.NoiseKind"
) -> DensityOperator:
    """Run the full noisy pipeline with a symbolic noise probability.

    The input amplitudes must be exactly representable and exactly
    normalized, e.g. (3/5, 4/5) or (3/5, 4i/5).  The result is the 2x2
    output state with :class:`PolyP` entries; its trace is the constant
    polynomial 1 and every entry has degree at most 12.
    """
    spec = channels.ChannelSpec(kind, P)
    return teleport.run_stages(input_state, spec, EXACT)["rho10"]


_BASIS_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=None)
def extract_transfer_map(
    kind: "channels.NoiseKind",
    assignment: "teleport.CorrectionAssignment | None" = None,
) -> np.ndarray:
    """Linear map from input single-qubit entries to output entries.

    The pipeline is linear in the single-qubit factor of the initial state,
    so probing it with the four matrix units |i><j| (tensored with the |00>
    ancilla projector) recovers the complete process map.  Entry [r][c] of
    the returned 4x4 object array is the polynomial sending input entry c to
    output entry r, with entries flattened row-major as
    (0,0), (0,1), (1,0), (1,1).

    The result is cached and read-only; treat it as immutable.
    """
    spec = channels.ChannelSpec(kind, P)
    matrix = np.full((4, 4), PolyP.ZERO, dtype=object)
    for col, (i, j) in enumerate(_BASIS_PAIRS):
        ent = np.full((8, 8), PolyP.ZERO, dtype=object)
        ent[4 * i, 4 * j] = PolyP.ONE
        rho1 = DensityOperator(EXACT, ent)
        stages = teleport.run_stages_from_initial(
            rho1, spec, noise_enabled=True, assignment=assignment
        )
        out = stages["rho10"].entries
        for row, (a, b) in enumerate(_BASIS_PAIRS):
            matrix[row, col] = out[a, b]
    matrix.setflags(write=False)
    return matrix
