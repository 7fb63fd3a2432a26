"""Exact scalars and the exact transfer maps, polynomials in p.

The circuit's transfer map is derived by Pauli propagation with exact
polynomial entries in the noise probability, which can then be compared
coefficient-by-coefficient against published closed forms.  Equality here
is always exact, never tolerance based.  The same scalars also run the
dense pipeline (the ``EXACT`` backend), which the tests keep as the
reference route.

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


# Heisenberg-picture Pauli propagation (Gottesman, quant-ph/9807006;
# Aaronson-Gottesman, quant-ph/0406196).  The circuit is Clifford gates plus
# Pauli noise, so each output Pauli on qubit 3 pulls back to the initial
# state as one signed Pauli string scaled by a product of noise factors.
# A string is a pair of bit lists x, z indexed by qubit 1..3, where
# (x, z) = (1, 0) is X, (1, 1) is Y and (0, 1) is Z.

_LABELS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {label: bits for bits, label in _LABELS.items()}

_I = GaussianRational(0, 1)
_PAULI_MATRICES = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -_I), (_I, 0)),
    "Z": ((1, 0), (0, -1)),
}


def _pull_back_h(x: list, z: list, qubits: tuple) -> int:
    """H P H on the string in place; returns 1 when the sign flips."""
    (a,) = qubits
    x[a], z[a] = z[a], x[a]
    return x[a] & z[a]


def _pull_back_cnot(x: list, z: list, qubits: tuple) -> int:
    """CNOT P CNOT on the string in place; returns 1 when the sign flips."""
    a, b = qubits
    flip = x[a] & z[b] & (x[b] ^ z[a] ^ 1)
    x[b] ^= x[a]
    z[a] ^= z[b]
    return flip


_PULL_BACK = {"H": _pull_back_h, "CNOT": _pull_back_cnot}


def _pull_back(
    label: str, assignment: "teleport.CorrectionAssignment"
) -> "tuple[int, dict[str, int], str] | None":
    """Pull the Pauli ``label`` on the output qubit back to the initial state.

    Returns the sign, how many noise layers met each single-qubit Pauli of
    the string, and the string's Pauli on qubit 1; or None when the string
    has X or Y on qubit 2 or 3, so it vanishes on the |00> ancillas.
    """
    x, z = [0] * 4, [0] * 4
    x[3], z[3] = _BITS[label]
    # an outcome-controlled correction negates the Pauli it anticommutes
    # with, which sums over the outcomes to a Z on its source qubit
    z[assignment.x_source] ^= z[3]
    z[assignment.z_source] ^= x[3]
    sign = 1
    exponents = {"X": 0, "Y": 0, "Z": 0}
    for gate, qubits in reversed(teleport.CIRCUIT):
        for q in (1, 2, 3):
            if x[q] or z[q]:
                exponents[_LABELS[x[q], z[q]]] += 1
        if _PULL_BACK[gate](x, z, qubits):
            sign = -sign
    if x[2] or x[3]:
        return None
    return sign, exponents, _LABELS[x[1], z[1]]


def _noise_factors(kind: "channels.NoiseKind") -> dict[str, PolyP]:
    """The factor by which the channel scales each single-qubit Pauli."""
    weights = channels._pauli_weights(channels.ChannelSpec(kind, P), EXACT)
    return {
        label: sum((w if b in ("I", label) else -w for w, b in weights), PolyP.ZERO)
        for label in "XYZ"
    }


_BASIS_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=None)
def extract_transfer_map(
    kind: "channels.NoiseKind",
    assignment: "teleport.CorrectionAssignment | None" = None,
) -> np.ndarray:
    """Linear map from input single-qubit entries to output entries.

    Entry [r][c] of the returned 4x4 object array is the polynomial sending
    input entry c to output entry r, with entries flattened row-major as
    (0,0), (0,1), (1,0), (1,1).  Built by Pauli propagation: the output is
    ``1/2 sum_s c_s tr(P1_s rho_in) s`` over s = I, X, Y, Z on the output
    qubit, where ``c_s P1_s`` is the pull-back of s with its sign and noise
    factors.

    The result is cached and read-only; treat it as immutable.
    """
    if assignment is None:
        assignment = teleport.DEFAULT_ASSIGNMENT
    factors = _noise_factors(kind)
    terms = [(PolyP.ONE, "I", "I")]
    for label in "XYZ":
        pulled = _pull_back(label, assignment)
        if pulled is not None:
            sign, exponents, p1 = pulled
            c = PolyP.ONE
            for factor_label, e in exponents.items():
                if e:
                    c = c * factors[factor_label] ** e
            terms.append((c if sign > 0 else -c, label, p1))
    half = Fraction(1, 2)
    matrix = np.full((4, 4), PolyP.ZERO, dtype=object)
    for c, label, p1 in terms:
        s, p = _PAULI_MATRICES[label], _PAULI_MATRICES[p1]
        for row, (a, b) in enumerate(_BASIS_PAIRS):
            for col, (i, j) in enumerate(_BASIS_PAIRS):
                k = s[a][b] * p[j][i]
                if k:
                    matrix[row, col] = matrix[row, col] + c * (k * half)
    matrix.setflags(write=False)
    return matrix


def run_pipeline_symbolic(
    input_state: "teleport.InputState", kind: "channels.NoiseKind"
) -> DensityOperator:
    """The noisy pipeline's output state with a symbolic noise probability.

    The input amplitudes must be exactly representable and exactly
    normalized, e.g. (3/5, 4/5) or (3/5, 4i/5).  The result is the 2x2
    output state with :class:`PolyP` entries, the cached transfer map
    applied to the input's entries; its trace is the constant polynomial 1
    and every entry has degree at most 12.
    """
    a = EXACT.coerce(input_state.alpha)
    b = EXACT.coerce(input_state.beta)
    vec = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
    matrix = extract_transfer_map(kind)
    out = np.full((2, 2), PolyP.ZERO, dtype=object)
    for row, (r, c) in enumerate(_BASIS_PAIRS):
        for col, v in enumerate(vec):
            if matrix[row, col] and v:
                out[r, c] = out[r, c] + matrix[row, col] * v
    return DensityOperator(EXACT, out)
