"""Exact scalars and the exact transfer maps, polynomials in p.

The circuit's transfer map is derived by Pauli propagation with exact
polynomial entries in the noise probability, which can then be compared
coefficient-by-coefficient against published closed forms.  Equality here
is always exact, never tolerance based.  No dense matrix is built: the
tests keep a dense pipeline over these scalars as the reference the maps
must equal.

One number class does the arithmetic: ``PolyP``, a dense univariate
polynomial in the noise probability with Gaussian-rational coefficients,
stored as integer numerators over one positive common denominator,
reduced, so that the arithmetic stays in fast integer operations.  A
Gaussian rational, a complex number with rational parts, is a constant
``PolyP``; ``GaussianRational`` only builds one from its two parts.
:class:`fractions.Fraction` appears only where a value is built from one,
or a part is read out (``re``, ``im``, ``norm_sq``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Any, Iterable

import numpy as np

from . import channels, teleport


def _ratio(value: Any) -> tuple[int, int]:
    """``(num, den)`` of an int or a :class:`Fraction`, ``den > 0``."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _parts(value: Any) -> tuple[int, int, int]:
    """``(re, im, den)`` of an exact constant, the value ``(re + i im) / den``.

    Takes an int, a :class:`Fraction` or a :class:`PolyP` of degree at most
    0; anything else, a non-constant polynomial included, raises
    ``TypeError``.
    """
    if isinstance(value, PolyP):
        if len(value._re) > 1:
            raise TypeError(f"expected a constant, got the polynomial {value}")
        if not value._re:
            return 0, 0, 1
        return value._re[0], value._im[0], value._den
    num, den = _ratio(value)
    return num, 0, den


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, reduced with one gcd."""
    g = gcd(num, den)
    if g != den:
        return f"{num // g}/{den // g}"
    return str(num // g)


def _normalized(
    re: list, im: list, den: int
) -> tuple[tuple, tuple, int]:
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if n == 0:
        return (), (), 1
    if n < len(re):
        del re[n:], im[n:]
    if den != 1:
        g = gcd(den, *re, *im)
        if g > 1:
            re = [v // g for v in re]
            im = [v // g for v in im]
            den //= g
    return tuple(re), tuple(im), den


class PolyP:
    """Dense polynomial in the noise probability p over Gaussian rationals.

    Storage is a pair of integer coefficient tuples over one positive
    denominator, trimmed of trailing zeros and reduced, so equality is
    structural.  Coefficients are read out as constants, polynomials of
    degree at most 0; a constant is a Gaussian rational, with ``re``,
    ``im``, ``norm_sq()`` and ``complex()``, and a real one equals, and
    hashes like, the equal ``int`` or ``Fraction``.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coefficients: Iterable[Any] = ()):
        parts = [_parts(c) for c in coefficients]
        den = lcm(*(d for _, _, d in parts))
        re = [r * (den // d) for r, _, d in parts]
        im = [i * (den // d) for _, i, d in parts]
        self._re, self._im, self._den = _normalized(re, im, den)

    @classmethod
    def _raw(cls, re: list, im: list, den: int) -> "PolyP":
        obj = object.__new__(cls)
        obj._re, obj._im, obj._den = _normalized(re, im, den)
        return obj

    @classmethod
    def from_value(cls, value: Any) -> "PolyP":
        """The constant ``value``, an int, a Fraction or a constant PolyP."""
        re, im, den = _parts(value)
        if isinstance(value, cls):
            return value
        return cls._raw([re], [im], den)

    @staticmethod
    def _coerce(value: Any) -> "PolyP | None":
        if isinstance(value, PolyP):
            return value
        if isinstance(value, (int, Fraction)):
            return PolyP.from_value(value)
        return None

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._re) - 1

    @property
    def coefficients(self) -> tuple[PolyP, ...]:
        return tuple(map(self.coefficient, range(len(self._re))))

    def coefficient(self, degree: int) -> PolyP:
        if degree < 0 or degree >= len(self._re):
            return PolyP.ZERO
        return PolyP._raw([self._re[degree]], [self._im[degree]], self._den)

    @property
    def re(self) -> Fraction:
        """The real part of a constant."""
        re, _, den = _parts(self)
        return Fraction(re, den)

    @property
    def im(self) -> Fraction:
        """The imaginary part of a constant."""
        _, im, den = _parts(self)
        return Fraction(im, den)

    def norm_sq(self) -> Fraction:
        """``|c|^2`` of a constant ``c``."""
        re, im, den = _parts(self)
        return Fraction(re * re + im * im, den * den)

    def __complex__(self):
        re, im, den = _parts(self)
        # int / int is correctly rounded, as float(Fraction) is
        return complex(re / den, im / den)

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
            e >>= 1
            if e:
                base = base * base
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
        if len(self._re) <= 1 and not any(self._im):  # equal to an int or a Fraction
            re, _, den = _parts(self)
            return hash(Fraction(re, den))
        return hash((self._re, self._im, self._den))

    def evaluate_at(self, p: Any) -> PolyP:
        """Exact evaluation at a rational (or Gaussian-rational) point.

        Horner's rule on integer numerators: with ``p = (u + i v) / d``,
        ``sum_k c_k p^k = (sum_k (a_k + i b_k) (u + i v)^k d^(n-k)) / (D d^n)``
        for coefficients ``(a_k + i b_k) / D`` up to degree ``n``.
        """
        u, v, d = _parts(p)
        re, im = self._re, self._im
        if not re or not u and not v:  # the zero polynomial, or p = 0
            return self.coefficient(0)
        acc_re, acc_im, scale = re[-1], im[-1], 1
        for k in range(len(re) - 2, -1, -1):
            scale *= d
            acc_re, acc_im = (
                acc_re * u - acc_im * v + re[k] * scale,
                acc_re * v + acc_im * u + im[k] * scale,
            )
        return PolyP._raw([acc_re], [acc_im], self._den * scale)

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
                coeff = f"({_ratio_text(r, den)},{_ratio_text(i, den)})"
                sign = "+"
            else:
                sign = "-" if r < 0 else "+"
                coeff = _ratio_text(abs(r), den)
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


class GaussianRational(PolyP):
    """Complex number with exact rational real and imaginary parts.

    A Gaussian rational is a constant :class:`PolyP`, a polynomial of
    degree at most 0, and this class only builds one from its parts:
    ``GaussianRational(Fraction(3, 5), Fraction(4, 5))``.  Arithmetic,
    comparison, hashing and text are the polynomial's, so a sum or a
    product of Gaussian rationals is a ``PolyP``.
    """

    __slots__ = ()

    def __init__(self, re: Any = 0, im: Any = 0):
        (a, da), (b, db) = _ratio(re), _ratio(im)
        den = lcm(da, db)
        self._re, self._im, self._den = _normalized([a * (den // da)], [b * (den // db)], den)


PolyP.ZERO = PolyP()
PolyP.ONE = PolyP([1])

#: The indeterminate noise probability.
P = PolyP([0, 1])


# Heisenberg-picture Pauli propagation (Gottesman, quant-ph/9807006;
# Aaronson-Gottesman, quant-ph/0406196).  The circuit is Clifford gates plus
# Pauli noise, so each output Pauli on qubit 3 pulls back to the initial
# state as one signed Pauli string scaled by a product of noise factors.
# A string is a pair of bit lists x, z indexed by qubit 1..3, where
# (x, z) = (1, 0) is X, (1, 1) is Y and (0, 1) is Z.

_LABELS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {label: bits for bits, label in _LABELS.items()}

# Each Pauli matrix entry is 0 (None) or the unit i^e, held as e.
_PAULI_PHASES = {
    "I": ((0, None), (None, 0)),
    "X": ((None, 0), (0, None)),
    "Y": ((None, 3), (1, None)),
    "Z": ((0, None), (None, 2)),
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
    weights = channels._pauli_weights(kind, P, lambda c: PolyP([c]))
    return {
        label: sum((w if b in ("I", label) else -w for w, b in weights), PolyP.ZERO)
        for label in "XYZ"
    }


_BASIS_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _half_unit_multiple(c: PolyP, e: int) -> PolyP:
    """``c * i**e / 2``: each quarter turn swaps the parts and negates one."""
    re, im = list(c._re), list(c._im)
    for _ in range(e % 4):
        re, im = [-v for v in im], re
    return PolyP._raw(re, im, 2 * c._den)


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
    matrix = np.full((4, 4), PolyP.ZERO, dtype=object)
    for c, label, p1 in terms:
        s, p = _PAULI_PHASES[label], _PAULI_PHASES[p1]
        for row, (a, b) in enumerate(_BASIS_PAIRS):
            for col, (i, j) in enumerate(_BASIS_PAIRS):
                if s[a][b] is not None and p[j][i] is not None:
                    entry = _half_unit_multiple(c, s[a][b] + p[j][i])
                    matrix[row, col] = matrix[row, col] + entry
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class ExactState:
    """A one-qubit state whose ``entries`` is a read-only 2x2 array of
    :class:`PolyP`, polynomials in the noise probability."""

    entries: np.ndarray


def run_pipeline_symbolic(
    input_state: "teleport.InputState", kind: "channels.NoiseKind"
) -> ExactState:
    """The noisy pipeline's output state with a symbolic noise probability.

    The input amplitudes must be exactly representable Gaussian rationals
    and exactly normalized, e.g. (3/5, 4/5) or (3/5, 4i/5); float
    amplitudes raise ``TypeError``.  The result is the cached transfer map
    applied to the input's entries; its trace is the constant polynomial 1
    and every entry has degree at most 12.
    """
    a, b = PolyP([input_state.alpha]), PolyP([input_state.beta])
    vec = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
    matrix = extract_transfer_map(kind)
    out = np.full((2, 2), PolyP.ZERO, dtype=object)
    for row, (r, c) in enumerate(_BASIS_PAIRS):
        for col, v in enumerate(vec):
            if matrix[row, col] and v:
                out[r, c] = out[r, c] + matrix[row, col] * v
    out.setflags(write=False)
    return ExactState(out)
