"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Every number is a pair of fractions.Fraction kept in lowest terms;
nothing here ever rounds.  This is the scalar layer: polynomials
(mpoly.py) keep integer numerators of their own and meet
GaussianRational only at their interface.
"""

from __future__ import annotations

import re
from fractions import Fraction


class GaussianRationalError(ArithmeticError):
    pass


class GaussianRational:
    """An element a + b*i of Q(i), immutable after construction."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        # a Fraction is already in lowest terms; a float converts exactly
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    @classmethod
    def from_integers(cls, re: int, im: int, den: int) -> "GaussianRational":
        """(re + im*i) / den for integers re, im and den != 0."""
        return cls(Fraction(re, den), Fraction(im, den))

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        """Exact conversion of a floating complex number (binary rational)."""
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inverse(), -n, ONE)
        return power(self, n, ONE)

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise GaussianRationalError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """Rational norm re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real one equals its real part, an int or Fraction, so it hashes as that
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({format_gaussian(self)!r})"

    def __str__(self):
        return format_gaussian(self)


def power(base, n: int, one):
    """base**n for an int n >= 0, one being base**0: square-and-multiply,
    with no squaring past the last bit of n."""
    if n == 0:
        return one
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def _fmt_rat(q) -> str:
    d = q.denominator
    return str(q.numerator) if d == 1 else f"{q.numerator}/{d}"


def format_gaussian(x: GaussianRational) -> str:
    """Canonical literal: '3/2-1/3i', '2+1i', '-5', '0+2i' style."""
    if x.im == 0:
        return _fmt_rat(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{_fmt_rat(x.re)}{sign}{_fmt_rat(abs(x.im))}i"


_RAT = r"\d+(?:/\d+)?"
_RE_COMPLEX = re.compile(rf"^(?P<re>[+-]?{_RAT})(?P<im>[+-]{_RAT})i$")
_RE_IMAG = re.compile(rf"^(?P<im>[+-]?{_RAT})i$")
_RE_REAL = re.compile(rf"^(?P<re>[+-]?{_RAT})$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a Gaussian-rational literal.  Inverse of format_gaussian."""
    s = text.strip().replace(" ", "")
    m = _RE_COMPLEX.match(s)
    if m:
        return GaussianRational(_parse_rat(m["re"]), _parse_rat(m["im"]))
    m = _RE_IMAG.match(s)
    if m:
        return GaussianRational(0, _parse_rat(m["im"]))
    m = _RE_REAL.match(s)
    if m:
        return GaussianRational(_parse_rat(m["re"]), 0)
    raise ValueError(f"malformed Gaussian-rational literal: {text!r}")


def _parse_rat(tok: str):
    if "/" in tok:
        num, den = tok.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in literal: {tok!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
