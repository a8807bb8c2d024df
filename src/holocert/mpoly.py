"""Sparse polynomials over Q(i) in the four variables of the normal form.

The variables are fixed, VARS = (w, b2, b1, b0): the line coordinate and
the three normal-form parameters, in the elimination order beta2, beta1,
beta0.  A polynomial is stored as integer Gaussian numerators over one
common denominator,

    p = (1/den) * sum (re + im*i) * w^a b2^b b1^c b0^d,    num = {key: (re, im)},

with re, im and den plain ints.  Each monomial is one int key: a _BITS
wide field per variable, w highest and b0 lowest, and above them the
total degree a + b + c + d,

    key = (a+b+c+d) << 4*_BITS | a << 3*_BITS | b << 2*_BITS | c << _BITS | d.

Comparing keys as ints therefore compares total degree first and then
the exponents of w, b2, b1, b0 in turn: int order is graded-lex order,
the order terms print in and exact_div reduces by.  The key of a product
of monomials is the sum of their keys, so a product term costs one
integer addition and four integer multiplies.  That holds while no field
carries into the next; each field is at most the total degree, so a
product whose total degree reaches 2**_BITS is refused with MPolyError
instead of wrapping, as is any variable outside VARS.

The form is canonical: den > 0, the gcd of den and every re and im is
1, and no stored term is zero.  Equal polynomials therefore have equal
fields and equal hashes.  Ring operations work on the ints and divide
out the content gcd once per result.  Powers square only up to the last
bit.  Constants replace several variables in one pass over the keys
(substitute_values), and a polynomial in one variable converts to
floats straight off the ints (float_coeffs_in).  A product by an int or
a GaussianRational scales the terms, and poly_from_coeffs shifts each
coefficient's keys by its power.  Constructors take
GaussianRational coefficients; ``vars`` is the variables that occur, in
VARS order, and ``terms`` a read-only {exponents over vars:
GaussianRational} in printing order, both built on each access.

Resultants follow the subresultant polynomial remainder sequence: at
most min(deg f, deg g) pseudo-remainder steps on the coefficient lists
in the eliminated variable, each remainder divided exactly by the
factor the sequence predicts.  The sequence runs on the integer
numerators den(f) f and den(g) g, so every polynomial in it has
denominator 1 and no content gcd runs on its growing Gaussian integers;
the resultant is divided once by den(f)^deg g den(g)^deg f at the end.
Exact division is leading-term reduction in graded-lex order.  Both are
exact, with no rounding.  The Sylvester determinant by fraction-free
Bareiss elimination over Z[i] (bareiss_det, sylvester) gives the same
resultant in O((deg f + deg g)^3) entry updates; the tests hold
resultant to it.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .gaussian import GaussianRational, GaussianRationalError, power

VARS = ("w", "b2", "b1", "b0")
_BITS = 32  # a degree below 2**32 fits a field, far beyond any product the certificate forms
_MASK = (1 << _BITS) - 1
_SHIFT = {v: _BITS * (len(VARS) - 1 - i) for i, v in enumerate(VARS)}
_DEG = _BITS * len(VARS)  # the total-degree field
_OVERFLOW = 1 << (_DEG + _BITS)  # the least key whose total degree fills a field


class MPolyError(ArithmeticError):
    pass


class ExactDivisionError(MPolyError):
    """Raised when exact_div meets a nonzero remainder (carried along)."""

    def __init__(self, message: str, remainder: "MPoly"):
        super().__init__(message)
        self.remainder = remainder


def _shift(var: str) -> int:
    if var not in _SHIFT:
        raise MPolyError(f"unknown variable {var!r}; the variables are {VARS}")
    return _SHIFT[var]


class MPoly:
    """Immutable sparse polynomial in the canonical form of the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, GaussianRational]):
        shifts = [_shift(v) for v in vars]
        parts = []
        for e, c in terms.items():
            deg = sum(e)
            if min(e, default=0) < 0 or deg >> _BITS:
                raise MPolyError(f"exponents {e} out of range")
            parts.append((sum(k << s for s, k in zip(shifts, e)) + (deg << _DEG), _parts(_as_gq(c))))
        den = lcm(*(d for _, (_, _, d) in parts))
        num = {k: (re * (den // d), im * (den // d)) for k, (re, im, d) in parts if re or im}
        _init(self, *_content(num, den))

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @property
    def vars(self) -> tuple[str, ...]:
        """The variables that occur in some term, in VARS order."""
        used = reduce(or_, self.num, 0)
        return tuple(v for v in VARS if used >> _SHIFT[v] & _MASK)

    @property
    def terms(self) -> Mapping[tuple, GaussianRational]:
        """Read-only {exponents over vars: GaussianRational} in graded-lex order,
        highest first, built on each access and not kept."""
        shifts = [_SHIFT[v] for v in self.vars]
        den = self.den
        return MappingProxyType(
            {
                tuple(k >> s & _MASK for s in shifts): GaussianRational.from_integers(re, im, den)
                for k, (re, im) in sorted(self.num.items(), reverse=True)
            }
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        re, im, den = _parts(_as_gq(c))
        return _raw({0: (re, im)} if re or im else {}, den)

    @staticmethod
    def var(name: str) -> "MPoly":
        return _raw({(1 << _shift(name)) + (1 << _DEG): (1, 0)}, 1)

    @staticmethod
    def zero() -> "MPoly":
        return _raw({}, 1)

    @staticmethod
    def one() -> "MPoly":
        return _raw({0: (1, 0)}, 1)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(self.num)

    def constant_term(self) -> GaussianRational:
        re, im = self.num.get(0, (0, 0))
        return GaussianRational.from_integers(re, im, self.den)

    def as_constant(self) -> GaussianRational:
        if not self.is_constant():
            raise MPolyError(f"not a constant polynomial: {self}")
        return self.constant_term()

    def total_degree(self) -> int:
        return max(self.num) >> _DEG if self.num else -1

    def degree(self, var: str) -> int:
        """Degree in var; -1 for the zero poly."""
        s = _shift(var)
        return max((k >> s & _MASK for k in self.num), default=-1)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        if self.is_constant():  # a constant equals its GaussianRational, so it hashes as that
            return hash(self.constant_term())
        return hash((self.den, frozenset(self.num.items())))

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(_times(self.num, -1), self.den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _add(o, self, -1)

    def __mul__(self, other):
        if type(other) is int:  # a scalar scales the terms, with no constant MPoly built
            return _scale(self, other, 0, 1)
        if isinstance(other, GaussianRational):
            return _scale(self, *_parts(other))
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant():
            return _scale(self, *o.num.get(0, (0, 0)), o.den)
        if self.is_constant():
            return _scale(o, *self.num.get(0, (0, 0)), self.den)
        top = max(self.num) + max(o.num)
        if top >= _OVERFLOW:
            raise MPolyError(f"a product of total degree {top >> _DEG} overflows the {_BITS}-bit exponent fields")
        acc: dict[int, tuple[int, int]] = {}
        get = acc.get
        b = list(o.num.items())
        for k1, (ar, ai) in self.num.items():
            for k2, (br, bi) in b:
                k = k1 + k2
                t = get(k)
                if t is None:
                    acc[k] = (ar * br - ai * bi, ar * bi + ai * br)
                else:
                    acc[k] = (t[0] + ar * br - ai * bi, t[1] + ar * bi + ai * br)
        return _make({k: c for k, c in acc.items() if c[0] or c[1]}, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar only."""
        c = GaussianRational._coerce(other)
        if c is None:
            return NotImplemented
        re, im, den = _parts(c)
        norm = re * re + im * im
        if norm == 0:
            raise GaussianRationalError("division by zero in Q(i)")
        # 1 / ((re + im*i) / den) = den * (re - im*i) / norm
        return _scale(self, den * re, -den * im, norm)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise MPolyError("polynomial power wants a nonnegative integer")
        return power(self, n, MPoly.one())

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        s = _shift(var)
        step = (1 << s) + (1 << _DEG)
        num = {}
        for key, (re, im) in self.num.items():
            k = key >> s & _MASK
            if k:
                num[key - step] = (re * k, im * k)
        return _make(num, self.den)

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Coefficients [c0, c1, ...] of powers of var, as polynomials in the rest."""
        s = _shift(var)
        step = (1 << s) + (1 << _DEG)
        buckets: list[dict] = [{} for _ in range(self.degree(var) + 1)]
        for key, c in self.num.items():
            k = key >> s & _MASK
            buckets[k][key - k * step] = c
        return [_make(b, self.den) for b in buckets]

    def float_coeffs_in(self, var: str) -> list[complex]:
        """Coefficients [c0, c1, ...] of powers of var as complex floats, for a
        polynomial in var alone.  Each part is its integer over den by int
        true division, which rounds correctly: float(Fraction(re, den)) bit
        for bit, without the fractions.  MPolyError if another variable occurs."""
        s = _shift(var)
        step = (1 << s) + (1 << _DEG)
        out = [0j] * (self.degree(var) + 1)
        for key, (re, im) in self.num.items():
            k = key >> s & _MASK
            if key != k * step:
                raise MPolyError(f"not a polynomial in {var} alone: {self}")
            out[k] = complex(re / self.den, im / self.den)
        return out

    def substitute(self, var: str, value: "MPoly | GaussianRational | int") -> "MPoly":
        """Replace var by a polynomial (or constant), exactly."""
        g = _coerce(value)
        if g is None:
            raise MPolyError(f"cannot substitute value of type {type(value)!r}")
        cs = self.coeffs_in(var)
        if not cs:
            return MPoly.zero()
        out = cs[-1]
        for c in reversed(cs[:-1]):
            out = out * g + c
        return out

    def substitute_values(self, bindings: Mapping[str, GaussianRational | int]) -> "MPoly":
        """Replace each variable of bindings by its constant, exactly, in one
        pass over the terms.  The values are taken over one common
        denominator D, v = n / D; a term of degree e in the bound variables
        gets the product of the powers of their n, times D^(top - e) for
        the greatest such degree top, and the sum is divided by D^top."""
        shifts = [_shift(v) for v in bindings]
        values = [_parts(_as_gq(c)) for c in bindings.values()]
        D = lcm(*(den for *_, den in values))
        mask = sum(_MASK << s for s in shifts)  # the bound variables' fields of a key
        # each monomial in the bound variables, by its fields: its exponents and degree
        monomials = {}
        for m in {key & mask for key in self.num}:
            exps = [m >> s & _MASK for s in shifts]
            monomials[m] = (exps, sum(exps))
        top = max((e for _, e in monomials.values()), default=0)
        powers = []  # powers[j][k] = n_j^k
        for j, (re, im, den) in enumerate(values):
            re, im = re * (D // den), im * (D // den)
            table = [(1, 0)]
            for _ in range(max((exps[j] for exps, _ in monomials.values()), default=0)):
                a, b = table[-1]
                table.append((a * re - b * im, a * im + b * re))
            powers.append(table)
        factors = {}  # bound fields -> (the product of the powers times D^(top - e), e in the degree field)
        for m, (exps, e) in monomials.items():
            fr, fi = D ** (top - e), 0
            for table, k in zip(powers, exps):
                a, b = table[k]
                fr, fi = fr * a - fi * b, fr * b + fi * a
            factors[m] = (fr, fi, e << _DEG)
        acc: dict[int, tuple[int, int]] = {}
        get = acc.get
        for key, (cr, ci) in self.num.items():
            m = key & mask
            fr, fi, degree = factors[m]
            rest = key - m - degree
            t = get(rest)
            if t is None:
                acc[rest] = (cr * fr - ci * fi, cr * fi + ci * fr)
            else:
                acc[rest] = (t[0] + cr * fr - ci * fi, t[1] + cr * fi + ci * fr)
        return _make({k: c for k, c in acc.items() if c[0] or c[1]}, self.den * D**top)

    def evaluate(self, bindings: Mapping[str, GaussianRational]) -> GaussianRational:
        """Full evaluation; every variable of the polynomial must be bound."""
        missing = [v for v in self.vars if v not in bindings]
        if missing:
            raise MPolyError(f"evaluation missing bindings for {missing}")
        return self.substitute_values({v: bindings[v] for v in self.vars}).as_constant()

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms.items():
            factors = [f"({c})"]
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


# -- the integer form ------------------------------------------------------------


def _raw(num: dict, den: int) -> MPoly:
    """An MPoly from fields that are already canonical."""
    p = MPoly.__new__(MPoly)
    _init(p, num, den)
    return p


def _init(p: MPoly, num: dict, den: int) -> None:
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)


def _content(num: dict, den: int) -> tuple[dict, int]:
    """num and den divided by the gcd of den and every re and im."""
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            num = {e: (re // g, im // g) for e, (re, im) in num.items()}
            den //= g
    return num, den


def _make(num: dict, den: int) -> MPoly:
    """An MPoly from a num free of zero terms, with the content divided out."""
    return _raw(*_content(num, den))


def _parts(c: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) with c = (re + im*i) / den and gcd(re, im, den) = 1."""
    dr, di = int(c.re.denominator), int(c.im.denominator)
    den = lcm(dr, di)
    return int(c.re.numerator) * (den // dr), int(c.im.numerator) * (den // di), den


def _times(num: dict, t: int) -> dict:
    return {e: (re * t, im * t) for e, (re, im) in num.items()}


def _add(a: MPoly, b: MPoly, sign: int) -> MPoly:
    """a + sign * b for sign = +1 or -1."""
    if not b.num:
        return a
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    num = dict(a.num) if sa == 1 else _times(a.num, sa)
    for e, (re, im) in b.num.items():
        t = num.get(e)
        if t is None:
            num[e] = (re * sb, im * sb)
        else:
            re, im = t[0] + re * sb, t[1] + im * sb
            if re or im:
                num[e] = (re, im)
            else:
                del num[e]
    return _make(num, a.den * sa)


def _scale(p: MPoly, re: int, im: int, den: int) -> MPoly:
    """p * (re + im*i) / den, for den > 0."""
    if not (re or im):
        return MPoly.zero()
    if im == 0:
        num = _times(p.num, re)
    else:
        num = {e: (a * re - b * im, a * im + b * re) for e, (a, b) in p.num.items()}
    return _make(num, p.den * den)


def _as_gq(c) -> GaussianRational:
    g = GaussianRational._coerce(c)
    if g is None:
        raise MPolyError(f"cannot use {type(c)!r} as a coefficient")
    return g


def _coerce(x) -> MPoly | None:
    if isinstance(x, MPoly):
        return x
    if type(x) is int:
        return _raw({0: (x, 0)} if x else {}, 1)
    g = GaussianRational._coerce(x)
    if g is not None:
        return MPoly.const(g)
    return None


# -- exact division ----------------------------------------------------------


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact quotient f/g; raises ExactDivisionError carrying the remainder.

    Standard single-divisor reduction in graded-lex order on the integer
    numerators F = f*den(f) and G = g*den(g): the remainder is zero
    exactly when g divides f.  Each step divides a leading coefficient by
    lc(G) in Z[i]; when that division is not exact, the running state
    (D, Q, C with D*F = Q*G + C) is first multiplied by the missing
    factor.  By Gauss's lemma this never happens when G is primitive
    over Z[i] and g divides f.
    """
    f = _coerce(f)
    g = _coerce(g)
    if g is None or f is None:
        raise MPolyError("exact_div wants polynomials")
    if g.is_zero():
        raise MPolyError("exact division by the zero polynomial")
    if g.is_constant():
        return f / g.as_constant()
    cur = dict(f.num)
    lt = max(g.num)
    lr, li = g.num[lt]
    norm = lr * lr + li * li
    lt_exps = [(s, k) for s in _SHIFT.values() if (k := lt >> s & _MASK)]
    rest = [(e, c) for e, c in g.num.items() if e != lt]
    scale = 1
    quo: dict[int, tuple[int, int]] = {}
    rem: dict[int, tuple[int, int]] = {}
    while cur:
        e = max(cur)
        cr, ci = cur.pop(e)
        if any(e >> s & _MASK < k for s, k in lt_exps):
            rem[e] = (cr, ci)
            continue
        # c / lc = c * conj(lc) / norm
        pr, pi = cr * lr + ci * li, ci * lr - cr * li
        t = norm // gcd(norm, pr, pi)
        if t != 1:
            scale *= t
            pr, pi = pr * t, pi * t
            cur, quo, rem = _times(cur, t), _times(quo, t), _times(rem, t)
        qr, qi = pr // norm, pi // norm
        qe = e - lt  # lt divides e, so no field borrows
        quo[qe] = (qr, qi)
        for be, (br, bi) in rest:  # the leading term cancels by construction
            ne = qe + be
            sr, si = qr * br - qi * bi, qr * bi + qi * br
            old = cur.get(ne)
            if old is None:
                cur[ne] = (-sr, -si)
            elif old[0] != sr or old[1] != si:
                cur[ne] = (old[0] - sr, old[1] - si)
            else:
                del cur[ne]
    if rem:
        r = _make(rem, f.den * scale)
        raise ExactDivisionError(f"nonzero remainder in exact division: {r}", r)
    # f / g = (F / G) * den(g) / den(f) = Q * den(g) / (den(f) * D)
    return _make(_times(quo, g.den), f.den * scale)


# -- determinants and resultants ---------------------------------------------


def bareiss_det(rows: list[list[MPoly]]) -> MPoly:
    """Fraction-free Bareiss determinant of a square MPoly matrix.

    Each row is first multiplied by the lcm of its denominators, so the
    elimination runs over Z[i][vars], where every Bareiss division is
    exact; the determinant is divided by those factors at the end.
    """
    n = len(rows)
    if n == 0:
        return MPoly.one()
    m = [[_coerce(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise MPolyError("bareiss_det wants a square matrix")
    scale = 1
    for i, row in enumerate(m):
        d = lcm(*(x.den for x in row))
        if d != 1:
            m[i] = [x * d for x in row]
            scale *= d
    sign = 1
    prev = MPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = MPoly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] / (sign * scale)


def sylvester(f: MPoly, g: MPoly, var: str) -> list[list[MPoly]]:
    n = f.degree(var)
    m = g.degree(var)
    fc = f.coeffs_in(var)  # ascending
    gc = g.coeffs_in(var)
    size = n + m
    rows = []
    for i in range(m):
        row = [MPoly.zero()] * size
        for k in range(n + 1):
            row[i + k] = fc[n - k]
        rows.append(row)
    for i in range(n):
        row = [MPoly.zero()] * size
        for k in range(m + 1):
            row[i + k] = gc[m - k]
        rows.append(row)
    return rows


def _prem(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b on ascending coefficient lists.

    deg a >= deg b >= 1; the result has no zero leading coefficient and is
    [] for a zero remainder.
    """
    lb, n = b[-1], len(b) - 1
    r, e = list(a), len(a) - n
    while len(r) > n:
        c, shift = r.pop(), len(r) - n
        r = [lb * x for x in r]
        for k in range(n):
            r[shift + k] -= c * b[k]
        e -= 1
        while r and r[-1].is_zero():
            r.pop()
    if e:
        t = lb**e
        r = [t * x for x in r]
    return r


def resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Classical resultant with respect to var, as a polynomial in the rest.

    Degrees are read off the stored terms, so identically-zero leading
    coefficients have already been stripped.  If exactly one argument is
    constant in var the convention Res(c, g) = c^deg(g) applies; two
    constants are an error.  Otherwise the resultant is the last term of
    the subresultant polynomial remainder sequence (Collins 1967; Brown and
    Traub 1971), run on the coefficient lists in var as in Cohen, "A Course
    in Computational Algebraic Number Theory", Algorithm 3.3.7, without its
    content step.  Every division in it is exact and goes through
    exact_div; it equals the Sylvester determinant det(sylvester(f, g, var)).
    """
    f = _coerce(f)
    g = _coerce(g)
    n = f.degree(var)
    m = g.degree(var)
    if n <= 0 and m <= 0:
        raise MPolyError(
            f"resultant in {var!r} needs positive degree in at least one argument "
            f"(degrees {n}, {m} after stripping)"
        )
    if n <= 0:
        if f.is_zero():
            return MPoly.zero()
        return f**m
    if m <= 0:
        if g.is_zero():
            return MPoly.zero()
        return g**n
    # Res(f, g) = Res(F, G) / (den(f)^m den(g)^n) for the integer numerators
    # F = den(f) f and G = den(g) g: the sequence on them stays in Z[i][vars]
    scale = f.den**m * g.den**n
    a, b = _raw(f.num, 1).coeffs_in(var), _raw(g.num, 1).coeffs_in(var)
    s = 1
    if n < m:  # Res(f, g) = (-1)^(deg f * deg g) Res(g, f)
        a, b = b, a
        s = -1 if n * m % 2 else 1
    lead = h = MPoly.one()  # Cohen's g and h
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da * db % 2:
            s = -s
        r = _prem(a, b)
        if not r:
            return MPoly.zero()
        d = lead * h**delta
        a, b = b, [exact_div(x, d) for x in r]
        lead = a[-1]
        h = exact_div(lead**delta, h ** (delta - 1)) if delta else h
    # b is a nonzero constant in var, the last subresultant's leading coefficient
    da = len(a) - 1
    res = exact_div(b[0] ** da, h ** (da - 1))
    return _make(_times(res.num, s), res.den * scale)


def poly_from_coeffs(var: str, coeffs: Iterable) -> MPoly:
    """The polynomial sum coeffs[k] var^k, for coefficients free of var: each
    coefficient's keys shifted by k in var, over one common denominator.
    MPolyError for a coefficient in var, which the shift would alias."""
    s = _shift(var)
    step = (1 << s) + (1 << _DEG)
    cs = []
    for c in coeffs:
        p = _coerce(c)
        if p is None:
            raise MPolyError(f"cannot use {type(c)!r} as a coefficient")
        if p.degree(var) > 0:
            raise MPolyError(f"a coefficient in {var} itself: {p}")
        cs.append(p)
    if max((max(p.num) + k * step for k, p in enumerate(cs) if p.num), default=0) >= _OVERFLOW:
        raise MPolyError(f"a polynomial of degree {len(cs) - 1} in {var} overflows the {_BITS}-bit exponent fields")
    den = lcm(*(p.den for p in cs))
    num = {}
    for k, p in enumerate(cs):
        t = den // p.den
        num.update({key + k * step: (re * t, im * t) for key, (re, im) in p.num.items()})
    return _make(num, den)
