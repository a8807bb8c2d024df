"""Sparse multivariate polynomials over Q(i).

A polynomial is stored as integer Gaussian numerators over one common
denominator,

    p = (1/den) * sum (re + im*i) * vars^exps,    num = {exps: (re, im)},

with re, im and den plain ints.  The form is canonical: den > 0, the gcd
of den and every re and im is 1, no stored term is zero, every variable
in ``vars`` occurs in some term, and ``vars`` follows the canonical order
w < b2 < b1 < b0 (then any other name alphabetically), matching the
elimination order beta2, beta1, beta0.  Equal polynomials therefore have
equal fields and equal hashes.  Ring operations work on the ints and
bring each result to the canonical form once.  Sums, derivatives and
coefficient extraction divide out the content gcd and then drop the
variables no term uses.  A product skips that second pass: Z[i] has no
zero divisors, so a product of nonzero factors, or a nonzero scaling,
has a term in every variable of either factor, and only the content
gcd is divided out.  A product packs each exponent vector into one int
and unpacks the sums once; a coefficient product costs four integer
multiplies and no gcd at all.  Powers square only up to the last bit.
Constructors take GaussianRational coefficients, and ``terms`` returns
a read-only {exps: GaussianRational} built on each access.

Terms are printed and compared in graded-lexicographic order.
Resultants are Sylvester determinants by fraction-free Bareiss
elimination over Z[i] (each row is cleared of its denominator first),
and exact division is leading-term reduction in graded-lex order; both
are exact, with no rounding.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .gaussian import GaussianRational, GaussianRationalError, power

_CANONICAL_RANK = {"w": 0, "b2": 1, "b1": 2, "b0": 3}


def _var_key(name: str):
    return (_CANONICAL_RANK.get(name, 4), name)


class MPolyError(ArithmeticError):
    pass


class ExactDivisionError(MPolyError):
    """Raised when exact_div meets a nonzero remainder (carried along)."""

    def __init__(self, message: str, remainder: "MPoly"):
        super().__init__(message)
        self.remainder = remainder


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MPoly:
    """Immutable sparse polynomial in the canonical form of the module docstring."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, GaussianRational]):
        vars = tuple(vars)
        parts = [(e, _parts(_as_gq(c))) for e, c in terms.items()]
        den = lcm(*(d for _, (_, _, d) in parts))
        num = {e: (re * (den // d), im * (den // d)) for e, (re, im, d) in parts if re or im}
        order = sorted(range(len(vars)), key=lambda i: _var_key(vars[i]))
        if order != list(range(len(vars))):
            vars = tuple(vars[i] for i in order)
            num = {tuple(e[i] for i in order): c for e, c in num.items()}
        _init(self, *_canonical(vars, num, den))

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple, GaussianRational]:
        """Read-only {exps: GaussianRational}, built on each access and not kept."""
        den = self.den
        return MappingProxyType({e: GaussianRational.from_integers(re, im, den) for e, (re, im) in self.num.items()})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        re, im, den = _parts(_as_gq(c))
        return _raw((), {(): (re, im)} if re or im else {}, den)

    @staticmethod
    def var(name: str) -> "MPoly":
        return _raw((name,), {(1,): (1, 0)}, 1)

    @staticmethod
    def zero() -> "MPoly":
        return _raw((), {}, 1)

    @staticmethod
    def one() -> "MPoly":
        return _raw((), {(): (1, 0)}, 1)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not self.vars

    def constant_term(self) -> GaussianRational:
        re, im = self.num.get((0,) * len(self.vars), (0, 0))
        return GaussianRational.from_integers(re, im, self.den)

    def as_constant(self) -> GaussianRational:
        if not self.is_constant():
            raise MPolyError(f"not a constant polynomial: {self}")
        return self.constant_term()

    def total_degree(self) -> int:
        return max(map(sum, self.num), default=-1)

    def degree(self, var: str) -> int:
        """Degree in var; -1 for the zero poly."""
        if var not in self.vars:
            return 0 if self.num else -1
        i = self.vars.index(var)
        return max(e[i] for e in self.num)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.vars == o.vars and self.num == o.num

    def __hash__(self):
        if not self.vars:  # a constant equals its GaussianRational, so it hashes as that
            return hash(self.constant_term())
        return hash((self.vars, self.den, frozenset(self.num.items())))

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
        return _raw(self.vars, _times(self.num, -1), self.den)

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
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o.vars or not self.vars:
            p, c = (self, o) if not o.vars else (o, self)
            re, im = c.num.get((), (0, 0))
            return _scale(p, re, im, c.den)
        vars, a, b = _align(self, o)
        # pack each exponent vector into one int, `shift` bits per variable:
        # no component of a product exceeds the sum of the total degrees
        shift = (self.total_degree() + o.total_degree()).bit_length()
        acc: dict[int, tuple[int, int]] = {}
        get = acc.get
        pb = [(_pack(e, shift), c) for e, c in b.items()]
        for e1, (ar, ai) in a.items():
            k1 = _pack(e1, shift)
            for k2, (br, bi) in pb:
                k = k1 + k2
                t = get(k)
                if t is None:
                    acc[k] = (ar * br - ai * bi, ar * bi + ai * br)
                else:
                    acc[k] = (t[0] + ar * br - ai * bi, t[1] + ar * bi + ai * br)
        unpack = _unpacker(len(vars), shift)
        num = {unpack(k): c for k, c in acc.items() if c[0] or c[1]}
        # Z[i] has no zero divisors: a product of nonzero factors has a term
        # in every variable of either, so only the content can be divided out
        return _raw(vars, *_content(num, self.den * o.den))

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
        if var not in self.vars:
            return MPoly.zero()
        i = self.vars.index(var)
        num = {}
        for e, (re, im) in self.num.items():
            k = e[i]
            if k:
                num[e[:i] + (k - 1,) + e[i + 1 :]] = (re * k, im * k)
        return _make(self.vars, num, self.den)

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Coefficients [c0, c1, ...] of powers of var, as polynomials in the rest."""
        n = self.degree(var)
        if n < 0:
            return []
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        buckets: list[dict] = [{} for _ in range(n + 1)]
        for e, c in self.num.items():
            buckets[e[i]][e[:i] + e[i + 1 :]] = c
        return [_make(rest, b, self.den) for b in buckets]

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

    def evaluate(self, bindings: Mapping[str, GaussianRational]) -> GaussianRational:
        """Full evaluation; every variable of the polynomial must be bound."""
        missing = [v for v in self.vars if v not in bindings]
        if missing:
            raise MPolyError(f"evaluation missing bindings for {missing}")
        p = self
        for v in self.vars:
            p = p.substitute(v, bindings[v])
        return p.as_constant()

    # -- printing -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda ec: _grlex_key(ec[0]), reverse=True)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
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


def _raw(vars: tuple, num: dict, den: int) -> MPoly:
    """An MPoly from fields that are already canonical."""
    p = MPoly.__new__(MPoly)
    _init(p, vars, num, den)
    return p


def _init(p: MPoly, vars: tuple, num: dict, den: int) -> None:
    object.__setattr__(p, "vars", vars)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)


def _canonical(vars: tuple, num: dict, den: int) -> tuple[tuple, dict, int]:
    """Divide out the content gcd and drop unused variables.

    ``vars`` must be in canonical order and ``num`` free of zero terms.
    """
    if not num:
        return (), num, 1
    num, den = _content(num, den)
    if vars:
        used = [any(col) for col in zip(*num)]
        if not all(used):
            keep = [i for i, u in enumerate(used) if u]
            vars = tuple(vars[i] for i in keep)
            num = {tuple(e[i] for i in keep): c for e, c in num.items()}
    return vars, num, den


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


def _make(vars: tuple, num: dict, den: int) -> MPoly:
    return _raw(*_canonical(vars, num, den))


def _parts(c: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) with c = (re + im*i) / den and gcd(re, im, den) = 1."""
    dr, di = int(c.re.denominator), int(c.im.denominator)
    den = lcm(dr, di)
    return int(c.re.numerator) * (den // dr), int(c.im.numerator) * (den // di), den


def _times(num: dict, t: int) -> dict:
    return {e: (re * t, im * t) for e, (re, im) in num.items()}


def _pack(exps: tuple, shift: int) -> int:
    k = 0
    for x in reversed(exps):
        k = (k << shift) | x
    return k


def _unpacker(n: int, shift: int):
    """The inverse of _pack for n variables: the top field needs no mask."""
    m = (1 << shift) - 1
    s2, s3 = 2 * shift, 3 * shift
    if n == 1:
        return lambda k: (k,)
    if n == 2:
        return lambda k: (k & m, k >> shift)
    if n == 3:
        return lambda k: (k & m, (k >> shift) & m, k >> s2)
    if n == 4:
        return lambda k: (k & m, (k >> shift) & m, (k >> s2) & m, k >> s3)
    return lambda k: tuple((k >> (shift * i)) & m for i in range(n))


def _add(a: MPoly, b: MPoly, sign: int) -> MPoly:
    """a + sign * b for sign = +1 or -1."""
    if not b.num:
        return a
    vars, an, bn = _align(a, b)
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    num = dict(an) if sa == 1 else _times(an, sa)
    for e, (re, im) in bn.items():
        t = num.get(e)
        if t is None:
            num[e] = (re * sb, im * sb)
        else:
            re, im = t[0] + re * sb, t[1] + im * sb
            if re or im:
                num[e] = (re, im)
            else:
                del num[e]
    return _make(vars, num, a.den * sa)


def _scale(p: MPoly, re: int, im: int, den: int) -> MPoly:
    """p * (re + im*i) / den, for den > 0."""
    if not (re or im):
        return MPoly.zero()
    if im == 0:
        num = _times(p.num, re)
    else:
        num = {e: (a * re - b * im, a * im + b * re) for e, (a, b) in p.num.items()}
    # a nonzero scalar keeps every term nonzero, so every variable stays
    return _raw(p.vars, *_content(num, p.den * den))


def _as_gq(c) -> GaussianRational:
    g = GaussianRational._coerce(c)
    if g is None:
        raise MPolyError(f"cannot use {type(c)!r} as a coefficient")
    return g


def _coerce(x) -> MPoly | None:
    if isinstance(x, MPoly):
        return x
    if type(x) is int:
        return _raw((), {(): (x, 0)} if x else {}, 1)
    g = GaussianRational._coerce(x)
    if g is not None:
        return MPoly.const(g)
    return None


def _align(a: MPoly, b: MPoly) -> tuple[tuple, dict, dict]:
    """The numerators of a and b over the union of their variables (canonical order)."""
    if a.vars == b.vars:
        return a.vars, a.num, b.num
    union = tuple(sorted(set(a.vars) | set(b.vars), key=_var_key))
    return union, _extend(a, union), _extend(b, union)


def _extend(p: MPoly, union: tuple[str, ...]) -> dict:
    if p.vars == union:
        return p.num
    pos = [union.index(v) for v in p.vars]
    num = {}
    for e, c in p.num.items():
        e2 = [0] * len(union)
        for i, k in zip(pos, e):
            e2[i] = k
        num[tuple(e2)] = c
    return num


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
    vars, cur, gnum = _align(f, g)
    cur = dict(cur)
    lt_e = max(gnum, key=_grlex_key)
    lr, li = gnum[lt_e]
    norm = lr * lr + li * li
    rest = [(e, c) for e, c in gnum.items() if e != lt_e]
    scale = 1
    quo: dict[tuple, tuple[int, int]] = {}
    rem: dict[tuple, tuple[int, int]] = {}
    while cur:
        e = max(cur, key=_grlex_key)
        cr, ci = cur.pop(e)
        if not all(x >= y for x, y in zip(e, lt_e)):
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
        qe = tuple(x - y for x, y in zip(e, lt_e))
        quo[qe] = (qr, qi)
        for be, (br, bi) in rest:  # the leading term cancels by construction
            ne = tuple(x + y for x, y in zip(qe, be))
            sr, si = qr * br - qi * bi, qr * bi + qi * br
            old = cur.get(ne)
            if old is None:
                cur[ne] = (-sr, -si)
            elif old[0] != sr or old[1] != si:
                cur[ne] = (old[0] - sr, old[1] - si)
            else:
                del cur[ne]
    if rem:
        r = _make(vars, rem, f.den * scale)
        raise ExactDivisionError(f"nonzero remainder in exact division: {r}", r)
    # f / g = (F / G) * den(g) / den(f) = Q * den(g) / (den(f) * D)
    return _make(vars, _times(quo, g.den), f.den * scale)


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


def resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Classical resultant with respect to var, as a polynomial in the rest.

    Degrees are read off the stored terms, so identically-zero leading
    coefficients have already been stripped.  If exactly one argument is
    constant in var the convention Res(c, g) = c^deg(g) applies; two
    constants are an error.
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
    return bareiss_det(sylvester(f, g, var))


def poly_from_coeffs(var: str, coeffs: Iterable) -> MPoly:
    """Univariate helper: coeffs are ascending powers of var."""
    x = MPoly.var(var)
    out = MPoly.zero()
    for k, c in enumerate(coeffs):
        out = out + _coerce(c) * x**k
    return out
