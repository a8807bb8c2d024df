from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from holocert import mpoly
from holocert.gaussian import GaussianRational as gq
from holocert.mpoly import (
    ExactDivisionError,
    MPoly,
    VARS,
    MPolyError,
    _BITS,
    bareiss_det,
    exact_div,
    poly_from_coeffs,
    resultant,
    sylvester,
)

from conftest import small_gq, term_dicts

W = MPoly.var("w")
B0 = MPoly.var("b0")
B1 = MPoly.var("b1")


@st.composite
def polys(draw, vars=("w", "b1"), max_terms=4, max_exp=3):
    n = draw(st.integers(0, max_terms))
    p = MPoly.zero()
    for _ in range(n):
        c = draw(small_gq)
        exps = [draw(st.integers(0, max_exp)) for _ in vars]
        mono = MPoly.one()
        for v, e in zip(vars, exps):
            mono = mono * MPoly.var(v) ** e
        p = p + c * mono
    return p


points = st.fixed_dictionaries({v: small_gq for v in ("w", "b1", "b0")})


def reference_value(vars, terms, point):
    """The value of sum c * prod v^k by GaussianRational arithmetic alone."""
    total = gq(0)
    for exps, c in terms.items():
        for v, k in zip(vars, exps):
            c = c * point[v] ** k
        total = total + c
    return total


def key(**exps):
    """The stored key of the monomial prod v^exps[v]: one field per variable
    of VARS, the first highest, under a field holding the total degree."""
    fields = [exps.get(v, 0) for v in VARS]
    return sum(k << _BITS * i for i, k in enumerate([*reversed(fields), sum(fields)]))


def assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *(x for c in p.num.values() for x in c)) == 1
    assert all(re or im for re, im in p.num.values())
    assert all(type(x) is int for c in p.num.values() for x in c) and type(p.den) is int
    assert list(p.vars) == [v for v in VARS if v in p.vars]
    assert all(any(e[i] for e in p.terms) for i in range(len(p.vars)))
    assert all(len(e) == len(p.vars) for e in p.terms)
    assert set(p.num) == {key(**dict(zip(p.vars, e))) for e in p.terms}


# -- the integer form ------------------------------------------------------------


def test_equal_polynomials_hash_alike():
    p = MPoly(("b0", "w"), {(1, 1): gq(1)})
    q = MPoly.var("w") * MPoly.var("b0")
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p.vars == ("w", "b0")


def test_equal_numbers_hash_alike_across_types():
    # a constant polynomial equals its constant, and a real Gaussian rational
    # its real part, so each hashes as the number it equals
    assert len({MPoly.one(), 1, gq(1)}) == 1
    for x in (gq(0), gq(-3), gq(Fraction(1, 2)), gq(2, -1)):
        c = MPoly.const(x)
        assert c == x and hash(c) == hash(x)
        if x.im == 0:
            assert x == x.re and hash(x) == hash(x.re)
    assert len({MPoly.zero(), 0, gq(0), Fraction(0)}) == 1


def test_constructor_clears_denominators():
    p = MPoly(("w",), {(2,): gq(Fraction(1, 2)), (0,): gq(0, Fraction(-1, 3)), (1,): gq(0)})
    assert (p.den, p.num) == (6, {key(w=2): (3, 0), key(): (0, -2)})
    assert dict(p.terms) == {(2,): gq(Fraction(1, 2)), (0,): gq(0, Fraction(-1, 3))}


@given(term_dicts(), term_dicts(), points)
@settings(max_examples=80, deadline=None)
def test_kernel_matches_reference_evaluation(f, g, point):
    fp, gp = MPoly(*f), MPoly(*g)
    fx, gx = reference_value(*f, point), reference_value(*g, point)
    assert fp.evaluate(point) == fx
    assert (fp * gp).evaluate(point) == fx * gx
    assert (fp + gp).evaluate(point) == fx + gx
    assert (fp - gp).evaluate(point) == fx - gx


@given(term_dicts(), term_dicts(), small_gq.filter(lambda c: not c.is_zero()))
@settings(max_examples=60, deadline=None)
def test_stored_form_is_canonical(f, g, c):
    fp, gp = MPoly(*f), MPoly(*g)
    results = [fp, fp * gp, fp + gp, fp - gp, -fp, fp * c, fp / c, fp**2, fp.derivative("b1")]
    results += fp.coeffs_in("w") + [fp.substitute("b0", gp)]
    if not gp.is_zero():
        results.append(exact_div(fp * gp, gp))
    for p in results:
        assert_canonical(p)


@given(term_dicts(names=("w",), max_exp=6))
@settings(max_examples=60, deadline=None)
def test_float_coefficients_round_as_the_fractions_do(f):
    # int true division rounds correctly, so each part is float(Fraction)
    p = MPoly(*f)
    want = [c.as_constant().to_complex() for c in p.coeffs_in("w")]
    got = p.float_coeffs_in("w")
    assert [(z.real, z.imag) for z in got] == [(z.real, z.imag) for z in want]
    with pytest.raises(MPolyError):
        (p * W + B1).float_coeffs_in("w")


@given(
    term_dicts(names=("w", "b1")),
    term_dicts(names=("b2", "b0")),
    small_gq.filter(lambda c: not c.is_zero()),
    st.fixed_dictionaries({v: small_gq for v in ("w", "b2", "b1", "b0")}),
)
@settings(max_examples=60, deadline=None)
def test_products_of_disjoint_or_constant_factors_are_canonical(f, g, c, point):
    # a product keeps every variable of its nonzero factors and only divides
    # out the content; here the factors share no variable, or one is constant
    fp, gp, cp = MPoly(*f), MPoly(*g), MPoly.const(c)
    for p in (fp * gp, gp * fp, fp * cp, cp * fp, c * fp, fp * c, cp * cp, fp * gp * cp):
        assert_canonical(p)
    both = tuple(v for v in VARS if v in fp.vars + gp.vars)
    assert (fp * gp).vars == (both if fp and gp else ())
    assert (fp * cp).vars == fp.vars
    fx, gx = reference_value(*f, point), reference_value(*g, point)
    assert (fp * gp).evaluate(point) == fx * gx
    assert (cp * fp).evaluate(point) == c * fx


def test_product_divides_out_the_content_and_keeps_the_variables():
    p = (W / 2 + gq(Fraction(1, 2))) * (2 * B0 + 2)
    assert (p.vars, p.den) == (("w", "b0"), 1)
    assert p.num == {key(w=1, b0=1): (1, 0), key(w=1): (1, 0), key(b0=1): (1, 0), key(): (1, 0)}
    q = MPoly.const(gq(0, 2)) * (W / 2)
    assert (q.vars, q.den, q.num) == (("w",), 1, {key(w=1): (0, 1)})
    for r in (p, q):
        assert_canonical(r)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("x", [W * B0 + gq(1, 2), gq(Fraction(2, 3), -1)], ids=["MPoly", "GaussianRational"])
def test_power_squares_no_further_than_the_last_bit(monkeypatch, x, n):
    # binary powering: bit_length(n) - 1 squarings and popcount(n) - 1 other
    # products, with no square past the last bit and no product by one
    cls = type(x)
    mul = cls.__mul__
    counts = {"square": 0, "other": 0}

    def counting(a, b):
        counts["square" if a is b else "other"] += 1
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    got = x**n
    monkeypatch.undo()
    assert counts == {"square": n.bit_length() - 1, "other": bin(n).count("1") - 1}
    want = x
    for _ in range(n - 1):
        want = want * x
    assert got == want
    assert x**0 == 1


@given(term_dicts())
@settings(max_examples=60, deadline=None)
def test_terms_view_round_trips(f):
    p = MPoly(*f)
    q = MPoly(p.vars, p.terms)
    assert q == p and hash(q) == hash(p)
    assert (q.vars, q.num, q.den) == (p.vars, p.num, p.den)
    assert dict(p.terms) == {tuple(e[f[0].index(v)] for v in p.vars): c for e, c in f[1].items() if c}


# -- basic ring behaviour ------------------------------------------------------


def test_derivative_power_rule():
    assert (W * W - 1).derivative("w") == 2 * W


def test_evaluate_at_point():
    assert (W * W - 1).evaluate({"w": gq(0)}) == gq(-1)


def test_substitute_then_evaluate():
    # b0^2 - a0^2 at a0 = 1, then b0 := 1 gives 0
    p = B0 * B0 - 1
    assert p.substitute("b0", gq(1)).as_constant() == gq(0)



@given(polys(vars=VARS, max_terms=6), st.dictionaries(st.sampled_from(VARS), small_gq, min_size=1))
@settings(max_examples=80, deadline=None)
def test_substituting_values_in_one_pass_is_substituting_them_one_by_one(p, bindings):
    want = p
    for var, value in bindings.items():
        want = want.substitute(var, value)
    got = p.substitute_values(bindings)
    assert (got.num, got.den) == (want.num, want.den)

def test_evaluate_missing_binding_errors():
    with pytest.raises(MPolyError):
        (W + B0).evaluate({"w": gq(1)})


def test_variable_order_is_canonical():
    p = MPoly.var("b0") + MPoly.var("w") + MPoly.var("b2")
    assert p.vars == ("w", "b2", "b0")


def test_printing_graded_lex():
    p = 2 * W + W * W - 1
    assert str(p) == "(1)*w^2 + (2)*w + (-1)"


@given(polys(vars=VARS))
@settings(max_examples=60, deadline=None)
def test_terms_print_by_total_degree_then_exponents_over_VARS(p):
    printed = []
    for part in str(p).split(" + ") if p else []:
        _, *factors = part.split("*")
        exps = dict.fromkeys(VARS, 0)
        for f in factors:
            v, _, k = f.partition("^")
            exps[v] = int(k or 1)
        printed.append(tuple(exps.values()))
    full = [tuple(dict(zip(p.vars, e)).get(v, 0) for v in VARS) for e in p.terms]
    assert printed == sorted(full, key=lambda e: (sum(e), e), reverse=True)


def test_a_product_past_the_exponent_fields_is_refused():
    top = (1 << _BITS) - 1
    assert (W**top).degree("w") == top
    with pytest.raises(MPolyError):
        W ** (1 << _BITS)
    with pytest.raises(MPolyError):
        MPoly(("w",), {(1 << _BITS,): gq(1)})


def test_poly_from_coeffs_shifts_coefficients_free_of_its_variable():
    # each coefficient's keys are shifted by its power of the variable, so
    # a coefficient in the variable itself would alias other terms: refused
    coeffs = [B0 + 1, gq(1, 2), 0, B1 * B0 / 3, gq(0, 2) * B1]
    assert poly_from_coeffs("w", coeffs) == sum((c * W**k for k, c in enumerate(coeffs)), MPoly.zero())
    assert poly_from_coeffs("w", []) == MPoly.zero()
    with pytest.raises(MPolyError):
        poly_from_coeffs("w", [1, W])
    with pytest.raises(MPolyError):
        poly_from_coeffs("b0", [B1, B0 * W])
    with pytest.raises(MPolyError):
        poly_from_coeffs("w", [0, B0 ** ((1 << _BITS) - 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: MPoly.var("x"),
        lambda: MPoly(("x",), {(1,): gq(1)}),
        lambda: W.degree("x"),
        lambda: W.derivative("x"),
        lambda: W.coeffs_in("x"),
        lambda: W.float_coeffs_in("x"),
    ],
    ids=["var", "constructor", "degree", "derivative", "coeffs_in", "float_coeffs_in"],
)
def test_a_variable_outside_VARS_is_refused(call):
    with pytest.raises(MPolyError):
        call()


def test_degree_bookkeeping():
    p = W**2 * B0 + W
    assert p.degree("w") == 2
    assert p.degree("b0") == 1
    assert p.total_degree() == 3
    assert MPoly.zero().degree("w") == -1
    assert MPoly.one().degree("w") == 0
    assert MPoly.zero().total_degree() == -1
    assert MPoly.one().total_degree() == 0


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_exact_div_roundtrip(q, g):
    if g.is_zero():
        return
    assert exact_div(q * g, g) == q


def test_exact_div_difference_of_squares():
    p = B0 * B0 - 1  # alpha0 = 1
    assert exact_div(p, B0 - 1) == B0 + 1


def test_exact_div_identity():
    f = W**3 - 2 * W + 5
    assert exact_div(f, MPoly.one()) == f


def test_exact_div_remainder_is_carried():
    # long division by hand: w^2 - 1 = (w + 2)(w - 2) + 3
    with pytest.raises(ExactDivisionError) as err:
        exact_div(W * W - 1, W - 2)
    assert err.value.remainder == MPoly.const(3)


def test_exact_div_outside_gaussian_integers():
    # lc = 1+i does not divide 1 in Z[i], so the division scales its running state
    g = gq(1, 1) * W
    assert exact_div(W, g) == MPoly.const(gq(Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(ExactDivisionError) as err:
        exact_div(W + 1, g)
    assert err.value.remainder == MPoly.const(1)


def test_exact_div_by_zero():
    with pytest.raises(MPolyError):
        exact_div(W, MPoly.zero())


# -- resultants ----------------------------------------------------------------


def test_resultant_by_product_formula():
    # oracle: Res(f, g) = lead(f)^deg(g) * prod g(u_i) over roots of f;
    # f = w^2 - 1 has roots +-1, so Res = (1-2)(-1-2) = 3
    assert resultant(W * W - 1, W - 2, "w") == MPoly.const(3)
    # each of the two roots of g = w^2 + b0 has r^4 = b0^2, so Res(g, f) =
    # (b0^2 + 1)^2, and Res(f, g) = (-1)^(4*2) Res(g, f)
    assert resultant(W**4 + 1, W**2 + B0, "w") == (B0**2 + 1) ** 2


def test_resultant_shared_root_vanishes():
    assert resultant(W * W - 1, W - 1, "w").is_zero()


def test_resultant_root_difference():
    a = MPoly.var("b0")
    b = MPoly.var("b1")
    r = resultant(W - a, W - b, "w")
    assert r == a - b


def test_resultant_both_constant_errors():
    with pytest.raises(MPolyError):
        resultant(MPoly.const(2), MPoly.const(3), "w")


def test_resultant_one_constant_convention():
    # Res(c, g) = c^deg(g)
    assert resultant(MPoly.const(2), W**3 - W, "w") == MPoly.const(8)
    assert resultant(W**2 + 1, MPoly.const(3), "w") == MPoly.const(9)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_resultant_multiplicative(data):
    def upoly(max_deg):
        deg = data.draw(st.integers(1, max_deg))
        coeffs = [data.draw(small_gq) for _ in range(deg)]
        lead = data.draw(small_gq.filter(lambda x: not x.is_zero()))
        return poly_from_coeffs("w", coeffs + [lead])

    f, g, h = upoly(3), upoly(3), upoly(3)
    lhs = resultant(f * g, h, "w")
    rhs = resultant(f, h, "w") * resultant(g, h, "w")
    assert lhs == rhs


def test_resultant_no_common_root_nonzero():
    f = (W - 1) * (W - 2)
    g = (W - 3) * (W - 4)
    # product formula: (1-3)(1-4)(2-3)(2-4) = 12
    assert resultant(f, g, "w") == MPoly.const(12)


def test_resultant_sign_when_the_first_degree_is_lower():
    # Res(w + 1, w^3 + 5) = g(-1) = 4, and swapping costs (-1)^(1*3)
    assert resultant(W + 1, W**3 + 5, "w") == MPoly.const(4)
    assert resultant(W**3 + 5, W + 1, "w") == MPoly.const(-4)


def sylvester_det(f, g):
    return bareiss_det(sylvester(f, g, "w"))


coefficients = polys(vars=("b0", "b1"), max_terms=2, max_exp=1)


@st.composite
def w_polys(draw, deg, sparse):
    """A polynomial of degree exactly deg in w with coefficients in b0, b1;
    when sparse, each lower coefficient is zero half the time."""
    lead = draw(coefficients.filter(lambda c: not c.is_zero()))
    out = lead * W**deg
    for k in range(deg):
        if not (sparse and draw(st.booleans())):
            out = out + draw(coefficients) * W**k
    return out


@pytest.mark.parametrize("n, m", [(n, m) for m in range(1, 6) for n in range(1, m + 1)])
@given(data=st.data(), sparse=st.booleans())
@settings(max_examples=6, deadline=None)
def test_resultant_is_the_sylvester_determinant(n, m, data, sparse):
    # every parity pair of degrees, equal degrees included, in both orders
    f = data.draw(w_polys(n, sparse))
    g = data.draw(w_polys(m, sparse))
    assert resultant(f, g, "w") == sylvester_det(f, g)
    assert resultant(g, f, "w") == sylvester_det(g, f)


@pytest.mark.parametrize(
    "f, g",
    [
        (W**4 + 1, W**2 + B0),  # degree 2 -> 0: the first remainder is a constant
        (W**5 + B0, W**3 + B1 * W),  # 3 -> 1
        (W**5 + W + B0, W**4 + B1),  # 4 -> 1
        (W**5 - 1, W**4 + B1 * W**3),  # 4 -> 3, then 3 -> 1
        (B0 * W**5 - W**2 - W, 2 * W**4 + 1),  # 4 -> 2 -> 1 -> 0, where h = 2 meets the gap of 2
        (W**4 + B0 * W**2 + 1, W**4 + W**2 + B1),  # equal degrees, 4 -> 2 -> 0
    ],
)
def test_resultant_when_a_remainder_drops_two_degrees_or_more(monkeypatch, f, g):
    # the abnormal remainder sequence: some pseudo-remainder is two or more
    # degrees below its divisor, so h is raised to a power above one
    prem = mpoly._prem
    drops = []

    def spying(a, b):
        r = prem(a, b)
        drops.append(len(b) - len(r))
        return r

    monkeypatch.setattr(mpoly, "_prem", spying)
    for x, y in ((f, g), (g, f)):
        assert not resultant(x, y, "w").is_zero()
        assert resultant(x, y, "w") == sylvester_det(x, y)
    assert max(drops) >= 2


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_resultant_detects_planted_common_factor(data):
    root = W - data.draw(coefficients)
    f = data.draw(w_polys(data.draw(st.integers(0, 3)), True)) * root
    g = data.draw(w_polys(data.draw(st.integers(0, 3)), True)) * root
    for x, y in ((f, g), (g, f)):
        assert resultant(x, y, "w").is_zero()
        assert sylvester_det(x, y).is_zero()


def test_bareiss_det_matches_cofactor_expansion():
    m = [
        [MPoly.const(2), B0, MPoly.const(1)],
        [W, MPoly.const(3), MPoly.zero()],
        [MPoly.one(), B0 * W, MPoly.const(5)],
    ]

    def det3(m):
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    assert bareiss_det([row[:] for row in m]) == det3(m)


def test_bareiss_det_singular():
    m = [[W, W], [W, W]]
    assert bareiss_det(m).is_zero()


def test_bareiss_det_needs_pivot_swap():
    m = [[MPoly.zero(), MPoly.one()], [MPoly.one(), MPoly.zero()]]
    assert bareiss_det(m) == MPoly.const(-1)
