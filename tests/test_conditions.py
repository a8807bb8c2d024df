import random

import pytest

from holocert.conditions import build_P, build_condition_set, build_q, h_jets
from holocert.gaussian import GaussianRational as gq
from holocert.mpoly import MPoly, divides
from holocert.normalform import DMAX, expand_normal_form, expand_with_beta
from holocert.obstruction import build_Md, functional_Fd, solve_Rd

from conftest import random_gaussian, random_generic_params

W = MPoly.var("w")
R = W * W - 1
BETA = ("b0", "b1", "b2")


def _h(p, cs, beta=None):
    """h_jets of a condition set taken at beta (symbolic when None)."""
    e_beta = expand_with_beta(p) if beta is None else expand_normal_form(p.with_alpha(*beta), DMAX)
    return h_jets(expand_normal_form(p, DMAX), e_beta, cs.R[3], cs.R[4])


def _subst_beta(poly, p):
    out = poly
    for var, val in zip(BETA, (p.alpha0, p.alpha1, p.alpha2)):
        out = out.substitute(var, val)
    return out


# -- q polynomials -----------------------------------------------------------------


def test_q4_vanishes_for_zero_alpha(tp):
    p = tp.with_alpha(gq(0), gq(0), gq(0))
    e = expand_normal_form(p, DMAX)
    assert e.c[2] == gq(0) and e.c[3] == gq(0)
    assert build_q(e, 4).is_zero()


def test_q4_at_test_point(tp):
    # hand expansion: q4 = (3+4i) r^3 + (-1-i)(-2-i) r^3 - (1+3i)/2 r^3
    e = expand_normal_form(tp, DMAX)
    q4 = build_q(e, 4)
    assert q4 == gq("7/2", "11/2") * R**3
    assert q4.degree("w") == 6
    assert divides(R**2, q4)


def test_q_rejects_bad_degree(tp):
    e = expand_normal_form(tp, DMAX)
    with pytest.raises(ValueError):
        build_q(e, 3)


def test_condition_set_builds_each_q_once(tp, monkeypatch):
    # P_4 and P_6 share ~q4: six q polynomials per condition set, not seven
    from holocert import conditions

    built = []

    def counting(e, d):
        built.append(d)
        return build_q(e, d)

    monkeypatch.setattr(conditions, "build_q", counting)
    conditions.build_condition_set(tp)
    assert sorted(built) == [4, 4, 5, 5, 6, 6]


# -- P polynomials -----------------------------------------------------------------


def test_P3_vanishes_at_beta_alpha(tp):
    e = expand_normal_form(tp, DMAX)
    assert build_P(3, e, e, {}).is_zero()


def test_P4_vanishes_at_beta_alpha_with_R3_zero(tp):
    e = expand_normal_form(tp, DMAX)
    assert build_P(4, e, e, {3: MPoly.zero()}).is_zero()


def test_P3_is_linear_in_beta(tp):
    e = expand_normal_form(tp, DMAX)
    sym = expand_with_beta(tp)
    P3 = build_P(3, e, sym, {})
    for b in BETA:
        assert P3.degree(b) <= 1
    assert max(sum(x) for x, _ in _beta_terms(P3)) <= 1


def _beta_terms(poly):
    # exponent tuples restricted to the beta variables
    idx = [i for i, v in enumerate(poly.vars) if v in BETA]
    return [(tuple(e[i] for i in idx), c) for e, c in poly.terms.items()]


def test_P_missing_prerequisites_error(tp):
    e = expand_normal_form(tp, DMAX)
    sym = expand_with_beta(tp)
    with pytest.raises(KeyError):
        build_P(4, e, sym, {})
    with pytest.raises(KeyError):
        build_P(5, e, sym, {})
    with pytest.raises(KeyError):
        build_P(6, e, sym, {3: MPoly.zero()})


# -- full pipeline ------------------------------------------------------------------


def test_conditions_at_beta_alpha_all_zero(tp, rng):
    for p in [tp, random_generic_params(rng)]:
        beta = (p.alpha0, p.alpha1, p.alpha2)
        cs = build_condition_set(p).at(beta)
        for d in (3, 4, 5, 6):
            assert cs.P[d].is_zero()
            assert cs.R[d].is_zero()
            assert cs.F[d].is_zero()
        h2, h3, h4 = _h(p, cs, beta)
        assert h2.is_zero() and h3.is_zero() and h4.is_zero()


def test_symbolic_P_vanishes_under_beta_alpha_substitution(tp):
    cs = build_condition_set(tp)
    for d in (3, 4, 5, 6):
        assert _subst_beta(cs.P[d], tp).is_zero()
        assert _subst_beta(cs.R[d], tp).is_zero()
        assert _subst_beta(cs.F[d], tp).is_zero()


def test_symbolic_degrees(tp):
    cs = build_condition_set(tp)
    for d in (3, 4, 5, 6):
        assert cs.P[d].degree("w") == 2 * (d - 1)
        assert cs.R[d].degree("w") <= 2 * d - 3


def test_generic_w_degree_at_random_numeric_beta(tp, tp_conditions, rng):
    # the bound deg_w P_d <= 2(d-1) always holds, with equality at generic
    # beta; the seeded samples below are checked to be generic
    for _ in range(3):
        beta = tuple(random_gaussian(rng) for _ in range(3))
        cs = tp_conditions.at(beta)
        for d in (3, 4, 5, 6):
            assert cs.P[d].degree("w") == 2 * (d - 1), f"degenerate sample {beta} at d={d}"


def test_F3_is_affine_linear(tp):
    cs = build_condition_set(tp)
    assert cs.F[3].total_degree() == 1
    for b in BETA:
        assert cs.F[3].degree(b) <= 1


def test_F4_affine_linear_after_fixing_b0(tp):
    cs = build_condition_set(tp)
    q = cs.F[4].substitute("b0", tp.alpha0)
    assert all(sum(e) <= 1 for e in q.terms)
    assert cs.F[4].degree("b0") == 2  # quadratic in b0 before the substitution


def test_defect_is_wfree_for_symbolic_and_numeric(tp, tp_conditions, rng):
    from holocert.obstruction import apply_Ld

    for beta in (None, tuple(random_gaussian(rng) for _ in range(3))):
        cs = tp_conditions if beta is None else tp_conditions.at(beta)
        for d in (3, 4, 5, 6):
            defect = apply_Ld(d, tp.lambda1, tp.lambda2, cs.R[d]) - cs.P[d]
            assert defect == cs.F[d]
            assert defect.degree("w") <= 0


def _pipeline_at(p, beta):
    """The degree 3..6 pipeline run from the expansion at a concrete beta,
    the reference for the symbolic set taken at that beta."""
    e_alpha, e_beta = expand_normal_form(p, DMAX), expand_normal_form(p.with_alpha(*beta), DMAX)
    P, R, F = {}, {}, {}
    for d in (3, 4, 5, 6):
        P[d] = build_P(d, e_alpha, e_beta, R)
        M = build_Md(d, p.lambda1, p.lambda2)
        R[d] = solve_Rd(M, P[d])
        F[d] = functional_Fd(M, P[d], R[d])
    return P, R, F


@pytest.mark.parametrize("k", range(3), ids=["bundled", "generic0", "generic1"])
def test_symbolic_set_at_a_numeric_beta_equals_the_pipeline_there(tp, k):
    # at beta = alpha, at a small Gaussian rational and at the laboratory's
    # own draw, whose dyadic coefficients have denominators of about 2^54
    from holocert.numerics.checks import _random_beta

    rng = random.Random(1601)
    p = [tp, random_generic_params(rng), random_generic_params(rng)][k]
    symbolic = build_condition_set(p)
    for beta in ((p.alpha0, p.alpha1, p.alpha2), tuple(random_gaussian(rng) for _ in range(3)), _random_beta(1)):
        cs = symbolic.at(beta)
        P, R, F = _pipeline_at(p, beta)
        for d in (3, 4, 5, 6):
            assert cs.P[d] == P[d] and cs.R[d] == R[d] and cs.F[d] == F[d], f"d={d}, beta={beta}"
            assert cs.F[d].is_constant() and set(cs.P[d].vars) <= {"w"} and set(cs.R[d].vars) <= {"w"}


# -- h jets -------------------------------------------------------------------------


def test_h2_formula(tp):
    # c2 = a0 (1 - sigma) on both sides, so h2 = (b0 - a0)(1 - sigma)
    cs = build_condition_set(tp)
    b0 = MPoly.var("b0")
    expected = (b0 - tp.alpha0) * (1 - tp.sigma)
    assert _h(tp, cs)[0] == expected


def test_h2_ignores_b1_b2(tp):
    cs = build_condition_set(tp)
    fixed = _h(tp, cs)[0].substitute("b0", tp.alpha0)
    assert fixed.is_zero()  # regardless of b1, b2


def test_h_jets_zero_at_identity(tp):
    e = expand_normal_form(tp, DMAX)
    h2, h3, h4 = h_jets(e, e, MPoly.zero(), MPoly.zero())
    assert h2.is_zero() and h3.is_zero() and h4.is_zero()


def test_h3_h4_depend_on_R_constants(tp):
    e = expand_normal_form(tp, DMAX)
    sym = expand_with_beta(tp)
    h2a, h3a, h4a = h_jets(e, sym, MPoly.zero(), MPoly.zero())
    h2b, h3b, h4b = h_jets(e, sym, MPoly.one(), MPoly.zero())
    assert h2a == h2b  # h2 never sees R3
    assert h3b - h3a == MPoly.one()
