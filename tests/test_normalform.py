import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from holocert.gaussian import GaussianRational as gq
from holocert.mpoly import MPoly, divides, poly_from_coeffs
from holocert.normalform import (
    DMAX,
    FoliationParams,
    L_d,
    expand_normal_form,
    expand_with_beta,
    oracle_defects,
    r_of,
    s_of,
    series_oracle,
    validate_genericity,
)

from conftest import random_gaussian, random_generic_params

W = MPoly.var("w")
R = W * W - 1


# -- genericity -----------------------------------------------------------------


def test_genericity_at_test_point(tp):
    rep = validate_genericity(tp)
    assert rep.exact_ok
    assert rep.pairwise_distinct
    assert rep.lattice_failures == ()
    assert rep.ordering_convention  # Re 2 >= Re 0 >= Re -1
    assert len(rep.numeric_proxy) == 2


def test_genericity_lattice_failure():
    p = FoliationParams(gq(Fraction(1, 3)), gq(0, 2), gq(1), gq(0), gq(0))
    rep = validate_genericity(p)
    assert not rep.exact_ok
    assert "lambda1 in (1/3)Z" in rep.lattice_failures


def test_genericity_membership_covers_half_integers():
    # 1/2 = 2/4 sits in (1/4)Z
    p = FoliationParams(gq(Fraction(1, 2)), gq(0, 2), gq(1), gq(0), gq(0))
    assert "lambda1 in (1/4)Z" in validate_genericity(p).lattice_failures


def test_genericity_distinctness():
    p = FoliationParams(gq(0, 1), gq(0, 1), gq(1), gq(0), gq(0))
    rep = validate_genericity(p)
    assert not rep.pairwise_distinct
    assert not rep.exact_ok


def test_genericity_never_raises_and_reports_ordering():
    p = FoliationParams(gq(-5, 1), gq(7, 1), gq(1), gq(0), gq(0))
    rep = validate_genericity(p)
    assert rep.exact_ok
    assert not rep.ordering_convention  # recorded, not enforced


# -- closed-form table ------------------------------------------------------------


def test_S2_is_r_always(tp, rng):
    for p in [tp] + [random_generic_params(rng) for _ in range(3)]:
        assert expand_normal_form(p, DMAX).S[2] == R


def test_c_values_at_test_point(tp):
    e = expand_normal_form(tp, DMAX)
    assert e.c[1] == gq(1)
    assert e.c[2] == gq(-1, -1)
    assert e.c[3] == gq(1, 3)
    assert e.c[4] == gq(1, -7)


def test_S3_at_test_point(tp):
    # alpha1 = alpha2 = 0 kills p(w) and eta, leaving -alpha0 sigma r^2
    e = expand_normal_form(tp, DMAX)
    assert e.S[3] == gq(-2, -1) * R**2


def test_S_divisible_by_r(tp, rng):
    for p in [tp, random_generic_params(rng)]:
        e = expand_normal_form(p, DMAX)
        for d in range(2, 7):
            assert divides(R, e.S[d]), f"S_{d} not divisible by r"


def test_symbolic_expansion_specializes_to_numeric(tp):
    sym = expand_with_beta(tp)
    num = expand_normal_form(tp, DMAX)
    binds = {"b0": tp.alpha0, "b1": tp.alpha1, "b2": tp.alpha2}
    for d in range(2, 7):
        spec = sym.S[d]
        for var, val in binds.items():
            spec = spec.substitute(var, val)
        assert spec == num.S[d]
        assert sym.c[d].evaluate(binds) == num.c[d]


# -- series oracle ----------------------------------------------------------------


def test_K1_is_s_over_r(tp):
    A = series_oracle(tp, dmax=1)
    assert A[1] == s_of(tp.lambda1, tp.lambda2, W)


def test_oracle_with_alpha_zero(tp):
    # Psi = z(s + z)/r, so K2 = 1/r exactly: numerator r, c2 = 0, S2 = r
    p = tp.with_alpha(gq(0), gq(0), gq(0))
    A = series_oracle(p, dmax=2)
    assert A[2] == R
    e = expand_normal_form(p, DMAX)
    assert e.c[2] == gq(0)
    assert e.S[2] == R


def test_oracle_matches_table_at_test_point(tp):
    assert all(v.is_zero() for v in oracle_defects(tp).values())


def test_oracle_matches_table_at_random_points(rng):
    for _ in range(5):
        p = random_generic_params(rng)
        defects = oracle_defects(p)
        assert all(v.is_zero() for v in defects.values()), f"defect at {p}"


def test_oracle_rejects_bad_dmax(tp):
    with pytest.raises(ValueError):
        series_oracle(tp, dmax=7)
    with pytest.raises(ValueError):
        series_oracle(tp, dmax=0)


def test_table_to_a_lower_degree_is_its_head(tp):
    for dmax in (0, DMAX + 1):
        with pytest.raises(ValueError):
            expand_normal_form(tp, dmax)
    full = expand_normal_form(tp, DMAX)
    for dmax in range(1, DMAX):
        e = expand_normal_form(tp, dmax)
        assert e.c == {d: full.c[d] for d in range(1, dmax + 1)}
        assert e.S == {d: full.S[d] for d in range(2, dmax + 1)}


# -- the geometry: one definition, exact and float views -------------------------


def test_exact_and_float_views_agree(rng):
    from holocert.obstruction import apply_Ld

    w_float = Polynomial([0.0, 1.0])
    for _ in range(5):
        lam1, lam2 = random_gaussian(rng), random_gaussian(rng)
        l1, l2 = lam1.to_complex(), lam2.to_complex()
        for d in range(3, 7):
            coeffs = [random_gaussian(rng) for _ in range(2 * d - 2)]  # deg f <= 2d - 3
            exact = apply_Ld(d, lam1, lam2, poly_from_coeffs("w", coeffs))
            exact = np.array([c.as_constant().to_complex() for c in exact.coeffs_in("w")])
            image = L_d(d, l1, l2, Polynomial([c.to_complex() for c in coeffs]), w_float, Polynomial.deriv)
            n = max(len(exact), len(image.coef))
            diff = np.pad(exact, (0, n - len(exact))) - np.pad(image.coef, (0, n - len(image.coef)))
            assert np.max(np.abs(diff)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))
        w0 = random_gaussian(rng)
        for exact_view, float_view in (
            (r_of(W), r_of(w0.to_complex())),
            (s_of(lam1, lam2, W), s_of(l1, l2, w0.to_complex())),
        ):
            assert exact_view.evaluate({"w": w0}).to_complex() == pytest.approx(float_view, rel=1e-12, abs=1e-12)


# -- params plumbing ---------------------------------------------------------------


def test_lambda3_is_derived(tp):
    assert tp.lambda3 == gq(-1, -1)
    assert tp.sigma == gq(2, 1)
    assert tp.eta == gq(0)


def test_params_dict_roundtrip(tp):
    assert FoliationParams.from_dict(tp.to_dict()) == tp


def test_params_from_strings():
    p = FoliationParams.from_strings("2-1i", "0+2i", "1", "0", "0")
    assert p.lambda1 == gq(2, -1)
    assert p.lambda2 == gq(0, 2)
