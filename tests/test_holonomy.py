import cmath
import math

import numpy as np
import pytest

from holocert.gaussian import GaussianRational as gq
from holocert.normalform import DMAX, expand_normal_form
from holocert.numerics.holonomy import float_model, integrate_quadratures, integrate_variations
from holocert.numerics.checks import formula_coefficients
from holocert.numerics.jets import invert, jet_distance
from holocert.numerics.loops import Line, Loop


def test_degenerate_point_loop_gives_identity_jet(nmodel):
    point = Loop((Line(0j, 0j),), label="point")
    jet = integrate_variations(nmodel, point)
    assert np.allclose(jet.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_commutator_loops_are_parabolic(loop_jets):
    assert abs(loop_jets["gamma1"].a1 - 1.0) < 1e-8
    assert abs(loop_jets["gamma2"].a1 - 1.0) < 1e-8


def test_null_homotopic_concat_gives_identity_jet(nmodel, nloops):
    from holocert.numerics.jets import HolonomyJet, jet_distance
    from holocert.numerics.loops import concat

    null = concat(nloops.mu1, nloops.mu1.inverse(), label="null")
    jet = integrate_variations(nmodel, null)
    assert jet_distance(jet, HolonomyJet([1, 0, 0, 0, 0, 0])) < 1e-7


def test_generator_multiplier_is_exp_lambda(nmodel, loop_jets):
    # a1 along mu_i is the linear holonomy e^{2 pi i lambda_i}
    expect1 = cmath.exp(2j * math.pi * nmodel.lam1)
    expect2 = cmath.exp(2j * math.pi * nmodel.lam2)
    assert abs(loop_jets["mu1"].a1 - expect1) / abs(expect1) < 1e-9
    assert abs(loop_jets["mu2"].a1 - expect2) / abs(expect2) < 1e-9


def test_a21_nonzero_at_test_point(loop_jets):
    assert abs(loop_jets["gamma1"].a(2)) > 1e-6


def test_a22_ratio_is_one_plus_nu1(nmodel, loop_jets):
    # at the test point nu1 = e^{2 pi i (2 - i)} = e^{2 pi}
    nu1 = nmodel.nu1()
    assert abs(nu1 - math.exp(2 * math.pi)) < 1e-9 * math.exp(2 * math.pi)
    ratio = loop_jets["gamma2"].a(2) / loop_jets["gamma1"].a(2)
    assert abs(ratio - (1 + nu1)) / abs(1 + nu1) < 1e-6


def test_a2_equals_psi2(loop_jets, gamma_bundles):
    for label in ("gamma1", "gamma2"):
        a2 = loop_jets[label].a(2)
        psi2 = gamma_bundles[label].values["psi2"]
        scale = max(1.0, abs(a2), gamma_bundles[label].norms["psi2"])
        assert abs(a2 - psi2) / scale < 1e-9


def test_third_variation_formula(loop_jets, gamma_bundles):
    # psi3_j = a3_j - a2_j^2
    for label in ("gamma1", "gamma2"):
        jet = loop_jets[label]
        b = gamma_bundles[label]
        scale = max(1.0, abs(jet.a(3)), b.norms["psi3"], jet.norms[2])
        assert abs((jet.a(3) - jet.a(2) ** 2) - b.values["psi3"]) / scale < 1e-8


def test_formula_coefficients_match_ode_route(nmodel, loop_jets, gamma_bundles):
    for label in ("gamma1", "gamma2"):
        assembled = formula_coefficients(nmodel, gamma_bundles[label])
        jet = loop_jets[label]
        for d, tol in ((2, 1e-6), (3, 1e-6), (4, 1e-5), (5, 1e-5), (6, 1e-4)):
            value, mass = assembled[d]
            scale = max(1.0, abs(jet.a(d)), mass, jet.norms[d - 1])
            assert abs(jet.a(d) - value) / scale < tol, f"{label} degree {d}"


def test_reversed_loop_is_inverse_jet(nmodel, nloops, loop_jets):
    rev = integrate_variations(nmodel, nloops.gamma1.inverse())
    assert jet_distance(rev, invert(loop_jets["gamma1"])) < 1e-7


def test_beta_does_not_move_a2(nmodel, nloops, loop_jets, tp):
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    other = float_model(p, expand_normal_form(p, DMAX))
    tilde = integrate_variations(other, nloops.gamma1, order=2)
    base = loop_jets["gamma1"]
    scale = max(1.0, abs(base.a(2)), base.norms[1])
    assert abs(tilde.a(2) - base.a(2)) / scale < 1e-9


def test_psi2_independent_of_alpha(nmodel, nloops, gamma_bundles, tp):
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    other = float_model(p, expand_normal_form(p, DMAX))
    b = integrate_quadratures(other, nloops.gamma1)
    base = gamma_bundles["gamma1"]
    scale = max(1.0, abs(base.values["psi2"]), base.norms["psi2"])
    assert abs(b.values["psi2"] - base.values["psi2"]) / scale < 1e-9


def test_float_model_coefficients(nmodel, tp):
    assert nmodel.lam1 == tp.lambda1.to_complex()
    assert nmodel.c[2] == pytest.approx((-1 - 1j))
    # S2 = r as a float array
    assert np.allclose(nmodel.S[2], [-1.0, 0.0, 1.0])
    # q4 = (7/2 + 11/2 i) r^3
    r3 = np.polynomial.polynomial.polypow([-1.0, 0.0, 1.0], 3)
    assert np.allclose(nmodel.q[4], (3.5 + 5.5j) * r3)


def test_float_model_holds_only_the_expanded_degrees(tp, nloops):
    # the structural rows' model at another alpha is expanded to degree 2,
    # which its order-2 jets read; any higher degree is missing, not stale
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    model = float_model(p, expand_normal_form(p, 2))
    assert (sorted(model.c), sorted(model.S), model.q) == ([1, 2], [2], {})
    full = float_model(p, expand_normal_form(p, DMAX))
    assert model.c[2] == full.c[2] and np.array_equal(model.S[2], full.S[2])
    integrate_variations(model, nloops.gamma1, order=2)
    with pytest.raises(KeyError):
        integrate_variations(model, nloops.gamma1, order=3)
    with pytest.raises(KeyError):
        integrate_quadratures(model, nloops.gamma1)


def test_bundle_carries_error_estimates(gamma_bundles):
    b = gamma_bundles["gamma1"]
    for name in ("psi2", "psi6", "delta11", "b1"):
        assert b.norms[name] >= 0.0


def test_variation_order_cap(nmodel, nloops):
    with pytest.raises(ValueError):
        integrate_variations(nmodel, nloops.gamma1, order=7)


def test_overflowing_jet_raises():
    # along mu1 the state stays finite but a_6 = p1 * p6 exceeds double range
    from holocert.normalform import FoliationParams
    from holocert.numerics import ODEError
    from holocert.numerics.loops import build_loops

    p = FoliationParams.from_dict({"lambda1": "1/2-20i", "lambda2": "1/3+18i", "alpha": ["2-1i", "1/2", "-1+1i"]})
    with pytest.raises(ODEError, match="overflows double precision"):
        integrate_variations(float_model(p, expand_normal_form(p, DMAX)), build_loops(0.5).mu1)


@pytest.mark.parametrize("rtol", [1e-12, 1e-6])
@pytest.mark.parametrize("block", [1, None])  # None: the default BLOCK
def test_breakdown_reason_does_not_depend_on_the_block(monkeypatch, block, rtol):
    # with BLOCK = 1 every piece's sweeps start at its accepted start state;
    # in a longer block the later pieces start from another guess, and their
    # intermediate sweeps differ, but the reason is read from the fixed point,
    # at the laboratory's RTOL and at a looser one
    from holocert.normalform import FoliationParams
    from holocert.numerics import ODEError, odepath
    from holocert.numerics.loops import build_loops

    if block is not None:
        monkeypatch.setattr(odepath, "BLOCK", block)
    monkeypatch.setattr(odepath, "RTOL", rtol)
    p = FoliationParams.from_dict({"lambda1": "1/2-20i", "lambda2": "1/3+18i", "alpha": ["2-1i", "1/2", "-1+1i"]})
    with pytest.raises(ODEError, match=r"^loop 'gamma2', segment 10: non-finite state$"):
        integrate_variations(float_model(p, expand_normal_form(p, DMAX)), build_loops(0.5).gamma2)
