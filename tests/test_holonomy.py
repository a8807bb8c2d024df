import cmath
import math

import numpy as np
import pytest

from holocert.gaussian import GaussianRational as gq
from holocert.normalform import DMAX, expand_normal_form
from holocert.numerics.holonomy import (
    bundle_part,
    float_model,
    integrate_quadratures,
    integrate_stack,
    integrate_variations,
    variation_jet,
    variation_part,
)
from holocert.numerics.checks import formula_coefficients
from holocert.numerics.jets import invert, jet_distance
from holocert.numerics.loops import Line, Loop

from conftest import a2_closed_form, one_jet, sweep_points


def test_degenerate_point_loop_gives_identity_jet(nmodel):
    point = Loop((Line(0j, 0j),), label="point")
    jet = one_jet(nmodel, point)
    assert np.allclose(jet.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_commutator_loops_are_parabolic(loop_jets):
    assert abs(loop_jets["gamma1"].a1 - 1.0) < 1e-8
    assert abs(loop_jets["gamma2"].a1 - 1.0) < 1e-8


def test_null_homotopic_concat_gives_identity_jet(nmodel, nloops):
    from holocert.numerics.jets import HolonomyJet, jet_distance
    from holocert.numerics.loops import concat

    null = concat(nloops.mu1, nloops.mu1.inverse(), label="null")
    jet = one_jet(nmodel, null)
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
    rev = one_jet(nmodel, nloops.gamma1.inverse())
    assert jet_distance(rev, invert(loop_jets["gamma1"])) < 1e-7


def test_beta_does_not_move_a2(nmodel, nloops, loop_jets, tp):
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    other = float_model(p, expand_normal_form(p, DMAX))
    ((jet,),) = integrate_stack([nloops.gamma1], [variation_part(other, 2)])
    tilde = variation_jet("gamma1", jet[-1])
    base = loop_jets["gamma1"]
    scale = max(1.0, abs(base.a(2)), base.norms[1])
    assert abs(tilde.a(2) - base.a(2)) / scale < 1e-9


def test_psi2_independent_of_alpha(nmodel, nloops, gamma_bundles, tp):
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    other = float_model(p, expand_normal_form(p, DMAX))
    ((bundle,),) = integrate_stack([nloops.gamma1], [bundle_part(other)])
    b = integrate_quadratures(bundle[-1])
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
    integrate_stack([nloops.gamma1], [variation_part(model, 2)])
    with pytest.raises(KeyError):
        variation_part(model, 3)
    with pytest.raises(KeyError):
        bundle_part(model)


@pytest.mark.parametrize("k", range(10))
def test_float_coefficients_are_the_exact_fractions_rounded(k):
    # the laboratory reads S_d, q_d and the antiderivative's P_d and R_d
    # straight off the polynomials' ints; every bit must be that of the
    # conversion through GaussianRational and Fraction
    from holocert.conditions import build_condition_set, q_of
    from holocert.numerics.checks import _random_beta
    from holocert.numerics.holonomy import _to_coeff_array

    def through_fractions(poly):
        return np.array([c.as_constant().to_complex() for c in poly.coeffs_in("w")] or [0j], dtype=complex)

    p = sweep_points(10)[k]
    conditions = build_condition_set(p)
    e = conditions.e_alpha
    model = float_model(p, e)
    at_beta = conditions.at(_random_beta(1))  # the antiderivative's beta at seed 0
    pairs = [(model.S[d], e.S[d]) for d in range(2, DMAX + 1)] + [(model.q[d], q_of(e, d)) for d in (4, 5, 6)]
    pairs += [(_to_coeff_array(at_beta.P[d]), at_beta.P[d]) for d in range(3, 7)]
    pairs += [(_to_coeff_array(at_beta.R[d]), at_beta.R[d]) for d in range(3, 7)]
    for got, poly in pairs:
        assert np.array_equal(got, through_fractions(poly))


def test_a_stack_of_two_bases_is_refused(nmodel, nloops, tp):
    # every part rides on the stack's one phi1: a part whose rate differs in
    # the last bit from the first part's would be integrated against a base
    # that is not its own
    from holocert.normalform import FoliationParams

    d = tp.to_dict()
    other = FoliationParams.from_dict({**d, "lambda2": "1/7+2i"})
    parts = [variation_part(nmodel, 2), variation_part(float_model(other, expand_normal_form(other, 2)), 2)]
    with pytest.raises(ValueError, match="different bases"):
        integrate_stack([nloops.gamma1], parts)


@pytest.mark.parametrize("levels", [(1,), (2, 1), ()])
def test_a_part_must_yield_the_levels_it_declares(nmodel, nloops, levels):
    # the split map is read off the declared levels, so a part that yields
    # other ones is refused instead of being split at the wrong rows
    from dataclasses import replace

    from holocert.numerics.holonomy import phi_part

    part = replace(phi_part(nmodel, [3, 4], [np.ones(1), np.ones(1)]), levels=levels)
    with pytest.raises(ValueError):
        integrate_stack([nloops.gamma1], [variation_part(nmodel, 2), part])



def test_a_stack_yields_each_part_s_own_rows_bit_for_bit(nmodel, nloops, tp):
    # the stack computes r, K1 and the weights phi1^(d-1) / r^d once per
    # round, in one table over the degrees its parts read; every part's
    # rows must be those of its own formulas on the same nodes, written
    # out here as each part computed them alone: the bundle's two levels,
    # the order-2 jet at another alpha, the lemma samples and the
    # antiderivative stack
    from numpy.polynomial import polynomial as npp

    from holocert.normalform import r_of, s_of
    from holocert.numerics.holonomy import _stacked_field, phi_part
    from holocert.numerics.loops import nodes

    rng = np.random.default_rng(7)
    p = tp.with_alpha(gq(3, 1), gq(0, 2), gq(-1))
    other = float_model(p, expand_normal_form(p, 2))
    samples = [3, 5, 4, 6, 6, 3, 5]
    coeffs = [rng.standard_normal(7) + 1j * rng.standard_normal(7) for _ in samples]
    anti = [rng.standard_normal(2 * d - 1) + 1j * rng.standard_normal(2 * d - 1) for d in (3, 4, 5, 6)]
    parts = [
        bundle_part(nmodel),
        variation_part(other, 2),
        phi_part(nmodel, samples, coeffs),
        phi_part(nmodel, (3, 4, 5, 6), anti),
    ]
    t = np.arange(4)[:, None] / 4.0 + (np.polynomial.chebyshev.chebpts1(32) + 1.0) / 8.0
    w, _ = nodes([seg for seg in nloops.gamma1.segments for _ in t], np.tile(t, (len(nloops.gamma1.segments), 1)))
    w = w.ravel()
    vals = np.array([npp.polyval(w, c) for part in parts for c in part.coeffs])
    p1 = np.exp(0.3j * w) * (1.0 + w)

    def phi(vals, degrees):
        D = np.asarray(degrees)[:, None]
        return vals * (p1 ** (D - 1) / r**D)

    r = r_of(w)
    k1 = s_of(nmodel.lam1, nmodel.lam2, w) / r
    g = phi(vals[:5], range(2, 7))
    beta = (np.array([[other.c[2]]]) * k1 + vals[5:6] / r ** np.arange(2, 3)[:, None])[0] * p1
    first = [*g, beta, *phi(vals[6:13], samples), *phi(vals[13:], (3, 4, 5, 6))]
    psi = rng.standard_normal((len(first), w.size)) + 1j * rng.standard_normal((len(first), w.size))
    psi2, psi3 = psi[0], psi[1]
    g3, g4, g5 = g[1], g[2], g[3]
    second = [g3 * psi2, g3 * psi2**2, g3 * psi2**3, g3 * psi2 * psi3, g4 * psi2, g4 * psi2**2, g4 * psi3, g5 * psi2]

    levels = _stacked_field(parts)(w, vals)
    assert next(levels).tobytes() == k1.tobytes()
    for got, want in ((levels.send(p1[None]), first), (levels.send(psi), second)):
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            assert row.tobytes() == ref.tobytes()
    with pytest.raises(StopIteration):
        levels.send(rng.standard_normal((8, w.size)) + 0j)

def test_bundle_carries_error_estimates(gamma_bundles):
    b = gamma_bundles["gamma1"]
    for name in ("psi2", "psi6", "delta11", "b1"):
        assert b.norms[name] >= 0.0


def test_overflowing_jet_raises():
    # along mu1 the state stays finite but a_6 = p1 * p6 exceeds double range
    from holocert.normalform import FoliationParams
    from holocert.numerics import ODEError
    from holocert.numerics.loops import build_loops

    p = FoliationParams.from_dict({"lambda1": "1/2-20i", "lambda2": "1/3+18i", "alpha": ["2-1i", "1/2", "-1+1i"]})
    with pytest.raises(ODEError, match="overflows double precision"):
        one_jet(float_model(p, expand_normal_form(p, DMAX)), build_loops(0.5).mu1)


@pytest.mark.parametrize("rtol", [1e-12, 1e-6])
@pytest.mark.parametrize("block", [2, None])  # None: the default BLOCK
def test_breakdown_reason_does_not_depend_on_the_block(monkeypatch, block, rtol):
    # at BLOCK = 2, the smallest block the engine forms, a block chains its
    # later pieces from the inexact ends of fewer pieces before them than
    # a longer block does, but the reason names the same first non-finite
    # piece, at the laboratory's RTOL and at a looser one
    from holocert.normalform import FoliationParams
    from holocert.numerics import ODEError, odepath
    from holocert.numerics.loops import build_loops

    if block is not None:
        monkeypatch.setattr(odepath, "BLOCK", block)
    monkeypatch.setattr(odepath, "RTOL", rtol)
    p = FoliationParams.from_dict({"lambda1": "1/2-20i", "lambda2": "1/3+18i", "alpha": ["2-1i", "1/2", "-1+1i"]})
    with pytest.raises(ODEError, match=r"^loop 'gamma2', segment 10: non-finite state$"):
        one_jet(float_model(p, expand_normal_form(p, DMAX)), build_loops(0.5).gamma2)


def _seven_loops():
    """The laboratory's seven jet loops, by name."""
    from holocert.numerics.checks import structural_loops
    from holocert.numerics.loops import build_loops

    loops = build_loops(0.5)
    return {lp.label: lp for lp in (loops.gamma1, loops.gamma2, loops.mu1, loops.mu2)} | structural_loops(loops)


def _jet_point(name):
    from holocert.normalform import FoliationParams

    if name.startswith("sweep"):
        return sweep_points(29)[int(name.split()[1])]
    if name.startswith("ladder"):  # tools/compare_outputs.py's ladder, lambda = (1/2 + k i, 1/3 - k i)
        k = name.split()[1]
        ladder = {"lambda1": f"1/2+{k}i", "lambda2": f"1/3-{k}i", "alpha": ["2-1i", "1/2", "-1+1i"]}
        return FoliationParams.from_dict(ladder)
    lambdas = {"bundled": ("2-1i", "0+2i"), "steep": ("1/2-3i", "1/3+5/2i"), "overflow": ("1/2+1i", "1/3-40i")}[name]
    alpha = ["1", "0", "0"] if name == "bundled" else ["2-1i", "1/2", "-1+1i"]
    return FoliationParams.from_dict({"lambda1": lambdas[0], "lambda2": lambdas[1], "alpha": alpha})


@pytest.mark.parametrize("name", ["bundled", "steep", *(f"sweep {k}" for k in range(10))])
def test_a2_of_both_commutator_jets_matches_its_closed_form(name, nloops):
    # the only reference here that is not itself integrated: each jet's a_2
    # against the Beta-integral closed form, relative to a_2 itself and not
    # to a mass (gamma1's reads 6.5e-15 at the bundled point, 6.9e-13 at the
    # steep one and 7.1e-11 at sweep point 3, the worst of these points)
    p = _jet_point(name)
    jets = integrate_variations(float_model(p, expand_normal_form(p, DMAX)), [nloops.gamma1, nloops.gamma2])
    for jet, want in zip(jets, a2_closed_form(p), strict=True):
        assert abs(jet.a(2) - want) <= 1e-9 * abs(want), name


@pytest.mark.parametrize("name", ["bundled", "steep", "sweep 3", "sweep 8", "sweep 28"])
def test_the_seven_jets_in_one_pass_match_their_lone_passes_bit_for_bit(name):
    # the jets share one lockstep pass, and each keeps the mesh and the
    # arithmetic of its lone pass: at sweep point 8 the convention once
    # flipped on a mesh moved by other rows, and at 3 and 28 a_6 sits near
    # its rounding noise, so every end and mass must agree to the last bit
    p = _jet_point(name)
    part = variation_part(float_model(p, expand_normal_form(p, DMAX)), 6)
    loops = list(_seven_loops().values())
    together = integrate_stack(loops, [part])
    for loop, (ends,) in zip(loops, together, strict=True):
        ((alone,),) = integrate_stack([loop], [part])
        assert len(ends) == len(alone) == len(loop.segments)
        for got, want in zip(ends, alone):
            for u, v in zip(got, want, strict=True):
                assert np.array_equal(u, v), f"{name}, {loop.label}"


@pytest.mark.parametrize(
    "name", ["bundled", "steep", *(f"sweep {k}" for k in range(10)), "ladder 3", "ladder 10"]
)
def test_jets_read_off_gamma1_match_their_lone_passes_bit_for_bit(name, monkeypatch):
    # mu2 and mu2*mu1 are gamma1's first 3 and 6 segments, so the laboratory
    # reads their jets off gamma1's state at the end of those segments
    # instead of integrating them: the read must give every bit of the lone
    # integration of each
    from holocert.numerics import holonomy
    from holocert.numerics.checks import structural_loops
    from holocert.numerics.loops import build_loops
    from holocert.numerics.odepath import integrate_loop

    p = _jet_point(name)
    model = float_model(p, expand_normal_form(p, DMAX))
    loops = build_loops(0.5)
    both = structural_loops(loops)["mu2*mu1"]
    calls = []

    def counting(run, *args):
        calls.append([lp.label for lp in run])
        return integrate_loop(run, *args)

    monkeypatch.setattr(holonomy, "integrate_loop", counting)
    read = integrate_variations(model, [loops.gamma1, loops.mu2, both])
    assert calls == [["gamma1"]]
    for loop, jet in zip((loops.mu2, both), read[1:]):
        alone = one_jet(model, loop)
        assert np.array_equal(jet.coeffs, alone.coeffs), f"{name}, {loop.label}"
        assert np.array_equal(jet.norms, alone.norms), f"{name}, {loop.label}"


def test_breakdowns_in_one_pass_surface_in_the_sequential_order(monkeypatch):
    # at this point six of the seven jet loops leave double precision alone,
    # each naming itself; the pass of all seven raises the breakdown that
    # integrating them one after another raised first, gamma1's, the first
    # in list order, and the laboratory raises it from its one engine pass,
    # before the stacks on gamma1 and gamma2 are integrated
    from holocert.conditions import build_condition_set
    from holocert.numerics import ODEError, holonomy
    from holocert.numerics.checks import run_numeric_verification
    from holocert.numerics.odepath import integrate_loop

    p = _jet_point("overflow")
    model = float_model(p, expand_normal_form(p, DMAX))
    loops = _seven_loops()
    lone = {}
    for name, loop in loops.items():
        try:
            one_jet(model, loop)
        except ODEError as exc:
            lone[name] = str(exc)
    assert lone == {
        "gamma1": "loop 'gamma1', segment 1: non-finite state",
        "gamma2": "loop 'gamma2', segment 1: non-finite state",
        "mu2": "loop 'mu2', segment 1: non-finite state",
        "gamma1^-1": "loop 'gamma1^-1', segment 4: non-finite state",
        "mu2*mu1": "loop 'mu2*mu1', segment 1: non-finite state",
        "gamma1@0.333333": "loop 'gamma1@0.333333', segment 1: non-finite state",
    }
    with pytest.raises(ODEError, match=r"^loop 'gamma1', segment 1: non-finite state$"):
        integrate_variations(model, list(loops.values()))
    calls = []
    monkeypatch.setattr(holonomy, "integrate_loop", lambda *args: calls.append(args) or integrate_loop(*args))
    with pytest.raises(ODEError, match=r"^loop 'gamma1', segment 1: non-finite state$"):
        run_numeric_verification(p, build_condition_set(p), seed=0, n_samples=0)
    assert len(calls) == 1
