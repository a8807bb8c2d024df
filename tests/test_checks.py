import cmath
import math

import numpy as np
import pytest

from holocert.numerics.checks import (
    antiderivative_identity_rows,
    draw_lemma_samples,
    numeric_summary,
    run_numeric_verification,
    structural_rows,
    verify_integral_lemmas,
    verify_variation_formulas,
)
from holocert.numerics.jets import HolonomyJet
from holocert.numerics.odepath import integrate_loop


def test_integral_lemma_rows_pass(nmodel, nloops, tp_conditions):
    rows = verify_integral_lemmas(nmodel, nloops, tp_conditions, seed=3, n_samples=3)
    assert len(rows) == 3 + 3 + 4
    for row in rows:
        assert row.passed, f"{row.name}: residual {row.residual:.3e}"


def test_antiderivative_rows_cover_all_degrees(nmodel, nloops, tp_conditions):
    rows = antiderivative_identity_rows(nmodel, nloops.gamma1, tp_conditions, seed=0)
    assert [r.degree for r in rows] == [3, 4, 5, 6]
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("part, d", [("P", 3), ("R", 4), ("F", 5)])
def test_antiderivative_rows_check_the_given_condition_set(nmodel, nloops, tp_conditions, part, d):
    # the rows read the condition set they are given, the certificate's own:
    # a defect planted in one of its P_d, R_d or F_d fails that degree's row
    from holocert.conditions import ConditionSet
    from holocert.mpoly import MPoly

    planted = ConditionSet(tp_conditions.e_alpha, dict(tp_conditions.P), dict(tp_conditions.R), dict(tp_conditions.F))
    getattr(planted, part)[d] = getattr(planted, part)[d] + MPoly.var("b1")
    rows = antiderivative_identity_rows(nmodel, nloops.gamma1, planted, seed=0)
    assert [r.degree for r in rows if not r.passed] == [d]


def test_forward_vanishing_with_constant_preimage(nmodel, nloops):
    # R = 1, d = 3: the image polynomial is (B3 - 4) w + A3 and its loop
    # integral against phi1^2 / r^3 vanishes
    from numpy.polynomial import Polynomial

    from holocert.normalform import L_d
    from holocert.numerics.holonomy import phi_field

    w = Polynomial([0.0, 1.0])
    P = L_d(3, nmodel.lam1, nmodel.lam2, Polynomial([1.0 + 0j]), w, Polynomial.deriv).coef
    A3 = 2 * (nmodel.lam2 - nmodel.lam1)
    B3 = 2 * (nmodel.lam1 + nmodel.lam2)
    assert np.allclose(P, [A3, B3 - 4.0])
    _, values, _, masses = integrate_loop(nloops.gamma1, [1.0], [0.0], [P], phi_field(nmodel, [3]))[-1]
    assert abs(values[0]) / max(1.0, masses[0]) < 1e-9


def test_two_loop_identity_with_constant_polynomial(nmodel, nloops):
    # P = 1 against zeta with the degree-3 exponents, on a field of its own:
    # the laboratory integrates (-1)^d P zeta on phi1, and this is its
    # independent reference
    u1 = 2 * nmodel.lam1 - 3
    u2 = 2 * nmodel.lam2 - 3

    def field(w, vals):
        zeta = yield u1 / (1.0 + w) - u2 / (1.0 - w)
        yield vals * zeta

    P = np.array([1.0 + 0j])
    _, i1, _, m1 = integrate_loop(nloops.gamma1, [1.0], [0.0], [P], field)[-1]
    _, i2, _, m2 = integrate_loop(nloops.gamma2, [1.0], [0.0], [P], field)[-1]
    factor = 1.0 + cmath.exp(2j * math.pi * u1)
    assert abs(i2[0] - factor * i1[0]) / max(1.0, m2[0] + abs(factor) * m1[0]) < 1e-9


@pytest.mark.parametrize(
    "seed, n_samples, two_loop, forward",
    [
        (3, 4, [6, 3, 4, 5], [6, 3, 4, 5]),
        (
            606,
            20,
            [5, 6, 5, 3, 6, 5, 4, 5, 6, 4, 4, 5, 6, 6, 4, 4, 5, 5, 6, 4],
            [5, 3, 5, 3, 3, 3, 4, 4, 6, 4, 6, 4, 4, 6, 3, 3, 4, 4, 6, 4],
        ),
    ],
)
def test_lemma_samples_keep_their_degrees(seed, n_samples, two_loop, forward):
    # the samples are drawn in one fixed RNG order, so a seed checks the
    # same polynomials whatever the integration layout
    drawn_two_loop, drawn_forward = draw_lemma_samples(seed, n_samples)
    assert [d for d, _ in drawn_two_loop] == two_loop
    assert [d for d, _ in drawn_forward] == forward
    assert all(len(P) == 7 for _, P in drawn_two_loop)
    assert all(len(R) == 2 * d - 2 for d, R in drawn_forward)


def test_planted_defect_fails_only_its_own_row(nmodel, nloops, tp_conditions, monkeypatch):
    # corrupt one integrand inside the two-loop stack (on gamma2 only) and
    # one forward image inside the gamma1 stack, which holds the two-loop
    # polynomials first; each must fail its own row while every neighbour in
    # the same stack still passes
    from holocert.numerics import checks

    n_samples, bad_two_loop, bad_forward = 5, 1, 3

    def corrupting(loop, base0, integrals0, coeffs, field):
        bad = None
        if loop.label == "gamma2":
            bad = bad_two_loop
        # the antiderivative stack also has one base state, but four integrands
        elif loop.label == "gamma1" and len(base0) == 1 and len(coeffs) == 2 * n_samples:
            bad = n_samples + bad_forward
        if bad is not None:
            coeffs = [c + 1.0 if k == bad else c for k, c in enumerate(coeffs)]
        return integrate_loop(loop, base0, integrals0, coeffs, field)

    monkeypatch.setattr(checks, "integrate_loop", corrupting)
    rows = verify_integral_lemmas(nmodel, nloops, tp_conditions, seed=3, n_samples=n_samples)
    failed = [r.name for r in rows if not r.passed]
    assert failed == [f"integral-lemma-two-loops[{bad_two_loop}]", f"forward-vanishing[{bad_forward}]"]
    two_loop, forward = draw_lemma_samples(3, n_samples)
    assert [r.degree for r in rows[:n_samples]] == [d for d, _ in two_loop]
    assert [r.degree for r in rows[n_samples : 2 * n_samples]] == [d for d, _ in forward]


def test_a_defect_in_the_rate_of_phi1_fails_a_two_loop_row(nmodel, nloops, tp_conditions, monkeypatch):
    # the two-loop rows integrate the phi1 that the other families share, so
    # a rate read at lambda1 + 1e-2 fails them against the exact factor
    from holocert.normalform import s_of
    from holocert.numerics import holonomy

    monkeypatch.setattr(holonomy, "s_of", lambda lam1, lam2, w: s_of(lam1 + 1e-2, lam2, w))
    rows = verify_integral_lemmas(nmodel, nloops, tp_conditions, seed=3, n_samples=4)
    assert any(not r.passed for r in rows if r.name.startswith("integral-lemma-two-loops"))


@pytest.mark.parametrize("n_samples, integrations", [(0, 12), (1, 14)])
def test_every_family_integrates_through_integrate_loop(tp, tp_conditions, monkeypatch, n_samples, integrations):
    # integrate_loop is counted only where holonomy and checks bind it, so a
    # family with a right-hand side of its own would be missed.  Jets: gamma1,
    # gamma2, mu1, mu2, reversed gamma1, mu2*mu1, gamma1 at the second radius
    # and two order-2 jets at another alpha; bundles: gamma1, gamma2; the
    # antiderivative stack; with samples, the two-loop and forward stack on
    # gamma1 and the two-loop stack on gamma2.
    from holocert.numerics import checks, holonomy

    loops = []

    def counting(loop, *args):
        loops.append(loop.label)
        return integrate_loop(loop, *args)

    monkeypatch.setattr(holonomy, "integrate_loop", counting)
    monkeypatch.setattr(checks, "integrate_loop", counting)
    run_numeric_verification(tp, tp_conditions, seed=0, n_samples=n_samples)
    assert len(loops) == integrations


def test_variation_rows_report_every_degree(nmodel, nloops, loop_jets):
    rows = verify_variation_formulas(nmodel, nloops.gamma1, loop_jets["gamma1"])
    assert [r.degree for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.passed for r in rows)
    # residual magnitudes are recorded, not just booleans
    assert all(0.0 <= r.residual < r.tolerance for r in rows)


def test_structural_rows_detect_convention(nmodel, nloops, loop_jets):
    rows, convention = structural_rows(nmodel, nloops, loop_jets, seed=5)
    assert "Delta_b o Delta_a" in convention
    by_name = {r.name: r for r in rows}
    assert by_name["commutator-convention"].passed
    assert by_name["a21-nonzero-proxy"].passed
    assert by_name["radius-independence"].passed
    assert by_name["reversed-loop-is-inverse-jet"].passed
    assert by_name["a22-ratio-is-1-plus-nu1"].passed


def _planted(jets, label, d, defect):
    """The jets with defect(a_d) added to a_d of one loop's jet."""
    jet = jets[label]
    coeffs = jet.coeffs.copy()
    coeffs[d - 1] += defect(coeffs[d - 1])
    return {**jets, label: HolonomyJet(coeffs, norms=jet.norms)}


def test_a_perturbed_a2_of_gamma1_fails_exactly_the_rows_that_read_it(nmodel, nloops, loop_jets):
    rows, convention = structural_rows(nmodel, nloops, _planted(loop_jets, "gamma1", 2, lambda a: 1e-3 * abs(a)), seed=0)
    assert [r.name for r in rows if not r.passed] == [
        "reversed-loop-is-inverse-jet",
        "radius-independence",
        "a22-ratio-is-1-plus-nu1",
        "a2-independent-of-beta[gamma1]",
    ]
    assert "Delta_b o Delta_a" in convention


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: jet rows are graded against propagated masses, under which a 10 % defect passes",
)
@pytest.mark.parametrize("label, d", [("mu1", 2), ("gamma1", 6)])
def test_a_ten_percent_defect_fails_a_structural_row(nmodel, nloops, loop_jets, label, d):
    # +10 % on a_2 of mu1 also flips the reported convention
    rows, convention = structural_rows(nmodel, nloops, _planted(loop_jets, label, d, lambda a: 0.1 * a), seed=0)
    assert "Delta_b o Delta_a" in convention
    assert not all(r.passed for r in rows)


def test_commutator_tangency_is_near_rounding(nmodel, nloops, loop_jets):
    # at the default tolerance a1 = 1 holds to a few ulps on gamma1, five
    # orders of magnitude under the row's 1e-8 budget
    rows, _ = structural_rows(nmodel, nloops, loop_jets, seed=0)
    by_name = {r.name: r for r in rows}
    assert by_name["commutator-tangency[gamma1]"].residual <= 1e-13


def test_summary_shape():
    report = {
        "all_pass": True,
        "n_checks": 4,
        "failed": [],
        "convention": "c",
        "radius": 0.5,
        "rtol": 1e-12,
        "seed": 0,
        "checks": [],
        "params": {},
        "atol": 1e-16,
    }
    s = numeric_summary(report)
    assert s == {
        "all_pass": True,
        "n_checks": 4,
        "failed": [],
        "convention": "c",
        "radius": 0.5,
        "rtol": 1e-12,
        "seed": 0,
    }
