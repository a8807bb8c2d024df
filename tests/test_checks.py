import cmath
import math

import numpy as np
import pytest

from holocert.conditions import build_condition_set
from holocert.gaussian import gq
from holocert.numerics.checks import (
    antiderivative_identity_rows,
    draw_lemma_samples,
    numeric_summary,
    run_numeric_verification,
    structural_rows,
    verify_integral_lemmas,
    verify_variation_formulas,
)
from holocert.numerics.odepath import integrate_stack


@pytest.fixture(scope="module")
def numeric_beta_conditions(tp):
    return build_condition_set(tp, beta=(gq(1, 1), gq("1/2"), gq(0, -1)))


def test_integral_lemma_rows_pass(nmodel, nloops, numeric_beta_conditions):
    rows = verify_integral_lemmas(
        nmodel, nloops, seed=3, n_samples=3, conditions=numeric_beta_conditions
    )
    assert len(rows) == 3 + 3 + 4
    for row in rows:
        assert row.passed, f"{row.name}: residual {row.residual:.3e}"


def test_antiderivative_rows_cover_all_degrees(nmodel, nloops, numeric_beta_conditions):
    rows = antiderivative_identity_rows(nmodel, nloops.gamma1, conditions=numeric_beta_conditions)
    assert [r.degree for r in rows] == [3, 4, 5, 6]
    assert all(r.passed for r in rows)


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
    _, values, _, masses = integrate_stack(nloops.gamma1, [1.0], [0.0], [P], phi_field(nmodel, [3]), 1e-12)[-1]
    assert abs(values[0]) / max(1.0, masses[0]) < 1e-9


def test_two_loop_identity_with_constant_polynomial(nmodel, nloops):
    # P = 1 against zeta with the degree-3 exponents
    u1 = 2 * nmodel.lam1 - 3
    u2 = 2 * nmodel.lam2 - 3

    def field(w, zeta, integrals, vals):
        return u1 / (1.0 + w) - u2 / (1.0 - w), vals * zeta

    P = np.array([1.0 + 0j])
    _, i1, _, m1 = integrate_stack(nloops.gamma1, [1.0], [0.0], [P], field, 1e-12)[-1]
    _, i2, _, m2 = integrate_stack(nloops.gamma2, [1.0], [0.0], [P], field, 1e-12)[-1]
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


def test_planted_defect_fails_only_its_own_row(nmodel, nloops, numeric_beta_conditions, monkeypatch):
    # corrupt one integrand inside the two-loop stack (on gamma2 only) and
    # one inside the forward-vanishing stack; each must fail its own row
    # while every neighbour in the same stack still passes
    from holocert.numerics import checks

    n_samples, bad_two_loop, bad_forward = 5, 1, 3

    def corrupting(loop, base0, integrals0, coeffs, field, rtol):
        bad = None
        if loop.label == "gamma2":
            bad = bad_two_loop
        # the antiderivative stack also has one base state, but four integrands
        elif loop.label == "gamma1" and len(base0) == 1 and len(coeffs) == n_samples:
            bad = bad_forward
        if bad is not None:
            coeffs = [c + 1.0 if k == bad else c for k, c in enumerate(coeffs)]
        return integrate_stack(loop, base0, integrals0, coeffs, field, rtol)

    monkeypatch.setattr(checks, "integrate_stack", corrupting)
    rows = verify_integral_lemmas(nmodel, nloops, seed=3, n_samples=n_samples, conditions=numeric_beta_conditions)
    failed = [r.name for r in rows if not r.passed]
    assert failed == [f"integral-lemma-two-loops[{bad_two_loop}]", f"forward-vanishing[{bad_forward}]"]
    two_loop, forward = draw_lemma_samples(3, n_samples)
    assert [r.degree for r in rows[:n_samples]] == [d for d, _ in two_loop]
    assert [r.degree for r in rows[n_samples : 2 * n_samples]] == [d for d, _ in forward]


@pytest.mark.parametrize("n_samples, integrations", [(0, 12), (1, 15)])
def test_every_family_integrates_through_integrate_stack(tp, monkeypatch, n_samples, integrations):
    # integrate_loop is counted only where integrate_stack looks it up, so a
    # family with a right-hand side of its own would be missed.  Jets: gamma1,
    # gamma2, mu1, mu2, reversed gamma1, mu2*mu1, gamma1 at the second radius
    # and two order-2 jets at another alpha; bundles: gamma1, gamma2; the
    # antiderivative stack; with samples, two-loop (twice) and forward stacks.
    from holocert.numerics import odepath

    loops = []
    original = odepath.integrate_loop

    def counting(rhs, loop, *args, **kwargs):
        loops.append(loop.label)
        return original(rhs, loop, *args, **kwargs)

    monkeypatch.setattr(odepath, "integrate_loop", counting)
    run_numeric_verification(tp, rtol=1e-6, n_samples=n_samples)
    assert len(loops) == integrations


def test_variation_rows_report_every_degree(nmodel, nloops):
    rows = verify_variation_formulas(nmodel, nloops.gamma1)
    assert [r.degree for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.passed for r in rows)
    # residual magnitudes are recorded, not just booleans
    assert all(0.0 <= r.residual < r.tolerance for r in rows)


def test_structural_rows_detect_convention(nmodel, nloops):
    rows, convention = structural_rows(nmodel, nloops, seed=5)
    assert "Delta_b o Delta_a" in convention
    by_name = {r.name: r for r in rows}
    assert by_name["commutator-convention"].passed
    assert by_name["a21-nonzero-proxy"].passed
    assert by_name["radius-independence"].passed
    assert by_name["reversed-loop-is-inverse-jet"].passed
    assert by_name["a22-ratio-is-1-plus-nu1"].passed


def test_commutator_tangency_is_near_rounding(nmodel, nloops, loop_jets):
    # at the default tolerance a1 = 1 holds to a few ulps on gamma1, five
    # orders of magnitude under the row's 1e-8 budget
    rows, _ = structural_rows(nmodel, nloops, jets=loop_jets)
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
