"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or in the
captured output); a failed assertion marks the criterion failed.
"""

import math
import random
import time

import pytest

from holocert.cli import main as cli_main
from holocert.conditions import build_condition_set
from holocert.elimination import certify, linear_system_solve, resultant_chain
from holocert.gaussian import GaussianRational
from holocert.mpoly import MPoly
from holocert.normalform import (
    DMAX,
    FoliationParams,
    expand_normal_form,
    validate_genericity,
    verification_point,
)
from holocert.numerics.checks import (
    DEGREE_TOLERANCES,
    integrate_commutator_loops,
    lemma_integrands,
    verify_integral_lemmas,
    verify_variation_formulas,
)
from holocert.numerics.holonomy import (
    bundle_part,
    float_model,
    integrate_quadratures,
    integrate_stack,
)
from holocert.numerics.jets import invert, jet_distance
from holocert.numerics.loops import build_loops
from holocert.obstruction import GenericityError, apply_Ld, build_Md

from conftest import divides, one_jet, oracle_defects, random_gaussian, random_generic_params


def _ok(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}")


def _random_float_params(rng: random.Random) -> FoliationParams:
    """Float parameter sets with well-conditioned imaginary parts."""

    def lam():
        return complex(rng.uniform(-0.8, 0.8), rng.uniform(0.3, 0.8))

    def alpha():
        return complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))

    while True:
        p = FoliationParams(*(GaussianRational.from_complex(z) for z in (lam(), lam(), alpha(), alpha(), alpha())))
        if validate_genericity(p).exact_ok:
            return p


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rng = random.Random(101)
    points = [verification_point()] + [random_generic_params(rng) for _ in range(5)]
    for p in points:
        defects = oracle_defects(p)
        assert all(v.is_zero() for v in defects.values()), f"table defect at {p}"
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _ok(1, f"series oracle equals the closed-form table at 6 points, d = 2..6, exactly ({elapsed:.2f}s)")


def test_criterion_2_obstruction_consistency():
    t0 = time.time()
    rng = random.Random(202)
    points = [verification_point()] + [random_generic_params(rng) for _ in range(5)]
    for p in points:
        cs = build_condition_set(p)
        binds = {"b0": p.alpha0, "b1": p.alpha1, "b2": p.alpha2}
        for d in (3, 4, 5, 6):
            assert cs.F[d].evaluate(binds).is_zero(), f"F_{d}(alpha) != 0 at {p}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok(2, f"F_d(alpha) = 0 exactly, d = 3..6, at 6 parameter points ({elapsed:.2f}s)")


def test_criterion_3_defect_identity():
    t0 = time.time()
    rng = random.Random(303)
    p = verification_point()
    symbolic = build_condition_set(p)
    betas = [None] + [tuple(random_gaussian(rng) for _ in range(3)) for _ in range(3)]
    for beta in betas:
        cs = symbolic if beta is None else symbolic.at(beta)
        for d in (3, 4, 5, 6):
            defect = apply_Ld(d, p.lambda1, p.lambda2, cs.R[d]) - cs.P[d]
            assert defect.degree("w") <= 0, f"defect not w-free (d={d}, beta={beta})"
            assert defect == cs.F[d]
    q = random_generic_params(rng)
    cs = build_condition_set(q)
    for d in (3, 4, 5, 6):
        defect = apply_Ld(d, q.lambda1, q.lambda2, cs.R[d]) - cs.P[d]
        assert defect.degree("w") <= 0 and defect == cs.F[d]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok(3, f"L_d(R_d) - P_d is the w-free constant F_d, symbolic and numeric beta ({elapsed:.2f}s)")


def test_criterion_4_elimination_reproduction():
    t0 = time.time()
    p = verification_point()
    cs = build_condition_set(p)
    chain = resultant_chain(cs.F, p.alpha0)
    b0 = MPoly.var("b0")
    assert divides(b0 - p.alpha0, chain.res2[5]), "Res2_5 not divisible by (b0 - alpha0)"
    assert not chain.res3_6.is_zero(), "Res3_6 vanished"
    det, sol = linear_system_solve(cs.F[3], cs.F[4], p.alpha0)
    assert not det.is_zero(), "det34 vanished"
    assert sol == (GaussianRational(0), GaussianRational(0)), f"recovered solution {sol}"
    cert = certify(p)
    assert cert.verdict == "UNIQUE"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _ok(4, f"chain: Res2_5 divisible, Res3_6 != 0, det34 != 0, (beta1, beta2) = (0, 0), UNIQUE ({elapsed:.2f}s)")


def test_criterion_5_holonomy_formula_validation():
    t0 = time.time()
    rng = random.Random(505)
    params = [verification_point()] + [_random_float_params(rng) for _ in range(3)]
    loops = build_loops(0.5)
    worst = {d: 0.0 for d in range(2, 7)}
    for p in params:
        model = float_model(p, expand_normal_form(p, DMAX))
        for loop in (loops.gamma1, loops.gamma2):
            # the jet alone, as the laboratory integrates it, and the bundle alone
            jet = one_jet(model, loop)
            ((ends,),) = integrate_stack([loop], [bundle_part(model)])
            bundle = integrate_quadratures(ends[-1])
            for row in verify_variation_formulas(model, loop, jet, bundle):
                worst[row.degree] = max(worst[row.degree], row.residual)
                assert row.passed, f"{row.name} at {loop.label}: residual {row.residual:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    summary = ", ".join(f"deg {d}: {worst[d]:.1e} < {DEGREE_TOLERANCES[d]:.0e}" for d in range(2, 7))
    _ok(5, f"variation formulas at 4 parameter sets x 2 loops ({summary}; {elapsed:.1f}s)")


def test_criterion_6_integral_lemmas(nmodel, nloops, tp_conditions, loop_jets):
    t0 = time.time()
    lemmas = lemma_integrands(nmodel, tp_conditions, seed=606, n_samples=20)
    rows = verify_integral_lemmas(nmodel, nloops, lemmas, integrate_commutator_loops(nmodel, nloops, lemmas, seed=606))
    for row in rows:
        assert row.passed, f"{row.name}: residual {row.residual:.3e}"
    nu1 = nmodel.nu1()
    assert abs(nu1 - math.exp(2 * math.pi)) <= 1e-9 * math.exp(2 * math.pi)
    ratio = loop_jets["gamma2"].a(2) / loop_jets["gamma1"].a(2)
    rel = abs(ratio - (1 + nu1)) / abs(1 + nu1)
    assert rel < 1e-6, f"a22/a21 off by {rel:.3e}"
    elapsed = time.time() - t0
    _ok(6, f"two-loop identity + forward vanishing (20 samples each) and a22/a21 = 1 + e^(2pi) ({elapsed:.1f}s)")


def test_criterion_7_structural_invariants(nmodel, nloops, loop_jets, tp):
    t0 = time.time()
    for label in ("gamma1", "gamma2"):
        assert abs(loop_jets[label].a1 - 1.0) < 1e-8, f"a1 defect on {label}"
    rev = one_jet(nmodel, nloops.gamma1.inverse())
    assert jet_distance(rev, invert(loop_jets["gamma1"])) < 1e-7
    alt = build_loops(1 / 3)
    jet_alt = one_jet(nmodel, alt.gamma1)
    assert jet_distance(loop_jets["gamma1"], jet_alt) < 1e-7
    for d in (3, 4, 5, 6):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        assert all(not M.rows[k + 1][k].is_zero() for k in range(M.n_cols))  # the dropped-row diagonal
        for i in range(len(M.rows)):  # three bands only
            for k in range(M.n_cols):
                if i not in (k - 1, k, k + 1):
                    assert M.rows[i][k].is_zero()
    with pytest.raises(GenericityError):
        build_Md(3, GaussianRational(1), GaussianRational(0))
    elapsed = time.time() - t0
    _ok(7, f"a1 on commutators < 1e-8, reversal/radius invariance < 1e-7, M_d triangular banded ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    out1, out2 = tmp_path / "cert1.json", tmp_path / "cert2.json"
    rc1 = cli_main(["certify", "--samples", "2", "--out", str(out1)])
    rc2 = cli_main(["certify", "--samples", "2", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0, "certify on the bundled test point must exit 0"
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2, "certificates differ between identical runs"
    elapsed = time.time() - t0
    _ok(8, f"byte-identical certificates over repeated certify runs, exit 0 ({elapsed:.1f}s, {len(b1)} bytes)")
