import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from holocert.numerics.checks import (
    CONVENTION,
    draw_lemma_samples,
    integrate_commutator_loops,
    lemma_integrands,
    numeric_summary,
    run_numeric_verification,
    structural_loops,
    structural_rows,
    verify_integral_lemmas,
    verify_variation_formulas,
)
from holocert.numerics.jets import HolonomyJet
from holocert.numerics.odepath import integrate_loop

from conftest import one_loop, sweep_points

STEEP = {"lambda1": "1/2-3i", "lambda2": "1/3+5/2i", "alpha": ["2-1i", "1/2", "-1+1i"]}  # the benchmark's steep point


def _lemma_rows(model, loops, conditions, seed, n_samples):
    """The three lemma families' rows, read off the commutator loops' stacked integrations."""
    lemmas = lemma_integrands(model, conditions, seed, n_samples)
    return verify_integral_lemmas(model, loops, lemmas, integrate_commutator_loops(model, loops, lemmas, seed))


def _antiderivative_rows(model, loops, conditions, seed):
    """With no samples, the lemma rows are the antiderivative rows alone."""
    return _lemma_rows(model, loops, conditions, seed, n_samples=0)


def test_integral_lemma_rows_pass(nmodel, nloops, tp_conditions):
    rows = _lemma_rows(nmodel, nloops, tp_conditions, seed=3, n_samples=3)
    assert len(rows) == 3 + 3 + 4
    for row in rows:
        assert row.passed, f"{row.name}: residual {row.residual:.3e}"


def test_antiderivative_rows_cover_all_degrees(nmodel, nloops, tp_conditions):
    rows = _antiderivative_rows(nmodel, nloops, tp_conditions, seed=0)
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
    rows = _antiderivative_rows(nmodel, nloops, planted, seed=0)
    assert [r.degree for r in rows if not r.passed] == [d]


def test_forward_vanishing_with_constant_preimage(nmodel, nloops):
    # R = 1, d = 3: the image polynomial is (B3 - 4) w + A3 and its loop
    # integral against phi1^2 / r^3 vanishes
    from numpy.polynomial import Polynomial

    from holocert.normalform import L_d
    from holocert.numerics.holonomy import integrate_stack, phi_part

    w = Polynomial([0.0, 1.0])
    P = L_d(3, nmodel.lam1, nmodel.lam2, Polynomial([1.0 + 0j]), w, Polynomial.deriv).coef
    A3 = 2 * (nmodel.lam2 - nmodel.lam1)
    B3 = 2 * (nmodel.lam1 + nmodel.lam2)
    assert np.allclose(P, [A3, B3 - 4.0])
    ((ends,),) = integrate_stack([nloops.gamma1], [phi_part(nmodel, [3], [P])])
    _, values, _, masses = ends[-1]
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
    _, i1, _, m1 = one_loop(nloops.gamma1, [1.0], [0.0], [P], field)[-1]
    _, i2, _, m2 = one_loop(nloops.gamma2, [1.0], [0.0], [P], field)[-1]
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


def test_planted_defect_fails_only_its_own_row(nmodel, nloops, tp_conditions):
    # corrupt one two-loop polynomial of the samples part on gamma2 only,
    # and one forward image of the samples part on gamma1, which holds the
    # two-loop polynomials first; both parts ride in the stacked integrations
    # with every other family, and each defect must fail its own row while
    # every neighbour in the same part still passes
    n_samples, bad_two_loop, bad_forward = 5, 1, 3
    lemmas = lemma_integrands(nmodel, tp_conditions, seed=3, n_samples=n_samples)

    def planted(part, bad):
        return replace(part, coeffs=[c + 1.0 if k == bad else c for k, c in enumerate(part.coeffs)])

    corrupted = replace(
        lemmas, gamma1=planted(lemmas.gamma1, n_samples + bad_forward), gamma2=planted(lemmas.gamma2, bad_two_loop)
    )
    on = integrate_commutator_loops(nmodel, nloops, corrupted, seed=3)
    rows = verify_integral_lemmas(nmodel, nloops, lemmas, on)
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
    rows = _lemma_rows(nmodel, nloops, tp_conditions, seed=3, n_samples=4)
    assert any(not r.passed for r in rows if r.name.startswith("integral-lemma-two-loops"))


@pytest.mark.parametrize("n_samples, integrations", [(0, 7), (1, 7)])
def test_every_family_integrates_through_integrate_loop(tp, tp_conditions, monkeypatch, n_samples, integrations):
    # integrate_loop is counted where holonomy binds it, and checks binds it
    # nowhere, so a family with a right-hand side of its own would be
    # missed.  The jets of gamma1, gamma2, mu1, reversed gamma1 and gamma1
    # at the second radius share one lockstep pass, each on its own mesh;
    # those of mu2 and mu2*mu1, gamma1's first 3 and 6 segments, are read
    # off gamma1's.  gamma1 and gamma2 are integrated once more each,
    # with every other family stacked on them: the bundle, the order-2 jet
    # at another alpha, the lemma samples (none with --samples 0, and the
    # stacks stay) and, on gamma1, the antiderivative stack.
    from holocert.numerics import checks, holonomy

    passes = []

    def counting(loops, *args):
        passes.append([loop.label for loop in loops])
        return integrate_loop(loops, *args)

    assert "integrate_loop" not in vars(checks)
    monkeypatch.setattr(holonomy, "integrate_loop", counting)
    run_numeric_verification(tp, tp_conditions, seed=0, n_samples=n_samples)
    assert sum(map(len, passes)) == integrations
    assert passes == [
        ["gamma1", "gamma2", "mu1", "gamma1^-1", "gamma1@0.333333"],
        ["gamma1"],
        ["gamma2"],
    ]


@pytest.mark.parametrize(
    "name, n_samples, seed, counts",
    [("bundled", 4, 3, (9, 108, 21)), ("steep", 0, 0, (9, 108, 21))],
)
def test_each_round_takes_whole_refinement_generations(monkeypatch, name, n_samples, seed, counts):
    # BLOCK exceeds every pending list of both workloads, so a round solves
    # every pending piece of every loop in its pass, and a pass takes as
    # many rounds as its deepest loop has refinement generations.  Counted
    # per certify: field calls (one per round), _CUMSUM products (one per
    # loop, round and level) and tail tests (one per loop and round).
    import numpy
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams, verification_point
    from holocert.numerics import odepath

    calls = {"field": 0, "products": 0, "tails": 0}
    solve, tail_above = odepath._solve, odepath._tail_above

    class CountingNumpy:
        def __getattr__(self, attr):
            return getattr(numpy, attr)

        def matmul(self, a, b, **kwargs):
            calls["products"] += b is odepath._CUMSUM
            return numpy.matmul(a, b, **kwargs)

    def counting_solve(field, *args):
        def counted(*call):
            calls["field"] += 1
            return field(*call)

        return solve(counted, *args)

    def counting_tail(derivs):
        calls["tails"] += 1
        return tail_above(derivs)

    monkeypatch.setattr(odepath, "np", CountingNumpy())
    monkeypatch.setattr(odepath, "_solve", counting_solve)
    monkeypatch.setattr(odepath, "_tail_above", counting_tail)
    steep = {"lambda1": "1/2-3i", "lambda2": "1/3+5/2i", "alpha": ["2-1i", "1/2", "-1+1i"]}
    p = verification_point() if name == "bundled" else FoliationParams.from_dict(steep)
    run_numeric_verification(p, build_condition_set(p), seed=seed, n_samples=n_samples)
    assert (calls["field"], calls["products"], calls["tails"]) == counts


@pytest.mark.parametrize("name, n_samples, seed", [("bundled", 4, 3), ("steep", 0, 0), ("sweep 28", 0, 0)])
def test_every_block_holds_at_least_two_pieces(monkeypatch, name, n_samples, seed):
    # a block takes BLOCK pieces off the front of a loop's pending list, or
    # the whole list where one piece would be left behind; with PIECES = 2
    # and every failing piece halved, no block is a lone piece.  At sweep
    # point 28 gamma2's stack has BLOCK + 1 pieces pending, solved in one
    # round instead of a full block and a lone piece
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams, verification_point
    from holocert.numerics import odepath

    sizes, solve = [], odepath._solve

    def recording(field, w, vals, dw, half, starts, blocks, nb):
        sizes.extend(blocks)
        return solve(field, w, vals, dw, half, starts, blocks, nb)

    monkeypatch.setattr(odepath, "_solve", recording)
    p = {"bundled": verification_point(), "steep": FoliationParams.from_dict(STEEP)}.get(name) or sweep_points(29)[28]
    run_numeric_verification(p, build_condition_set(p), seed=seed, n_samples=n_samples)
    assert min(sizes) >= 2
    if name == "sweep 28":
        assert odepath.BLOCK + 1 in sizes


def test_the_jets_do_not_depend_on_the_samples():
    # the jets are integrated alone, so the samples drawn cannot move their
    # meshes: at this sweep point a_6 of gamma1 sits at about 1e-16 of its
    # mass (ROADMAP item 2), so a row read over every degree can move with
    # a mesh that the samples move.  Every row that reads only
    # the jets must be the same bit for bit at every sample count and seed:
    # the structural rows but the two that read the order-2 jets at another
    # alpha, which follow the seed.
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams

    p = FoliationParams.from_dict({"lambda1": "-4-3i", "lambda2": "2-2/3i", "alpha": ["1-1/2i", "1", "1+2i"]})
    conditions = build_condition_set(p)
    others = ("variation-formula", "integral-lemma", "forward-vanishing", "antiderivative-identity", "a2-independent")
    jet_rows = []
    for n_samples, seed in ((0, 0), (4, 3), (20, 0)):
        report = run_numeric_verification(p, conditions, seed=seed, n_samples=n_samples)
        jet_rows.append((report["convention"], [row for row in report["checks"] if not row["name"].startswith(others)]))
    assert len(jet_rows[0][1]) == 9
    assert jet_rows[1] == jet_rows[0] and jet_rows[2] == jet_rows[0]


def test_the_convention_is_asserted_across_the_sweep():
    # the two readings of the commutator differ in a_2 at O(1), while a_6
    # of gamma1 can sit at 1e-16 of its mass: a contest over every degree
    # went to the other reading at sweep points 3 and 28.  On a_2 the fixed
    # reading's miss is at most 3.6e-10 of the other's, at ladder k = 5, so
    # sweep points 0-19 and 28, the steep point and that ladder point must
    # each report CONVENTION with every row passing.  The jets do not depend
    # on the samples, so none are drawn.
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams

    sweep = sweep_points(29)
    ladder = {"lambda1": "1/2+5i", "lambda2": "1/3-5i", "alpha": ["2-1i", "1/2", "-1+1i"]}
    points = [(f"sweep {k}", sweep[k]) for k in (*range(20), 28)]
    points += [("steep", FoliationParams.from_dict(STEEP)), ("ladder 5", FoliationParams.from_dict(ladder))]
    for name, p in points:
        report = run_numeric_verification(p, build_condition_set(p), seed=0, n_samples=0)
        assert report["convention"] == CONVENTION, name
        assert report["all_pass"], f"{name}: {report['failed']}"


@pytest.mark.parametrize(
    "point",
    [
        {"lambda1": "2-1i", "lambda2": "0+2i", "alpha": ["1", "0", "0"]},  # the bundled point
        {"lambda1": "1/2-3i", "lambda2": "1/3+5/2i", "alpha": ["2-1i", "1/2", "-1+1i"]},  # steep, jets up to 1e30
    ],
)
def test_each_stacked_part_matches_its_lone_integration(point, monkeypatch):
    # the stacked state holds the parts level by level, and only the split
    # map puts each part's integrals back in the part's own order: a
    # misplaced index hands a row family another part's integral, off by
    # O(1), while a part integrated alone differs from its share of the
    # stack only by the finer mesh that the other parts' tails ask for.
    # Every integral of every part is compared at every segment end: the
    # bundle, the order-2 jet at another alpha, whose a_2 is p1 p_2, the
    # samples and the antiderivative values; and, along mu1, an order-6 jet
    # stacked on the bundle, a part of five levels beside one of two.
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams
    from holocert.numerics import checks
    from holocert.numerics.holonomy import bundle_part, float_model, integrate_stack, variation_part
    from holocert.numerics.jets import ORDER
    from holocert.numerics.loops import RADIUS, build_loops

    p = FoliationParams.from_dict(point)
    conditions = build_condition_set(p)
    model, loops = float_model(p, conditions.e_alpha), build_loops(RADIUS)
    stacks = []

    def recording(loops, parts):
        passed = integrate_stack(loops, parts)
        stacks.extend((loop, parts, ends) for loop, ends in zip(loops, passed))
        return passed

    monkeypatch.setattr(checks, "integrate_stack", recording)
    integrate_commutator_loops(model, loops, lemma_integrands(model, conditions, seed=3, n_samples=4), seed=3)
    assert [(loop.label, [part.levels for part in parts]) for loop, parts, _ in stacks] == [
        ("gamma1", [(5, 8), (1,), (8,), (4,)]),
        ("gamma2", [(5, 8), (1,), (4,)]),
    ]
    recording([loops.mu1], [variation_part(model, ORDER), bundle_part(model)])
    for loop, parts, stacked in stacks:
        for part, ends in zip(parts, stacked):
            ((lone,),) = integrate_stack([loop], [part])
            assert len(ends) == len(lone) == len(loop.segments)
            for (b, y, mb, m), (lone_b, lone_y, _, lone_m) in zip(ends, lone):
                assert abs(b[0] - lone_b[0]) <= 1e-12 * max(1.0, mb[0])
                assert y.shape == lone_y.shape
                assert np.all(np.abs(y - lone_y) <= 1e-12 * np.maximum(1.0, np.maximum(m, lone_m)))


def test_a_planted_discretization_defect_fails_the_variation_formula_rows(tp, tp_conditions, monkeypatch):
    # the jet and the bundle are integrated by the same engine, so a defect
    # in its quadrature could move both alike; a relative 1e-5 on the
    # weights of each piece's end (the last column of _CUMSUM) moves them
    # apart, and degrees 2 and 3 fail on both loops
    from holocert.numerics import odepath

    cumsum = odepath._CUMSUM.copy()
    cumsum[:, -1] *= 1 + 1e-5
    monkeypatch.setattr(odepath, "_CUMSUM", cumsum)
    report = run_numeric_verification(tp, tp_conditions, seed=3, n_samples=4)
    failed = [(row["name"], row["loop"]) for row in report["checks"] if not row["pass"]]
    for loop in ("gamma1", "gamma2"):
        for d in (2, 3):
            assert (f"variation-formula-deg{d}", loop) in failed


def test_variation_rows_report_every_degree(nmodel, nloops, loop_jets, gamma_bundles):
    rows = verify_variation_formulas(nmodel, nloops.gamma1, loop_jets["gamma1"], gamma_bundles["gamma1"])
    assert [r.degree for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.passed for r in rows)
    # residual magnitudes are recorded, not just booleans
    assert all(0.0 <= r.residual < r.tolerance for r in rows)


def test_structural_rows_detect_convention(nmodel, nloops, loop_jets, beta_jets):
    rows = structural_rows(nmodel, structural_loops(nloops), loop_jets, beta_jets)
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


def test_a_perturbed_a2_of_gamma1_fails_exactly_the_rows_that_read_it(nmodel, nloops, loop_jets, beta_jets):
    planted = _planted(loop_jets, "gamma1", 2, lambda a: 1e-3 * abs(a))
    rows = structural_rows(nmodel, structural_loops(nloops), planted, beta_jets)
    assert [r.name for r in rows if not r.passed] == [
        "reversed-loop-is-inverse-jet",
        "commutator-convention",
        "radius-independence",
        "a22-ratio-is-1-plus-nu1",
        "a2-independent-of-beta[gamma1]",
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: jet rows are graded against propagated masses, under which a 10 % defect passes",
)
@pytest.mark.parametrize("label, d", [("gamma1", 6)])
def test_a_ten_percent_defect_fails_a_structural_row(nmodel, nloops, loop_jets, beta_jets, label, d):
    rows = structural_rows(nmodel, structural_loops(nloops), _planted(loop_jets, label, d, lambda a: 0.1 * a), beta_jets)
    assert not all(r.passed for r in rows)


@pytest.mark.parametrize("point", [None, STEEP], ids=["bundled", "steep"])
def test_a_ten_percent_defect_on_a2_of_mu1_fails_the_convention_row(point, monkeypatch):
    # +10 % on a_2 of mu1 passes every row graded against propagated masses
    # at both points; commutator-convention reads a_2 at raw scale and fails
    from holocert.conditions import build_condition_set
    from holocert.normalform import FoliationParams, verification_point
    from holocert.numerics import checks

    integrate = checks.integrate_variations

    def planted(model, loops):
        jets = dict(zip([lp.label for lp in loops], integrate(model, loops)))
        return list(_planted(jets, "mu1", 2, lambda a: 0.1 * a).values())

    monkeypatch.setattr(checks, "integrate_variations", planted)
    p = verification_point() if point is None else FoliationParams.from_dict(point)
    report = run_numeric_verification(p, build_condition_set(p), seed=0, n_samples=0)
    assert report["failed"] == ["commutator-convention"]


def test_commutator_tangency_is_near_rounding(nmodel, nloops, loop_jets, beta_jets):
    # at the default tolerance a1 = 1 holds to a few ulps on gamma1, five
    # orders of magnitude under the row's 1e-8 budget
    rows = structural_rows(nmodel, structural_loops(nloops), loop_jets, beta_jets)
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
