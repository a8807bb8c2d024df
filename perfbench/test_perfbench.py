"""Every check of the benchmark can fail: planted defects must be rejected.

    python3 -m pytest perfbench/test_perfbench.py -q

Exact checks run on a real certificate of the bundled point; numeric checks
on a report laid out like the laboratory's, with one defect planted at a time.
"""

from __future__ import annotations

import copy
import random
import sys

import pytest

import oracle
import run

cli = run.load_program()

from holocert.elimination import certify  # noqa: E402
from holocert.mpoly import MPoly  # noqa: E402
from holocert.normalform import FoliationParams  # noqa: E402
from holocert.numerics.checks import numeric_summary  # noqa: E402


@pytest.fixture(scope="module")
def exact():
    cert = certify(FoliationParams.from_dict(run.BUNDLED))
    return cert.to_dict(), dict(cert.conditions.F)


def test_bundled_certificate_passes(exact):
    doc, F = exact
    assert oracle.check_exact(doc, F, run.BUNDLED) == ([], [])


@pytest.mark.parametrize(
    "plant, expect",
    [
        (lambda doc, F: doc.update(res3_6="1" + doc["res3_6"]), "Res3_6 differs"),
        (lambda doc, F: doc.update(det34="1"), "det34 differs"),
        (lambda doc, F: doc.update(solution={"beta1": "0", "beta2": "1"}), "(beta1, beta2) differs"),
        (lambda doc, F: doc["params"].update(lambda1="2+1i"), "not the requested point"),
        (lambda doc, F: F.update({3: F[3] + MPoly.const(1)}), "F_3(alpha) != 0"),
        (lambda doc, F: F.pop(6), "no F_3..F_6"),
    ],
)
def test_exact_defects_are_wrong(exact, plant, expect):
    doc, F = copy.deepcopy(exact[0]), dict(exact[1])
    plant(doc, F)
    failures, wrong = oracle.check_exact(doc, F, run.BUNDLED)
    assert any(expect in w for w in wrong), wrong


def test_inconclusive_verdict_fails(exact):
    doc = copy.deepcopy(exact[0])
    doc.update(verdict="INCONCLUSIVE", reasons=["Res3_6 = 0"])
    failures, wrong = oracle.check_exact(doc, exact[1], run.BUNDLED)
    assert failures and not wrong


def _numeric(samples=4, seed=3):
    """A report laid out like run_numeric_verification's, every row passing."""
    degrees = [3, 4, 5, 6]
    rows = []
    for name in oracle.expected_rows(samples):
        family = name.split("[")[0]
        k = int(name[name.index("[") + 1:-1]) if family in ("integral-lemma-two-loops", "forward-vanishing") else 0
        big = name in oracle.LARGER_IS_BETTER
        rows.append({"name": name, "loop": "gamma1", "degree": degrees[k % 4], "residual": 1.0 if big else 1e-9,
                     "tolerance": 1e-6, "pass": True})
    report = {"radius": 0.5, "rtol": 1e-12, "seed": seed, "convention": oracle.CONVENTION, "checks": rows,
              "n_checks": len(rows), "failed": [], "all_pass": True}
    return {"numeric": numeric_summary(report)}, report


def test_numeric_layout_passes():
    doc, report = _numeric()
    assert oracle.check_numeric(doc, report, 4, 3, all_degrees=True) == ([], [])
    assert oracle.expected_n_checks(4) == 10 + 2 * 4 + 4 + 11


def _drop_row(doc, report):
    del report["checks"][12]


def _flip_pass(doc, report):
    report["checks"][0]["pass"] = False


def _flip_convention(doc, report):
    wrong = oracle.CONVENTION.replace("Delta_b o Delta_a", "Delta_a o Delta_b")
    report["convention"] = doc["numeric"]["convention"] = wrong


def _failing_row(doc, report):
    report["checks"][3].update(residual=1.0, **{"pass": False})


def _one_degree(doc, report):
    for r in report["checks"]:
        if r["name"].startswith("forward-vanishing"):
            r["degree"] = 5


def _other_seed(doc, report):
    doc["numeric"]["seed"] = 0


@pytest.mark.parametrize(
    "plant, kind, expect",
    [
        (_drop_row, "wrong", "expected layout"),
        (_drop_row, "wrong", "n_checks"),
        (_flip_pass, "wrong", "says pass=False"),
        (_flip_convention, "failures", "convention fault"),
        (_failing_row, "failures", "fails: residual"),
        (_one_degree, "wrong", "not 3..6"),
        (_other_seed, "wrong", "other settings"),
    ],
)
def test_numeric_defects_are_rejected(plant, kind, expect):
    doc, report = _numeric()
    plant(doc, report)
    failures, wrong = oracle.check_numeric(doc, report, 4, 3, all_degrees=True)
    found = failures if kind == "failures" else wrong
    assert any(expect in x for x in found), (failures, wrong)


def test_error_and_silent_exit_are_caught(exact):
    op = run.Op("t", run.BUNDLED, None)
    assert run.check(run.Result(op, 1.0, False, None, "ODEError: boom"))[0]
    res = run.Result(op, 1.0, False, 1, None, copy.deepcopy(exact[0]), exact[1])
    assert any("exit 1" in w for w in run.check(res)[1])


def test_points_follow_the_test_suite_generator():
    sys.path.insert(0, str(run.ROOT / "tests"))
    from conftest import random_generic_params

    for seed in range(5):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert run.random_generic_point(a) == random_generic_params(b).to_dict()


def test_tracer_restores_the_program():
    import holocert.mpoly as mpoly
    from layertrace import Tracer

    resultant, mul = mpoly.resultant, MPoly.__mul__
    tracer = Tracer()
    tracer.install()
    certify(FoliationParams.from_dict(run.BUNDLED))
    tracer.uninstall()
    assert mpoly.resultant is resultant and MPoly.__mul__ is mul
    (op,) = tracer.per_op()
    assert op["calls"]["mpoly.resultant"] == 6
    assert op["calls"]["elimination.resultant_chain"] == 1
    assert op["counts"]["mpoly.mul"] > 0 and op["counts"]["gaussian.mul"] > 0
    assert op["self"]["mpoly"] > 0
