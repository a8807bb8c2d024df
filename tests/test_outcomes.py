"""The outcome of certify, at default flags, over the 55 points.

The points are the sweep (the first 40 draws of
conftest.random_generic_params from random.Random(11)); the ladder
lambda = (1/2+ki, 1/3-ki) at alpha = (2-1i, 1/2, -1+1i) for k = 1/7, 1,
2, 3, 5, 7, 9, 10, 14, 15, 20 and 40; the steep point of perfbench's
numeric-steep workload; the bundled point; and the bundled lambdas at
alpha = (0, 0, 0).  Each cell pins the verdict, the exit code, the
sorted failed rows and the breakdown the certificate reports.  A cell
known to be wrong asserts what the ROADMAP item that mends it promises,
as a strict xfail naming that item.
"""

import json
from fractions import Fraction

import pytest

from holocert.cli import EXIT_INCONCLUSIVE, EXIT_OK, main
from holocert.gaussian import GaussianRational
from holocert.normalform import FoliationParams, verification_point

from conftest import sweep_points

LADDER = (Fraction(1, 7), 1, 2, 3, 5, 7, 9, 10, 14, 15, 20, 40)


def _points() -> dict:
    points = {f"sweep {i}": p.to_dict() for i, p in enumerate(sweep_points(40))}
    for k in LADDER:
        lambdas = GaussianRational(Fraction(1, 2), Fraction(k)), GaussianRational(Fraction(1, 3), -Fraction(k))
        points[f"ladder {k}"] = FoliationParams.from_strings(*lambdas, "2-1i", "1/2", "-1+1i").to_dict()
    points["steep"] = {"lambda1": "1/2-3i", "lambda2": "1/3+5/2i", "alpha": ["2-1i", "1/2", "-1+1i"]}
    points["bundled"] = verification_point().to_dict()
    points["alpha 0"] = {**verification_point().to_dict(), "alpha": ["0", "0", "0"]}
    return points


POINTS = _points()

# (verdict, exit code, sorted failed rows, breakdown); every other point
# gives UNIQUE with every row passing
PASSED = ("UNIQUE", EXIT_OK, [], None)
OUTCOMES = {
    "ladder 15": ("UNIQUE", EXIT_INCONCLUSIVE, [],
                  "row 'commutator-convention': jet composition overflows double precision"),
    "ladder 20": ("UNIQUE", EXIT_INCONCLUSIVE, [], "the holonomy jet of mu2 overflows double precision"),
    "ladder 40": ("UNIQUE", EXIT_INCONCLUSIVE, [], "loop 'gamma1', segment 1: non-finite state"),
}

# point -> the ROADMAP item that mends it
WRONG = {
    # a solvable holonomy group passes as UNIQUE with every row passing
    "alpha 0": "item 1",
    # commutator-convention fails where the jets have lost digits
    "ladder 7": "item 2",
    "ladder 9": "item 2",
    "ladder 10": "item 2",
    "ladder 14": "item 2",
}


def _cells():
    for name in POINTS:
        marks = [pytest.mark.xfail(strict=True, reason=f"ROADMAP {WRONG[name]}")] if name in WRONG else []
        yield pytest.param(name, marks=marks, id=name)


def _certify(name, tmp_path, capsys):
    params, out = tmp_path / "params.json", tmp_path / "cert.json"
    params.write_text(json.dumps(POINTS[name]))
    code = main(["certify", "--params", str(params), "--out", str(out)])
    capsys.readouterr()
    cert = json.loads(out.read_text())
    numeric = cert["numeric"]
    return cert["verdict"], code, sorted(numeric.get("failed", [])), numeric.get("breakdown")


@pytest.mark.parametrize("name", _cells())
def test_certify_outcome(name, tmp_path, capsys):
    verdict, code, failed, breakdown = _certify(name, tmp_path, capsys)
    if name == "alpha 0":
        # item 1: not UNIQUE without a reason
        assert (verdict, code) != ("UNIQUE", EXIT_OK)
    elif WRONG.get(name) == "item 2":
        # item 2: no row fails from lost digits alone
        assert failed == []
    else:
        assert (verdict, code, failed, breakdown) == OUTCOMES.get(name, PASSED)
