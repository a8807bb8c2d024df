"""Time and count the numeric laboratory in process, over a fixed point set.

    PYTHONPATH=src python tools/lab_sweep.py [RUNS]

The points are the 40 sweep points, the first 40 draws of
tests/conftest.py::random_generic_params from random.Random(11), then the
ladder lambda = (1/2 + k i, 1/3 - k i) at alpha = (2-1i, 1/2, -1+1i) for
k = 1/7, 1, 2, 3, 5, 7 and 10: 47 points.  At each point the laboratory,
checks.run_numeric_verification, runs at --samples 4 --seed 3 and at
--samples 20 --seed 0, and the script prints, per point and setting:

    ms        the median over RUNS timed runs (default 3), after one
              counted run
    solved    pieces solved by the engine, over all its rounds and loops
    accepted  pieces accepted, that is the pieces of the final meshes
    rounds    engine rounds (field calls) over all passes

then the totals over the points.  Solved minus accepted is the work the
engine throws away: pieces solved again after a piece before them failed
its tail test, and the failing pieces themselves.  Run it with the src/ of
another checkout on PYTHONPATH to compare two trees on the same points.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from conftest import sweep_points  # noqa: E402

from holocert.conditions import build_condition_set  # noqa: E402
from holocert.gaussian import GaussianRational  # noqa: E402
from holocert.normalform import FoliationParams  # noqa: E402
from holocert.numerics import ODEError, checks, odepath  # noqa: E402

LADDER = (Fraction(1, 7), 1, 2, 3, 5, 7, 10)
SETTINGS = {"s4-seed3": (4, 3), "s20": (20, 0)}
COLUMNS = ("ms", "solved", "accepted", "rounds")


def points() -> list[tuple[str, FoliationParams]]:
    ladder = [
        (f"ladder {k}", FoliationParams.from_strings(GaussianRational(Fraction(1, 2), Fraction(k)),
                                                     GaussianRational(Fraction(1, 3), -Fraction(k)),
                                                     "2-1i", "1/2", "-1+1i"))
        for k in LADDER
    ]
    return [(f"sweep {i}", p) for i, p in enumerate(sweep_points(40))] + ladder


def counted(p, conditions, n_samples, seed) -> dict:
    """Pieces solved and accepted and rounds of one laboratory run.  A loop's
    accepted prefix of a block ends at its first piece that fails the tail
    test; a non-finite piece before it would be a breakdown."""
    counts = dict.fromkeys(COLUMNS[1:], 0)
    solve, tail_above = odepath._solve, odepath._tail_above

    def counting_solve(field, w, vals, dw, half, *args):
        counts["rounds"] += 1
        counts["solved"] += half.size
        return solve(field, w, vals, dw, half, *args)

    def counting_tail(derivs):
        failed = tail_above(derivs)
        counts["accepted"] += int(np.argmax(failed)) if failed.any() else failed.size
        return failed

    odepath._solve, odepath._tail_above = counting_solve, counting_tail
    try:
        checks.run_numeric_verification(p, conditions, seed=seed, n_samples=n_samples)
    finally:
        odepath._solve, odepath._tail_above = solve, tail_above
    return counts


def timed(p, conditions, n_samples, seed, runs) -> float:
    spent = []
    for _ in range(runs):
        t0 = time.perf_counter()
        checks.run_numeric_verification(p, conditions, seed=seed, n_samples=n_samples)
        spent.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(spent)


def main(argv) -> int:
    runs = int(argv[1]) if len(argv) > 1 else 3
    totals = {setting: dict.fromkeys(COLUMNS, 0.0) for setting in SETTINGS}
    print(f"{'point':12s} {'setting':9s}" + "".join(f"{c:>10s}" for c in COLUMNS))
    for name, p in points():
        conditions = build_condition_set(p)
        for setting, (n_samples, seed) in SETTINGS.items():
            try:
                row = counted(p, conditions, n_samples, seed)
                row["ms"] = timed(p, conditions, n_samples, seed, runs)
            except ODEError as exc:
                print(f"{name:12s} {setting:9s} breakdown: {exc}")
                continue
            for column in COLUMNS:
                totals[setting][column] += row[column]
            print(f"{name:12s} {setting:9s}" + "".join(f"{row[c]:10.1f}" if c == "ms" else f"{row[c]:10d}"
                                                       for c in COLUMNS))
    for setting, row in totals.items():
        print(f"{'total':12s} {setting:9s}" + "".join(f"{row[c]:10.1f}" if c == "ms" else f"{int(row[c]):10d}"
                                                   for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
