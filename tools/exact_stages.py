"""Time the stages of the exact half in process, over a fixed point set.

    PYTHONPATH=src python tools/exact_stages.py [RUNS]

The points are the first 12 draws of tests/conftest.py::random_generic_params
from random.Random(0).  Each run times, summed over the 12 points:

    expand       expand_normal_form(p, 6) and expand_with_beta(p)
    conditions   build_condition_set(p), and within it
      build_Md, solve_Rd, functional_Fd
    F(alpha)     the four F_d(alpha) tests of certify
    chain        resultant_chain(F, alpha0)
    certify      elimination.certify(p), end to end

and prints, per stage, the median and the range over RUNS runs (default 5),
in milliseconds, with the apply_Ld calls per certify.  The stages are timed
on the same points before and after a change, unlike the traced medians of
perfbench, whose exact-sweep rounds draw different points per run.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_generic_params  # noqa: E402

from holocert import conditions, elimination, obstruction  # noqa: E402
from holocert.normalform import DMAX, expand_normal_form, expand_with_beta  # noqa: E402

POINTS = 12
INNER = ("build_Md", "solve_Rd", "functional_Fd")


def one_run(points) -> dict:
    """Milliseconds per stage, summed over the points."""
    spent = dict.fromkeys(("expand", "conditions", *INNER, "F(alpha)", "chain", "certify"), 0.0)
    originals = {name: getattr(conditions, name) for name in INNER}

    def timed(name):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += time.perf_counter() - t0

        return call

    for name in INNER:
        setattr(conditions, name, timed(name))
    try:
        for p in points:
            t0 = time.perf_counter()
            expand_normal_form(p, DMAX)
            expand_with_beta(p)
            t1 = time.perf_counter()
            cs = conditions.build_condition_set(p)
            t2 = time.perf_counter()
            alpha = {"b0": p.alpha0, "b1": p.alpha1, "b2": p.alpha2}
            for F in cs.F.values():
                F.evaluate(alpha)
            t3 = time.perf_counter()
            elimination.resultant_chain(cs.F, p.alpha0)
            t4 = time.perf_counter()
            spent["expand"] += t1 - t0
            spent["conditions"] += t2 - t1
            spent["F(alpha)"] += t3 - t2
            spent["chain"] += t4 - t3
    finally:
        for name, f in originals.items():
            setattr(conditions, name, f)
    for p in points:
        t0 = time.perf_counter()
        elimination.certify(p)
        spent["certify"] += time.perf_counter() - t0
    return {stage: 1e3 * s for stage, s in spent.items()}


def apply_Ld_calls(p) -> int:
    calls = 0
    original = obstruction.apply_Ld

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    obstruction.apply_Ld = counting
    try:
        elimination.certify(p)
    finally:
        obstruction.apply_Ld = original
    return calls


def main(argv) -> int:
    runs = int(argv[1]) if len(argv) > 1 else 5
    rng = random.Random(0)
    points = [random_generic_params(rng) for _ in range(POINTS)]
    one_run(points)  # warm-up
    results = [one_run(points) for _ in range(runs)]
    print(f"{POINTS} points of random.Random(0), {runs} runs, ms summed over the points: median [min, max]")
    for stage in results[0]:
        values = [r[stage] for r in results]
        print(f"  {stage:14s} {statistics.median(values):9.1f} [{min(values):.1f}, {max(values):.1f}]")
    print(f"  apply_Ld calls per certify: {apply_Ld_calls(points[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
