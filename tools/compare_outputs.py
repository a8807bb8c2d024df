"""Compare the command-line outputs of this tree with another checkout's, byte for byte.

    python tools/compare_outputs.py PARENT_CHECKOUT

Runs six commands at 48 points, once with this tree's src/ and once with
PARENT_CHECKOUT's src/ on PYTHONPATH, with the same command line in the
same temporary directory:

    expand                                    (the c_d, S_d table)
    certify                                   (default flags)
    certify --skip-numeric                    (the exact certificate alone)
    conditions                                (F_3..F_6)
    verify-numeric --samples 4 --seed 3
    verify-numeric --samples 0

The points are the first 40 draws of tests/conftest.py::random_generic_params
from random.Random(11), then lambda = (1/2 + k i, 1/3 - k i) at
alpha = (2-1i, 1/2, -1+1i) for k = 1/7, 1, 2, 3, 5, 10, 20, 40, a ladder
from tame multipliers to numerical breakdowns.  The six commands also run
at two inputs that exit 2, a nongeneric point (lambda1 = 1/3) and a file
whose alpha is a string, so the error paths are compared as well.
Each command runs once more at default flags without --params, so the
default point is loaded as the command line loads it.

Every run's exit code, stdout, stderr and written file are compared; each
run that differs is listed with what differs.  Exits 1 if any run differs,
0 if none does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import random_generic_params  # noqa: E402

from holocert.gaussian import GaussianRational  # noqa: E402
from holocert.normalform import FoliationParams  # noqa: E402

COMMANDS = {
    "expand": ["expand"],
    "certify": ["certify"],
    "exact": ["certify", "--skip-numeric"],
    "conditions": ["conditions"],
    "numeric-s4-seed3": ["verify-numeric", "--samples", "4", "--seed", "3"],
    "numeric-s0": ["verify-numeric", "--samples", "0"],
}
DEFAULT_POINT = {"expand": ["expand"], "conditions": ["conditions"], "verify-numeric": ["verify-numeric"],
                 "certify": ["certify"], "exact": ["certify", "--skip-numeric"]}
# parameter files that every command refuses with exit code 2
REFUSED = {
    "nongeneric": '{"lambda1": "1/3", "lambda2": "2i", "alpha": ["1", "0", "0"]}',
    "misshapen": '{"lambda1": "2-1i", "lambda2": "2i", "alpha": "100"}',
}
LADDER = (Fraction(1, 7), 1, 2, 3, 5, 10, 20, 40)
WORKERS = 2  # each worker runs one command at a time, the two trees in turn


def points() -> list[dict]:
    rng = random.Random(11)
    drawn = [random_generic_params(rng).to_dict() for _ in range(40)]
    ladder = [
        FoliationParams.from_strings(GaussianRational(Fraction(1, 2), Fraction(k)),
                                     GaussianRational(Fraction(1, 3), -Fraction(k)), "2-1i", "1/2", "-1+1i").to_dict()
        for k in LADDER
    ]
    return drawn + ladder


def run(src: Path, argv: list[str], out: Path, cwd: Path) -> tuple:
    """(exit code, stdout, stderr, bytes written or None) of one command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "holocert.cli", *argv, "--out", str(out)],
                          cwd=cwd, env=env, capture_output=True)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve() / "src"
    if not (parent / "holocert").is_dir():
        print(f"compare_outputs: no holocert package under {parent}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        jobs = [(f"default-{name}", command) for name, command in DEFAULT_POINT.items()]
        inputs = {f"point{i:02d}": json.dumps(point) for i, point in enumerate(points())} | REFUSED
        for label, text in inputs.items():
            params = tmp / f"{label}.json"
            params.write_text(text)
            jobs += [(f"{label}-{name}", [*command, "--params", params.name]) for name, command in COMMANDS.items()]

        def compare(job):
            name, command = job
            out = tmp / f"{name}.out"
            want, got = (run(src, command, out, tmp) for src in (parent, ROOT / "src"))
            return name, [part for part, a, b in zip(("exit code", "stdout", "stderr", "output"), want, got) if a != b]

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(compare, jobs))
    differing = [(name, parts) for name, parts in results if parts]
    for name, parts in differing:
        print(f"differs: {name}: {', '.join(parts)}")
    n_points = (len(results) - len(DEFAULT_POINT)) // len(COMMANDS) - len(REFUSED)
    print(f"{len(results)} runs compared, at {n_points} points, {len(REFUSED)} refused inputs and the default point, "
          f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
