"""holocert benchmark: three single-threaded workloads through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` and from nowhere else.  Workloads (see README.md for why each):

    certify-bundled  holocert certify at the bundled point
    exact-sweep      holocert certify --skip-numeric over seeded generic points
    numeric-steep    holocert certify at a steep point, few lemma samples

A run repeats whole rounds of operations until ``--seconds`` have passed,
then checks every output against the oracle in ``oracle.py``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
each operation once untraced and once traced and reports the per-layer
metrics of ``layertrace.py``.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  Result and trace files go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from layertrace import LAYERS, Tracer
from speed import REFERENCE_S, SpeedTrack

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BUNDLED = {"lambda1": "2-1i", "lambda2": "0+2i", "alpha": ["1", "0", "0"]}
STEEP = {"lambda1": "1/2-3i", "lambda2": "1/3+5/2i", "alpha": ["2-1i", "1/2", "-1+1i"]}
# Four lemma samples per family at numeric seed 3 cover every degree 3..6
# in both families (seed 0 needs nine); see README.md.
BUNDLED_SAMPLES, BUNDLED_NUMERIC_SEED = 4, 3
STEEP_SAMPLES, STEEP_NUMERIC_SEED = 0, 0
SWEEP_ROUND = 4  # points per exact-sweep round
SETUP_PROBES = 7  # fresh processes timed per run for setup_s

WORKLOADS = ("certify-bundled", "exact-sweep", "numeric-steep")


def load_program():
    """holocert.cli from this checkout's src/, or exit when it is not there."""
    if not (SRC / "holocert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no holocert source under {SRC}")
    sys.path.insert(0, str(SRC))
    import holocert
    import holocert.cli

    if Path(holocert.__file__).resolve().parent != (SRC / "holocert").resolve():
        sys.exit(f"perfbench: holocert imported from {holocert.__file__}, not from {SRC}")
    return holocert.cli


# -- inputs ------------------------------------------------------------------------


def random_generic_point(rng: random.Random):
    """A random exact point passing the exact genericity checks.

    Same draws, in the same order, as tests/conftest.py::random_generic_params:
    lambdas with nonzero imaginary part (re in [-4, 4]/[1, 3], im in
    {+-1, +-2, +-3}/[1, 3]) and alphas with parts in [-3, 3]/[1, 3].
    """
    from holocert.gaussian import GaussianRational
    from holocert.normalform import FoliationParams, validate_genericity

    def gaussian():
        (an, ad), (bn, bd) = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        return GaussianRational(Fraction(an, ad), Fraction(bn, bd))

    while True:
        def lam():
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            return GaussianRational(re, im)

        p = FoliationParams(lam(), lam(), gaussian(), gaussian(), gaussian())
        if validate_genericity(p).exact_ok:
            return p.to_dict()


@dataclass
class Op:
    """One `holocert certify` call and what its output is checked against."""

    label: str
    point: dict
    samples: int | None  # None: --skip-numeric
    numeric_seed: int = 0
    argv: list = field(default_factory=list)

    @property
    def out(self) -> Path:
        return OUT / "work" / f"{self.label}.cert.json"


def _op(label, point, samples, numeric_seed=0, bundled=False) -> Op:
    op = Op(label, point, samples, numeric_seed)
    argv = ["certify", "--out", str(op.out)]
    if not bundled:
        params = OUT / "work" / f"{label}.params.json"
        params.write_text(json.dumps(point))
        argv += ["--params", str(params)]
    if samples is None:
        argv.append("--skip-numeric")
    else:
        argv += ["--samples", str(samples), "--seed", str(numeric_seed)]
    op.argv = argv
    return op


class Workload:
    """Set-up (inputs from the seed) and the operations of each round.

    The first exact-sweep round is drawn during set-up, so that setup_s
    covers point generation; later rounds are drawn between operations.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        if name == "exact-sweep":
            self._rng = random.Random(seed)
            self._next = self._sweep_round(0)
        elif name == "certify-bundled":
            self._fixed = [_op("bundled", BUNDLED, BUNDLED_SAMPLES, BUNDLED_NUMERIC_SEED, bundled=True)]
        elif name == "numeric-steep":
            self._fixed = [_op("steep", STEEP, STEEP_SAMPLES, STEEP_NUMERIC_SEED)]
        else:
            raise ValueError(name)

    def _sweep_round(self, k: int) -> list[Op]:
        return [_op(f"sweep-{k}-{i}", random_generic_point(self._rng), None) for i in range(SWEEP_ROUND)]

    def round(self, k: int) -> list[Op]:
        if self.name != "exact-sweep":
            return self._fixed
        ops, self._next = self._next, None
        return ops if ops is not None else self._sweep_round(k)


# -- measurement -------------------------------------------------------------------


@dataclass
class Result:
    op: Op
    seconds: float  # at reference speed, see speed.py
    traced: bool
    exit_code: int | None = None
    error: str | None = None
    doc: dict | None = None
    F: dict | None = None
    report: dict | None = None
    wall: float = 0.0  # raw wall seconds
    span: tuple = (0.0, 0.0)  # perf_counter at start and end


class Capture:
    """Keeps what the CLI computed on its way to the certificate.

    The oracle needs F_3..F_6 and the full numeric report, which the
    certificate does not carry; the CLI's bindings of ``certify`` and
    ``run_numeric_verification`` are wrapped to keep them.  The wrappers
    look the library functions up at call time so a tracer sees the calls.
    """

    def __init__(self, cli):
        import holocert.elimination as elimination
        import holocert.numerics.checks as checks

        self.F = self.report = None

        def certify(*args, **kwargs):
            cert = elimination.certify(*args, **kwargs)
            self.F = dict(cert.conditions.F)
            return cert

        def run_numeric_verification(*args, **kwargs):
            self.report = checks.run_numeric_verification(*args, **kwargs)
            return self.report

        cli.certify = certify
        cli.run_numeric_verification = run_numeric_verification


def _call(cli, argv):
    try:
        return cli.main(argv), None
    except (Exception, SystemExit) as exc:  # an operation that raises or exits counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def run_op(cli, capture: Capture, track: SpeedTrack, op: Op, tracer=None) -> Result:
    capture.F = capture.report = None
    op.out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.install()
    (code, error), wall, t0, t1 = track.timed(_call, cli, op.argv)
    if tracer is not None:
        tracer.uninstall()
    res = Result(op, 0.0, tracer is not None, code, error, None, capture.F, capture.report, wall, (t0, t1))
    if op.out.exists():
        res.doc = json.loads(op.out.read_text())
    return res


def measure(cli, workload: Workload, seconds: float, tracer=None) -> list[Result]:
    """Whole rounds until ``seconds`` have passed; with a tracer each operation
    runs twice, untraced and traced, in alternating order."""
    capture = Capture(cli)
    track = SpeedTrack()
    results: list[Result] = []
    with track:
        start = time.perf_counter()
        k = 0
        while True:
            for op in workload.round(k):
                order = [None] if tracer is None else [None, tracer] if len(results) % 4 == 0 else [tracer, None]
                for t in order:
                    results.append(run_op(cli, capture, track, op, t))
            k += 1
            if time.perf_counter() - start >= seconds:
                break
        track.sample()
    for r in results:
        r.seconds = track.normalize(r.wall, *r.span)
    return results


def probe_setup(argv: list[str]) -> float:
    """Seconds, at reference speed, from starting a fresh benchmark process
    to its first operation.

    The probe may run on another core than this process, so it reports the
    reference-loop time it sees itself, right after its set-up.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv + ["--probe-setup"], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        reference_s = proc.stdout.readline()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: setup probe failed (exit {code}, said {ready!r})")
    return (t1 - t0) * REFERENCE_S / float(reference_s)


# -- checking ----------------------------------------------------------------------


def check(res: Result) -> tuple[list[str], list[str]]:
    """(failures, wrong) for one operation; see oracle.py."""
    import oracle

    if res.error is not None:
        return [f"raised {res.error}"], []
    if res.doc is None:
        return [f"exit {res.exit_code} without a certificate"], []
    failures, wrong = oracle.check_exact(res.doc, res.F, res.op.point)
    if res.op.samples is not None:
        f2, w2 = oracle.check_numeric(
            res.doc, res.report, res.op.samples, res.op.numeric_seed,
            all_degrees=res.op.samples >= 4,
        )
        failures += f2
        wrong += w2
    elif res.doc.get("numeric"):
        wrong.append("--skip-numeric certificate carries a numeric section")
    if res.exit_code != 0 and not failures:
        wrong.append(f"exit {res.exit_code} for a certificate that passes every check")
    return failures, wrong


# -- metrics -----------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results: list[Result], setup: list[float], peak_rss_mb: float) -> dict:
    times = [r.seconds for r in results]
    return {
        "op_s.p50": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(results: list[Result], tracer) -> dict:
    import oracle

    traced = [r for r in results if r.traced]
    plain = [r.seconds for r in results if not r.traced]
    ops = tracer.per_op()
    rows = []
    for r, op in zip(traced, ops):
        inc, calls, cnt = op["incl"], op["calls"], op["counts"]
        report_rows = (r.report or {}).get("checks", [])
        rhs = cnt["odepath.rhs"]
        segments = calls["odepath.integrate_fixed_interval"]
        m = {
            "normalform.expand_s": inc["normalform.expand_normal_form"] + inc["normalform.expand_with_beta"],
            "conditions.build_s": inc["conditions.build_condition_set"],
            "conditions.build_P_s": inc["conditions.build_P"],
            "conditions.build_q_s": inc["conditions.build_q"],
            "mpoly.mul_calls": cnt["mpoly.mul"],
            "gaussian.mul_calls": cnt["gaussian.mul"],
            "mpoly.resultant_s": inc["mpoly.resultant"],
            "mpoly.resultant_calls": calls["mpoly.resultant"],
            "mpoly.exact_div_s": inc["mpoly.exact_div"],
            "obstruction.solve_s": inc["obstruction.build_Md"] + inc["obstruction.solve_Rd"]
            + inc["obstruction.functional_Fd"],
            "elimination.chain_s": inc["elimination.resultant_chain"],
            "elimination.res3_6_digits": oracle.literal_digits((r.doc or {}).get("res3_6", "")),
            "odepath.integrations": calls["odepath.integrate_loop"],
            "odepath.segments": segments,
            "odepath.rhs_evals": rhs,
            "odepath.step_attempts": (rhs - segments) // 6,
            "odepath.integrate_s": inc["odepath.integrate_loop"],
            "odepath.rhs_us": 1e6 * op["hot_s"]["odepath.rhs"] / rhs if rhs else 0.0,
            "holonomy.variations_calls": calls["holonomy.integrate_variations"],
            "holonomy.variations_s": inc["holonomy.integrate_variations"],
            "holonomy.quadratures_calls": calls["holonomy.integrate_quadratures"],
            "holonomy.quadratures_s": inc["holonomy.integrate_quadratures"],
            "checks.variation_formulas_s": inc["checks.verify_variation_formulas"],
            "checks.integral_lemmas_s": inc["checks.verify_integral_lemmas"]
            - tracer.nested(op, "checks.verify_integral_lemmas", "checks.antiderivative_identity_rows"),
            "checks.antiderivative_s": inc["checks.antiderivative_identity_rows"],
            "checks.structural_s": inc["checks.structural_rows"],
            "checks.rows": len(report_rows),
            "checks.worst_margin": oracle.worst_margin(report_rows),
        }
        for layer in LAYERS:
            m[f"self_s.{layer}"] = op["self"][layer]
        rows.append(m)
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            t, u = statistics.median(r.seconds for r in traced), statistics.median(plain)
            out[name] = _metric(100.0 * (t - u) / u, unit)
        else:
            out[name] = _metric(statistics.median(m[name] for m in rows), unit)
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    return "count" if name.endswith(("_calls", "_evals", "_digits", "integrations", "segments",
                                     "attempts", "rows")) else "ratio"


PER_LAYER = [
    (name, _unit(name))
    for name in (
        "normalform.expand_s", "conditions.build_s", "conditions.build_P_s", "conditions.build_q_s",
        "mpoly.mul_calls", "gaussian.mul_calls", "mpoly.resultant_s", "mpoly.resultant_calls",
        "mpoly.exact_div_s", "obstruction.solve_s", "elimination.chain_s", "elimination.res3_6_digits",
        "odepath.integrations", "odepath.segments", "odepath.rhs_evals", "odepath.step_attempts",
        "odepath.integrate_s", "odepath.rhs_us", "holonomy.variations_calls", "holonomy.variations_s",
        "holonomy.quadratures_calls", "holonomy.quadratures_s", "checks.variation_formulas_s",
        "checks.integral_lemmas_s", "checks.antiderivative_s", "checks.structural_s", "checks.rows",
        "checks.worst_margin",
    )
] + [(f"self_s.{layer}", "s") for layer in LAYERS] + [("trace.overhead_pct", "%")]


# -- main --------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must lie in (0, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    workload = Workload(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        track = SpeedTrack()
        print(statistics.fmean(track.sample() for _ in range(5)), flush=True)
        return 0

    setup = []
    tracer = None
    if args.trace:
        tracer = Tracer()
    else:
        base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        setup = [probe_setup(base) for _ in range(SETUP_PROBES)]

    results = measure(cli, workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before sympy loads

    failed, wrong = 0, []
    for r in results:
        f, w = check(r)
        failed += bool(f)
        wrong += [f"{r.op.label}: {x}" for x in w]
        for x in f:
            print(f"failed {r.op.label}: {x}")
    for x in wrong:
        print(f"WRONG {x}")

    metrics = per_layer(results, tracer) if tracer else end_to_end(results, setup, peak_rss_mb)
    summary = {"correct": not wrong, "attempted": len(results), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  ops=[{"label": r.op.label, "seconds": r.seconds, "wall_s": r.wall, "traced": r.traced,
                        "exit": r.exit_code} for r in results], setup_probes_s=setup)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "hot_s"],
                                                             "spans": tracer.spans}) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(results)} operations, {failed} failed, "
          f"median wall {statistics.median(r.wall for r in results):.4g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
