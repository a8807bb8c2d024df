"""Batch front end: parameter files in, certificates and reports out.

Commands
    expand          print the c_d / S_d table
    conditions      print the obstruction polynomials F_3..F_6
    verify-numeric  run the holonomy cross-checks, emit the report JSON
    certify         everything; exit 0 only for verdict UNIQUE with all
                    numeric checks passing.  A numerical breakdown still
                    emits the certificate, with the reason in its numeric
                    section.  --skip-numeric runs the exact half alone,
                    and leaves the numeric section empty

Exit codes: 0 success, 1 INCONCLUSIVE verdict, failed numeric check or
numerical breakdown of the laboratory, 2 input/configuration errors
(including exact genericity violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from .conditions import ConditionSet, build_condition_set
from .elimination import EliminationError, VERDICT_UNIQUE, certify
from .gaussian import GaussianRationalError
from .mpoly import MPolyError
from .normalform import DMAX, FoliationParams, expand_normal_form, validate_genericity, verification_point
from .numerics import ODEError
from .obstruction import GenericityError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _load_params(path: str | None) -> FoliationParams:
    """The point a command runs at: the bundled one, or the file's if it is exactly generic."""
    if path is None:
        p = verification_point()
    else:
        try:
            p = FoliationParams.from_json_file(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read parameters ({path}): {exc}") from exc
    rep = validate_genericity(p)
    if not rep.exact_ok:
        raise ConfigError(
            "exact genericity violated: "
            + ("lambdas not pairwise distinct; " if not rep.pairwise_distinct else "")
            + ", ".join(rep.lattice_failures)
        )
    return p


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def emit_report(payload: dict, out: str | None) -> None:
    """Canonical JSON emission: sorted keys, byte-stable for equal inputs."""
    _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def run_numeric_verification(p: FoliationParams, conditions: ConditionSet, **kwargs) -> dict:
    """The numeric laboratory's report; numpy loads only for the commands that run it."""
    from .numerics import checks

    return checks.run_numeric_verification(p, conditions, **kwargs)


def cmd_expand(args) -> int:
    p = _load_params(args.params)
    e = expand_normal_form(p, DMAX)
    lines = [f"lambda3 = {p.lambda3}", f"sigma = {p.sigma}", f"eta = {p.eta}", ""]
    for d in range(1, DMAX + 1):
        lines.append(f"c{d} = {e.c[d]}")
    lines.append("")
    for d in range(2, DMAX + 1):
        lines.append(f"S{d} = {e.S[d]}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_conditions(args) -> int:
    p = _load_params(args.params)
    cs = build_condition_set(p)
    lines = []
    for d in (3, 4, 5, 6):
        lines.append(f"F{d} = {cs.F[d]}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify_numeric(args) -> int:
    p = _load_params(args.params)
    report = run_numeric_verification(p, build_condition_set(p), seed=args.seed, n_samples=args.samples)
    emit_report(report, args.out)
    return EXIT_OK if report["all_pass"] else EXIT_INCONCLUSIVE


def cmd_certify(args) -> int:
    p = _load_params(args.params)
    cert = certify(p)
    if not args.skip_numeric:
        try:
            report = run_numeric_verification(p, cert.conditions, seed=args.seed, n_samples=args.samples)
        except ODEError as exc:
            # the finished exact half is still worth a certificate; main reports the breakdown
            cert.numeric = {"all_pass": False, "breakdown": str(exc)}
            emit_report(cert.to_dict(), args.out)
            raise
        from .numerics.checks import numeric_summary

        cert.numeric = numeric_summary(report)
    emit_report(cert.to_dict(), args.out)
    ok = cert.verdict == VERDICT_UNIQUE and (args.skip_numeric or cert.numeric.get("all_pass", False))
    if not ok:
        print(f"verdict: {cert.verdict}; reasons: {list(cert.reasons)}", file=sys.stderr)
        if cert.numeric and not cert.numeric.get("all_pass", True):
            print(f"failed numeric checks: {cert.numeric['failed']}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then reject a value that is not ok."""
    def parse(text):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="holocert", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--params", default=None, help="parameter JSON file (default: bundled test point)")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("expand", help="print the c_d / S_d table")
    common(sp)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("conditions", help="print F_3..F_6")
    common(sp)
    sp.set_defaults(func=cmd_conditions)

    def numeric_flags(sp):
        nonnegative = _checked(int, lambda n: n >= 0, ">= 0")
        sp.add_argument("--seed", type=nonnegative, default=0)
        sp.add_argument("--samples", type=nonnegative, default=20, help="samples per integral-lemma family")

    sp = sub.add_parser("verify-numeric", help="holonomy cross-validation report")
    common(sp)
    numeric_flags(sp)
    sp.set_defaults(func=cmd_verify_numeric)

    sp = sub.add_parser("certify", help="exact certificate plus numeric verification")
    common(sp)
    numeric_flags(sp)
    sp.add_argument("--skip-numeric", action="store_true")
    sp.set_defaults(func=cmd_certify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EliminationError, GenericityError) as exc:
        print(f"holocert: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ODEError as exc:
        # the numeric laboratory only runs at points that passed validation
        print(f"holocert: INCONCLUSIVE: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (MPolyError, GaussianRationalError, ValueError) as exc:
        print(f"holocert: internal failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
