"""Every function in the package is reached by a command, or kept for a reason.

The commands run in process under sys.setprofile, which sees every
Python-level call; a function defined in src/holocert that none of them
calls must be one of KEPT, so code that only tests reach does not build
up in the package.
"""

import inspect
import json
import sys
from pathlib import Path

import holocert
from holocert.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK, main

# function -> why it stays although no command calls it
KEPT = {
    ("conditions.py", "h_jets"): "perfbench/layertrace.py traces it by name",
    ("conditions.py", "_as_poly"): "h_jets' own helper",
    ("numerics/odepath.py", "integrate_fixed_interval"): "perfbench/layertrace.py traces it by name",
    ("normalform.py", "series_oracle"): "the independent reference the tests hold the c_d, S_d table to",
    ("normalform.py", "_series_mul"): "series_oracle's truncated product",
    ("normalform.py", "oracle_defects"): "series_oracle against the table, which the tests assert is zero",
    ("mpoly.py", "divides"): "the tests' divisibility check; without it each test would define its own",
    ("gaussian.py", "conjugate"): "a Q(i) identity the tests check; without it they would define their own",
}

STEEP_ALPHA = ["2-1i", "1/2", "-1+1i"]


def _defined(root: Path) -> set:
    """(file, name, first line) of every non-dunder function under root."""
    found = set()

    def walk(code, rel):
        for const in code.co_consts:
            if inspect.iscode(const):
                # a function's code is optimized; a class body's is not
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith(("<", "__")):
                    found.add((rel, const.co_name, const.co_firstlineno))
                walk(const, rel)

    for path in sorted(root.rglob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.relative_to(root).as_posix())
    return found


def _commands(tmp_path):
    """The command lines, with the exit code each must give."""

    def params(name, lambda1, lambda2, alpha=STEEP_ALPHA):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"lambda1": lambda1, "lambda2": lambda2, "alpha": alpha}))
        return ["--params", str(path)]

    misshapen = tmp_path / "misshapen.json"
    misshapen.write_text('{"lambda1": "2-1i", "lambda2": "2i", "alpha": "100"}')
    out = ["--out", str(tmp_path / "out")]
    return [
        (["expand", *out], EXIT_OK),
        (["conditions", *out], EXIT_OK),
        (["eliminate", *out], EXIT_OK),
        (["certify", "--samples", "1", *out], EXIT_OK),
        (["verify-numeric", "--samples", "0", *out], EXIT_OK),
        # jet arithmetic that overflows, and a loop integration that does
        (["certify", "--samples", "0", *params("jets", "1/2+10i", "1/3-10i"), *out], EXIT_INCONCLUSIVE),
        (["certify", "--samples", "0", *params("loop", "1/2+1i", "1/3-40i"), *out], EXIT_INCONCLUSIVE),
        (["eliminate", *params("nongeneric", "1/3", "2i", ["1", "0", "0"]), *out], EXIT_CONFIG),
        (["eliminate", "--params", str(misshapen), *out], EXIT_CONFIG),
    ]


def test_every_function_is_reached_by_a_command(tmp_path, capsys):
    root = Path(holocert.__file__).resolve().parent
    commands = _commands(tmp_path)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _ in commands]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in commands]
    capsys.readouterr()
    reached = {(Path(f).resolve().relative_to(root).as_posix(), name, line)
               for f, name, line in reached if Path(f).resolve().is_relative_to(root)}
    unreached = {(rel, name) for rel, name, line in _defined(root) - reached}
    assert unreached == set(KEPT)


def test_certify_builds_one_condition_set(tmp_path, capsys):
    # the laboratory takes the certificate's own condition set: one symbolic
    # build, whose six q polynomials (three at alpha, three at the symbols)
    # also feed the float model at alpha; the structural rows' model at
    # another alpha expands only the degree 2 its order-2 jets read
    import holocert.conditions
    import holocert.normalform

    files = {holocert.conditions.__file__, holocert.normalform.__file__}
    calls = []
    expanded = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            calls.append(frame.f_code.co_name)
            if frame.f_code.co_name == "expand_normal_form":
                expanded.append(frame.f_locals.get("dmax"))

    sys.setprofile(profile)
    try:
        code = main(["certify", "--samples", "1", "--out", str(tmp_path / "cert.json")])
    finally:
        sys.setprofile(None)
    assert code == EXIT_OK
    capsys.readouterr()
    assert calls.count("build_condition_set") == 1
    assert calls.count("build_q") == 6
    assert expanded == [6, 2]
