"""Every function in the package is reached by a command, or kept for a reason.

The commands run in process under sys.setprofile, which sees every
Python-level call; a function defined in src/holocert that none of them
calls must be one of KEPT, so code that only tests reach does not build
up in the package.  The knobs are pinned the same way: every parameter
with a default is one of DEFAULTED, and every command's flags are FLAGS.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import pytest

import holocert
from holocert.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK, build_parser, main

# function -> why it stays although no command calls it
KEPT = {
    ("conditions.py", "h_jets"): "perfbench/layertrace.py traces it by name",
    ("conditions.py", "_as_poly"): "h_jets' own helper",
    ("numerics/odepath.py", "integrate_fixed_interval"): (
        "perfbench/layertrace.py traces it by name; one call of integrate_loop on [0, 1]"
    ),
    ("mpoly.py", "sylvester"): (
        "perfbench/layertrace.py traces it by name; the tests' Sylvester-determinant reference for resultant"
    ),
    ("mpoly.py", "bareiss_det"): (
        "perfbench/layertrace.py traces it by name; the tests' Sylvester-determinant reference for resultant"
    ),
}

# (file, function, parameter) -> why it keeps a default
DEFAULTED = {
    ("cli.py", "main", "argv"): "the console entry point calls main() with none",
    ("gaussian.py", "__init__", "im"): "a real number is one argument, GaussianRational(x)",
    ("numerics/checks.py", "_row", "larger_is_better"): "both values are in use",
    ("numerics/holonomy.py", "integrate_variations", "order"): "both values are in use",
    ("numerics/odepath.py", "_per_row", "out"): "both values are in use",
}

# command -> its flags, as build_parser reports them
FLAGS = {
    "expand": ["--params", "--out"],
    "conditions": ["--params", "--out"],
    "verify-numeric": ["--params", "--out", "--seed", "--samples"],
    "certify": ["--params", "--out", "--seed", "--samples", "--skip-numeric"],
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
        (["certify", "--skip-numeric", *out], EXIT_OK),
        (["certify", "--samples", "1", *out], EXIT_OK),
        (["verify-numeric", "--samples", "0", *out], EXIT_OK),
        # jet arithmetic that overflows, and a loop integration that does
        (["certify", "--samples", "0", *params("jets", "1/2+10i", "1/3-10i"), *out], EXIT_INCONCLUSIVE),
        (["certify", "--samples", "0", *params("loop", "1/2+1i", "1/3-40i"), *out], EXIT_INCONCLUSIVE),
        (["certify", "--skip-numeric", *params("nongeneric", "1/3", "2i", ["1", "0", "0"]), *out], EXIT_CONFIG),
        (["certify", "--skip-numeric", "--params", str(misshapen), *out], EXIT_CONFIG),
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


def test_every_default_is_kept_for_a_reason():
    root = Path(holocert.__file__).resolve().parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                rel = path.relative_to(root).as_posix()
                found |= {(rel, getattr(node, "name", "<lambda>"), arg.arg) for arg in defaulted}
    assert found == set(DEFAULTED)


def test_every_command_takes_only_its_flags():
    sub = next(a for a in build_parser()._actions if a.choices and "certify" in a.choices)
    flags = {name: [opt for act in sp._actions for opt in act.option_strings if opt not in ("-h", "--help")]
             for name, sp in sub.choices.items()}
    assert flags == FLAGS


@pytest.mark.parametrize("argv", [["eliminate"], ["expand", "--dmax", "3"]], ids=["eliminate", "expand-dmax"])
def test_removed_command_and_flag_are_refused(tmp_path, capsys, argv):
    # certify --skip-numeric gives the certificate, and expand always prints
    # the whole table: argparse refuses both before any work, writing nothing
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert "holocert: error:" in capsys.readouterr().err
    assert not out.exists()
