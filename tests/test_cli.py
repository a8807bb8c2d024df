import json

import pytest

from holocert.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK, main


def write_params(path, lambda1="2-1i", lambda2="0+2i", alpha=("1", "0", "0")):
    path.write_text(json.dumps({"lambda1": lambda1, "lambda2": lambda2, "alpha": list(alpha)}))
    return str(path)


def test_expand_prints_S2(capsys):
    assert main(["expand"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "S2 = (1)*w^2 + (-1)" in out
    assert "c2 = -1-1i" in out


def test_expand_prints_the_table_to_dmax(capsys):
    from holocert.normalform import DMAX

    assert main(["expand"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"c{DMAX} = " in out and f"S{DMAX} = " in out
    assert f"c{DMAX + 1} = " not in out and f"S{DMAX + 1} = " not in out


def test_conditions_prints_all_F(capsys):
    assert main(["conditions"]) == EXIT_OK
    out = capsys.readouterr().out
    for d in (3, 4, 5, 6):
        assert f"F{d} = " in out


def test_conditions_rejects_nongeneric(tmp_path, capsys):
    params = write_params(tmp_path / "p.json", lambda1="1/3")
    assert main(["conditions", "--params", params]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "genericity" in err


def test_a_solver_failure_is_an_internal_failure(monkeypatch, tmp_path, capsys):
    # a solve whose R_d misses L_d's preimage by a w term is caught by
    # functional_Fd; that is the program's fault, not an INCONCLUSIVE point
    import holocert.conditions as conditions
    from holocert.mpoly import MPoly

    real = conditions.solve_Rd
    monkeypatch.setattr(conditions, "solve_Rd", lambda M, P: real(M, P) + MPoly.var("w"))
    out = tmp_path / "conditions.txt"
    assert main(["conditions", "--out", str(out)]) == EXIT_CONFIG
    assert "holocert: internal failure: L_3(R_3) - P_3 is not w-free" in capsys.readouterr().err
    assert not out.exists()


def test_certify_skip_numeric(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "UNIQUE"
    assert doc["numeric"] == {}  # the exact half alone leaves the numeric section empty
    assert doc["solution"] == {"beta1": "0", "beta2": "0"}


def test_exact_commands_do_not_load_numpy(tmp_path):
    # the exact half needs no numpy, so its commands start without the laboratory
    import os
    import subprocess
    import sys
    from pathlib import Path

    import holocert

    script = (
        "import sys\n"
        "from holocert.cli import main\n"
        "assert main(['expand']) == 0\n"
        "assert main(['certify', '--skip-numeric', '--out', sys.argv[1]]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(holocert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "cert.json")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "cert.json").read_text())["verdict"] == "UNIQUE"


def test_missing_params_file_is_config_error(capsys):
    assert main(["certify", "--skip-numeric", "--params", "/nonexistent/params.json"]) == EXIT_CONFIG
    assert "cannot read parameters" in capsys.readouterr().err


def test_malformed_params_file(tmp_path, capsys):
    # a bad literal, two misshapen alphas (a string of three literals
    # unpacks like a list) and a top-level array
    bad = tmp_path / "bad.json"
    for text in (
        '{"lambda1": "2--1i", "lambda2": "0+2i", "alpha": ["1","0","0"]}',
        '{"lambda1": "2-1i", "lambda2": "2i", "alpha": 5}',
        '{"lambda1": "2-1i", "lambda2": "2i", "alpha": "100"}',
        '["2-1i", "2i", ["1", "0", "0"]]',
    ):
        bad.write_text(text)
        assert main(["certify", "--skip-numeric", "--params", str(bad)]) == EXIT_CONFIG
        assert "cannot read parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rtol", "nan"),
        ("--rtol", "inf"),
        ("--rtol", "0"),
        ("--rtol", "-1"),
        ("--radius", "0"),
        ("--radius", "1"),
        ("--radius", "1.5"),
        ("--radius", "nan"),
        ("--seed", "-1"),
        ("--samples", "-2"),
    ],
)
@pytest.mark.parametrize("command", ["verify-numeric", "certify"])
def test_bad_numeric_flags_are_rejected_when_parsed(tmp_path, capsys, command, flag, value):
    # argparse exits 2 before any exact or numeric work, and no output is
    # written.  The tail tolerance and the loop radius are constants
    # (odepath.RTOL, loops.RADIUS), so a command line that still sets them
    # is refused rather than run at other values than it asked for.
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    if flag in ("--rtol", "--radius"):
        assert f"unrecognized arguments: {flag} {value}" in err
    else:
        assert f"argument {flag}: must be" in err
    assert not out.exists()


def test_emit_roundtrip(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["certify", "--skip-numeric", "--out", str(out1)]) == EXIT_OK
    assert main(["certify", "--skip-numeric", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_golden_certificate_is_stable(tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "testpoint-cert.json"
    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == golden.read_bytes()


def test_certificate_takes_no_sylvester_determinant(monkeypatch, tmp_path):
    # the chain's resultants come from the subresultant sequence alone; the
    # Sylvester determinant stays in mpoly only as the tests' reference
    from pathlib import Path

    import holocert.mpoly

    def refuse(*args):
        raise AssertionError("the certificate computed a Sylvester determinant")

    monkeypatch.setattr(holocert.mpoly, "bareiss_det", refuse)
    monkeypatch.setattr(holocert.mpoly, "sylvester", refuse)
    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (Path(__file__).parent / "data" / "testpoint-cert.json").read_bytes()


@pytest.mark.parametrize(
    "golden, point, flags",
    [
        ("testpoint-numeric-s4-seed3.json", None, ["--samples", "4", "--seed", "3"]),
        ("steep-numeric-s0.json", ("1/2-3i", "1/3+5/2i", ("2-1i", "1/2", "-1+1i")), ["--samples", "0"]),
        # point 7 of perfbench/run.py::random_generic_point(random.Random(11)):
        # its variation-formula, commutator-tangency[gamma2] and a22-ratio rows
        # move when the shape of a _CUMSUM product changes
        ("generic7-numeric-s0.json", ("-2/3-1i", "-1/3-2/3i", ("-2+2/3i", "1+1i", "-3/2i")), ["--samples", "0"]),
    ],
)
def test_golden_numeric_report_is_stable(tmp_path, golden, point, flags):
    """The laboratory's report, residuals included, to the last byte.

    A change to the engine's arithmetic that moves a rounding on purpose
    regenerates these files (``verify-numeric`` with the flags above), and
    says so in CHANGES.md.
    """
    from pathlib import Path

    if point is not None:
        flags = flags + ["--params", write_params(tmp_path / "p.json", *point)]
    out = tmp_path / "report.json"
    assert main(["verify-numeric", *flags, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()


def test_default_params_are_the_bundled_test_point(capsys):
    assert main(["expand"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda3 = -1-1i" in out


def test_custom_params_roundtrip(tmp_path, capsys):
    params = write_params(tmp_path / "p.json", lambda1="3-2i", lambda2="1+1i", alpha=("1/2", "0", "1"))
    assert main(["expand", "--params", params]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sigma = 4-1i" in out


def test_emitted_document_matches_certificate(tmp_path):
    # parse(emit(cert)) recovers the exact document
    from holocert.elimination import certify
    from holocert.normalform import verification_point

    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == certify(verification_point()).to_dict()


def _assert_no_floats(node, path="root"):
    assert not isinstance(node, float), f"float at {path}"
    if isinstance(node, dict):
        for k, v in node.items():
            _assert_no_floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _assert_no_floats(v, f"{path}[{i}]")


def test_exact_sections_carry_no_floats(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    doc.pop("numeric")  # the numeric summary is the only place floats may live
    _assert_no_floats(doc)


def test_verify_numeric_emits_report_and_exit_tracks_all_pass(monkeypatch, tmp_path):
    # exercise the command plumbing with a stubbed engine (the engine has
    # its own tests and runs for real in the acceptance suite)
    import holocert.cli as cli

    def fake_report(p, conditions, seed, n_samples):
        row = {"name": "stub", "loop": "gamma1", "degree": 2, "residual": 0.0, "tolerance": 1e-6, "pass": True}
        return {
            "params": p.to_dict(),
            "radius": 0.5,
            "rtol": 1e-12,
            "atol": 1e-16,
            "seed": seed,
            "convention": "stub",
            "checks": [row],
            "n_checks": 1,
            "failed": [],
            "all_pass": True,
        }

    monkeypatch.setattr(cli, "run_numeric_verification", fake_report)
    out = tmp_path / "report.json"
    assert main(["verify-numeric", "--samples", "1", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert set(doc["checks"][0]) == {"name", "loop", "degree", "residual", "tolerance", "pass"}

    def failing_report(p, conditions, seed, n_samples):
        doc = fake_report(p, conditions, seed, n_samples)
        doc["all_pass"] = False
        doc["failed"] = ["stub"]
        return doc

    monkeypatch.setattr(cli, "run_numeric_verification", failing_report)
    assert main(["verify-numeric", "--out", str(out)]) == EXIT_INCONCLUSIVE


def test_inconclusive_verdict_exits_one(monkeypatch, tmp_path, capsys):
    import dataclasses

    import holocert.cli as cli

    real = cli.certify

    def doctored(p):
        cert = real(p)
        return dataclasses.replace(cert, verdict="INCONCLUSIVE", reasons=("det34 = 0",))

    monkeypatch.setattr(cli, "certify", doctored)
    out = tmp_path / "cert.json"
    assert main(["certify", "--skip-numeric", "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert "det34 = 0" in capsys.readouterr().err
    assert json.loads(out.read_text())["verdict"] == "INCONCLUSIVE"


def _certify_breakdown(tmp_path, capsys, lambda1, lambda2):
    params = tmp_path / "steep.json"
    params.write_text(json.dumps({"lambda1": lambda1, "lambda2": lambda2, "alpha": ["2-1i", "1/2", "-1+1i"]}))
    out = tmp_path / "cert.json"
    rc = main(["certify", "--params", str(params), "--samples", "0", "--out", str(out)])
    return rc, capsys.readouterr().err, json.loads(out.read_text())


def test_numerical_breakdown_is_inconclusive(tmp_path, capsys, recwarn):
    # a valid point whose generator multiplier e^{2 pi i lambda2} grows so
    # fast along mu2 that double precision overflows in the first loop
    rc, err, doc = _certify_breakdown(tmp_path, capsys, "1/2+1i", "1/3-40i")
    assert rc == EXIT_INCONCLUSIVE
    # the breakdown is reported once, as the reason, and not as numpy warnings
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "INCONCLUSIVE: numerical breakdown" in err
    # the certificate still carries the finished exact half and the reason,
    # which is certificate bytes
    reason = "loop 'gamma1', segment 1: non-finite state"
    assert doc["verdict"] == "UNIQUE"
    assert doc["numeric"] == {"all_pass": False, "breakdown": reason}
    assert f"numerical breakdown: {reason}" in err


def test_breakdown_reason_is_the_same_at_the_default_rtol(tmp_path, capsys):
    # the engine's one tail tolerance, odepath.RTOL, names the same segment
    rc, err, doc = _certify_breakdown(tmp_path, capsys, "1/2+1i", "1/3-40i")
    assert rc == EXIT_INCONCLUSIVE
    assert doc["numeric"] == {"all_pass": False, "breakdown": "loop 'gamma1', segment 1: non-finite state"}


def test_breakdown_names_the_segment_that_overflows(tmp_path, capsys):
    # the converged state of gamma2 leaves double precision in segment 10,
    # its clockwise turn around +1; segment 8, the way back from its second
    # turn around -1, still ends finite, at 3.3e304
    rc, err, doc = _certify_breakdown(tmp_path, capsys, "1/2-20i", "1/3+18i")
    assert rc == EXIT_INCONCLUSIVE
    reason = "loop 'gamma2', segment 10: non-finite state"
    assert doc["numeric"] == {"all_pass": False, "breakdown": reason}
    assert f"numerical breakdown: {reason}" in err


@pytest.mark.parametrize(
    "lambda1, lambda2, reason",
    [
        ("1/2-40i", "1/3+25i", "loop 'gamma1', segment 7: non-finite state"),
        ("1/2-15i", "1/3-25i", "loop 'gamma1', segment 1: non-finite state"),
    ],
)
def test_breakdown_names_the_first_broken_loop_in_list_order(tmp_path, capsys, lambda1, lambda2, reason):
    # at these points a jet loop after gamma1 in the lockstep pass breaks
    # down in an earlier round than gamma1 does; gamma1, the first in list
    # order, names the breakdown
    rc, err, doc = _certify_breakdown(tmp_path, capsys, lambda1, lambda2)
    assert rc == EXIT_INCONCLUSIVE == 1
    assert doc["verdict"] == "UNIQUE"
    assert doc["numeric"] == {"all_pass": False, "breakdown": reason}
    assert f"numerical breakdown: {reason}" in err


def test_overflowing_jet_arithmetic_is_a_breakdown(tmp_path, capsys, recwarn):
    # every loop integration ends finite at (1/2+15i, 1/3-15i), but the
    # commutator that commutator-convention grades composes jets whose
    # masses leave double precision: that is a breakdown naming the row
    # that gave up, not rows graded against an infinite scale
    rc, err, doc = _certify_breakdown(tmp_path, capsys, "1/2+15i", "1/3-15i")
    assert rc == EXIT_INCONCLUSIVE
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    reason = "row 'commutator-convention': jet composition overflows double precision"
    assert doc["verdict"] == "UNIQUE"
    assert doc["numeric"] == {"all_pass": False, "breakdown": reason}
    assert f"INCONCLUSIVE: numerical breakdown: {reason}" in err


def test_verify_numeric_writes_a_report_at_a_breakdown(tmp_path, capsys):
    # at ladder k = 15 the laboratory breaks down; verify-numeric still
    # writes its report, with the reason that certify's numeric section gives
    rc, err, doc = _certify_breakdown(tmp_path, capsys, "1/2+15i", "1/3-15i")
    out = tmp_path / "report.json"
    assert main(["verify-numeric", "--params", str(tmp_path / "steep.json"), "--samples", "0", "--out", str(out)]) == rc
    assert capsys.readouterr().err == err
    report = json.loads(out.read_text())
    assert report == {"params": doc["params"], "seed": 0, "all_pass": False, "breakdown": doc["numeric"]["breakdown"]}


@pytest.mark.parametrize("k", [9, 14])
def test_the_other_convention_reading_does_not_overflow(tmp_path, capsys, recwarn, k):
    # at ladder k = 9 to 14 the commutator that commutator-convention grades
    # stays finite; the other reading is read to degree 2 alone, so the
    # rows are graded, and the convention row fails there, with no breakdown
    rc, err, doc = _certify_breakdown(tmp_path, capsys, f"1/2+{k}i", f"1/3-{k}i")
    assert rc == EXIT_INCONCLUSIVE
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "breakdown" not in doc["numeric"]
    assert "commutator-convention" in doc["numeric"]["failed"]
    assert "numerical breakdown" not in err
