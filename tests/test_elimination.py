import pytest

from holocert.conditions import build_condition_set
from holocert.elimination import (
    EliminationError,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNIQUE,
    certify,
    linear_system_solve,
    resultant_chain,
)
from holocert.gaussian import GaussianRational as gq
from holocert.mpoly import MPoly, exact_div, resultant
from holocert.normalform import FoliationParams

from conftest import divides, random_gaussian, random_generic_params


@pytest.fixture(scope="module")
def tp_chain(tp, tp_conditions):
    return resultant_chain(tp_conditions.F, tp.alpha0)


def test_res1_vanishes_at_alpha_prefix(tp, tp_conditions, tp_chain):
    # common root b2 = alpha2 of F3 and Fj forces Res1_j(alpha0, alpha1) = 0
    for j in (4, 5, 6):
        v = tp_chain.res1[j].evaluate({"b0": tp.alpha0, "b1": tp.alpha1})
        assert v.is_zero()


def test_res2_vanishes_at_alpha0(tp, tp_chain):
    for j in (5, 6):
        assert tp_chain.res2[j].evaluate({"b0": tp.alpha0}).is_zero()


def test_res2_5_divisible_by_linear_factor(tp, tp_chain):
    b0 = MPoly.var("b0")
    assert divides(b0 - tp.alpha0, tp_chain.res2[5])
    assert exact_div(tp_chain.res2[5], b0 - tp.alpha0) == tp_chain.quotient5


def test_res3_6_nonzero_at_test_point(tp_chain):
    assert not tp_chain.res3_6.is_zero()


def test_chain_rejects_wrong_root(tp, tp_conditions):
    # dividing by (b0 - c) for c != alpha0 leaves a remainder, which the
    # chain must surface as a pipeline-falsifying error
    with pytest.raises(EliminationError):
        resultant_chain(tp_conditions.F, gq(7))


def test_linear_system_at_test_point(tp, tp_conditions):
    det, sol = linear_system_solve(tp_conditions.F[3], tp_conditions.F[4], tp.alpha0)
    assert not det.is_zero()
    assert sol == (tp.alpha1, tp.alpha2)


def test_alpha_always_satisfies_linear_system(tp, tp_conditions):
    binds = {"b0": tp.alpha0, "b1": tp.alpha1, "b2": tp.alpha2}
    for d in (3, 4):
        assert tp_conditions.F[d].evaluate(binds).is_zero()


def test_degenerate_system_is_inconclusive(tp, tp_conditions):
    F3 = tp_conditions.F[3]
    det, sol = linear_system_solve(F3, F3, tp.alpha0)
    assert det.is_zero()
    assert sol is None


def test_nonlinear_system_is_an_error(tp):
    b1 = MPoly.var("b1")
    with pytest.raises(EliminationError):
        linear_system_solve(b1 * b1 - 1, b1 - 1, tp.alpha0)


def test_substitution_commutes_with_resultant_spotcheck(tp, tp_conditions, rng):
    # evaluate F3, F4 partially at random (b1, b2), then Res_{b2} of the
    # originals evaluated there must agree with resultant-of-evaluations
    F3, F4 = tp_conditions.F[3], tp_conditions.F[4]
    for _ in range(3):
        b1v = random_gaussian(rng)
        r_full = resultant(F3, F4, "b2").substitute("b1", b1v)
        r_eval = resultant(F3.substitute("b1", b1v), F4.substitute("b1", b1v), "b2")
        assert r_full == r_eval


def test_certificate_unique_at_test_point(tp):
    cert = certify(tp)
    assert cert.verdict == VERDICT_UNIQUE
    assert cert.reasons == ()
    assert not cert.res3_6.is_zero()
    assert not cert.det34.is_zero()
    assert cert.solution == (tp.alpha1, tp.alpha2)
    assert not any("(alpha) != 0" in r for r in cert.reasons)
    assert cert.degrees == {3: 1, 4: 2, 5: 3, 6: 4}


def test_certificate_records_alt_point(tp, tp_conditions, rng):
    alt = {"b0": gq(2, 1), "b1": gq(1), "b2": gq(0, -1)}
    values = [F.evaluate(alt) for F in tp_conditions.F.values()]
    # uniqueness says a distinct alpha cannot satisfy all conditions
    assert any(not v.is_zero() for v in values)


@pytest.mark.parametrize("d", [5, 6])
def test_planted_defect_in_F_is_inconclusive(tp, d, monkeypatch):
    # beta = alpha must solve every condition; a constant added to F_d
    # breaks that, and certify must say so instead of running the chain
    # (which raises for F_5 and would pass F_6 as UNIQUE)
    from holocert import elimination

    cs = build_condition_set(tp)
    cs.F[d] = cs.F[d] + gq(1)
    monkeypatch.setattr(elimination, "build_condition_set", lambda p: cs)
    cert = certify(tp)
    assert cert.verdict == VERDICT_INCONCLUSIVE
    assert cert.reasons == (f"F_{d}(alpha) != 0",)
    assert cert.chain is None and cert.res3_6 is None
    assert cert.to_dict()["res3_6"] is None


def test_certificate_json_shape(tp):
    doc = certify(tp).to_dict()
    assert set(doc) == {
        "params",
        "genericity",
        "degrees",
        "res3_6",
        "det34",
        "solution",
        "verdict",
        "reasons",
        "numeric",
    }
    assert doc["verdict"] == "UNIQUE"
    assert doc["degrees"] == {"F3": 1, "F4": 2, "F5": 3, "F6": 4}
    assert doc["solution"] == {"beta1": "0", "beta2": "0"}
    assert doc["numeric"] == {}
    # exact sections carry literal strings, never floats
    assert isinstance(doc["res3_6"], str) and isinstance(doc["det34"], str)


def test_certify_rejects_nongeneric_params():
    from fractions import Fraction

    bad = FoliationParams(gq(Fraction(1, 3)), gq(0, 2), gq(1), gq(0), gq(0))
    with pytest.raises(EliminationError):
        certify(bad)


def test_certify_at_random_generic_point(rng):
    # a fresh generic point should still see beta = alpha as a solution;
    # UNIQUE is expected but INCONCLUSIVE is allowed (and must carry reasons)
    p = random_generic_params(rng)
    cert = certify(p)
    assert not any("(alpha) != 0" in r for r in cert.reasons)
    if cert.verdict == VERDICT_INCONCLUSIVE:
        assert cert.reasons
    else:
        assert cert.solution == (p.alpha1, p.alpha2)
