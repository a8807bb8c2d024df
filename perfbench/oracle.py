"""Correctness checks for the benchmark, made apart from holocert.

Exact half: the resultant chain Res_{b2} -> Res_{b1} -> /(b0 - alpha0) ->
Res_{b0} is rebuilt with sympy over QQ_I from the program's F_3..F_6, and
the certificate must carry exactly the same Res3_6.  The properties the
method must have are checked beside it: F_d(alpha) = 0 exactly, det34 != 0,
the recovered (beta1, beta2) = (alpha1, alpha2) and the verdict UNIQUE.

Numeric half: every check row is present, in the layout the laboratory
defines, passes, and agrees with its own residual and tolerance; and the
reported composition convention is the one that path concatenation fixes
independently of the parameters.

Each check returns a list of reasons; an empty list means the output is
correct.  A failure of the method itself (exception, non-zero exit,
INCONCLUSIVE, a failed row, the wrong convention) makes the operation
*failed*; an output that contradicts the oracle makes it *incorrect*.
"""

from __future__ import annotations

import math
import re

from sympy import Poly, QQ, QQ_I, symbols, sympify

B0, B1, B2 = symbols("b0 b1 b2")
CHAIN_GENS = (B2, B1, B0)  # elimination order: b2, then b1, then b0

CONVENTION = "word read leftmost-first; Delta over a path a.b is Delta_b o Delta_a"

# rows graded "pass if the residual exceeds the tolerance"
LARGER_IS_BETTER = {"a21-nonzero-proxy", "nonlinear-jet-proxy"}

STRUCTURAL_ROWS = (
    "commutator-tangency[gamma1]",
    "commutator-tangency[gamma2]",
    "reversed-loop-is-inverse-jet",
    "concatenation-composes-jets",
    "commutator-convention",
    "radius-independence",
    "a21-nonzero-proxy",
    "nonlinear-jet-proxy",
    "a22-ratio-is-1-plus-nu1",
    "a2-independent-of-beta[gamma1]",
    "a2-independent-of-beta[gamma2]",
)

_RAT = r"[+-]?\d+(?:/\d+)?"


# -- literals and polynomials ------------------------------------------------------


def _rat(tok: str):
    num, _, den = tok.partition("/")
    return QQ(int(num), int(den or 1))


def parse_literal(text: str):
    """A Gaussian-rational literal such as '3/2-1/3i', '0+2i', '-5' or '2i'."""
    s = str(text).replace(" ", "")
    m = re.fullmatch(rf"({_RAT})([+-]\d+(?:/\d+)?)i", s)
    if m:
        return QQ_I(_rat(m[1]), _rat(m[2]))
    m = re.fullmatch(rf"({_RAT})i", s)
    if m:
        return QQ_I(0, _rat(m[1]))
    m = re.fullmatch(_RAT, s)
    if m:
        return QQ_I(_rat(s), 0)
    raise ValueError(f"not a Gaussian-rational literal: {text!r}")


def literal_digits(text: str) -> int:
    """Decimal digits in a literal: the size of an exact value."""
    return sum(ch.isdigit() for ch in str(text))


def _qq(x):
    return QQ(int(x.numerator), int(x.denominator))


def to_sympy(poly) -> Poly:
    """The program's MPoly in b0, b1, b2 as a sympy Poly over QQ_I in (b2, b1, b0)."""
    names = [str(g) for g in CHAIN_GENS]
    terms = {}
    for exps, c in poly.terms.items():
        full = [0, 0, 0]
        for var, k in zip(poly.vars, exps):
            if var not in names:
                raise ValueError(f"F_d depends on {var!r}, expected only b0, b1, b2")
            full[names.index(var)] = k
        terms[tuple(full)] = QQ_I(_qq(c.re), _qq(c.im))
    return Poly.from_dict(terms or {(0, 0, 0): QQ_I(0)}, *CHAIN_GENS, domain=QQ_I)


def _evaluate(poly: Poly, point: dict):
    """Exact value of a Poly at a point given as {symbol: QQ_I element}."""
    total = QQ_I(0)
    for exps, c in poly.rep.terms():
        term = c
        for gen, k in zip(poly.gens, exps):
            term = term * point[gen] ** k
        total += term
    return total


# -- exact oracle ------------------------------------------------------------------


def resultant_chain(F: dict, alpha0):
    """Res3_6 from F_3..F_6 by sympy, or a reason why the chain broke."""
    P = {d: to_sympy(F[d]) for d in (3, 4, 5, 6)}
    res1 = {j: P[3].resultant(P[j]) for j in (4, 5, 6)}  # eliminates b2
    res2 = {j: res1[4].resultant(res1[j]) for j in (5, 6)}  # eliminates b1
    res2 = {j: Poly(r.as_expr(), B0, domain=QQ_I) for j, r in res2.items()}
    root = Poly.from_dict({(1,): QQ_I(1), (0,): -alpha0}, B0, domain=QQ_I)
    quotient, remainder = res2[5].div(root)
    if not remainder.is_zero:
        return None, "b0 = alpha0 is not a root of Res2_5"
    return QQ_I.from_sympy(sympify(quotient.resultant(res2[6]))), None


def check_exact(doc: dict, F: dict | None, point: dict) -> tuple[list[str], list[str]]:
    """(failures, wrong) for the exact sections of certificate ``doc``.

    ``F`` maps d = 3..6 to the program's obstruction polynomials and
    ``point`` holds the literals of the certified parameters.  A verdict
    other than UNIQUE is a failure; a certificate that disagrees with the
    oracle, or claims UNIQUE where the oracle finds Res3_6 = 0, det34 = 0 or
    another (beta1, beta2), is wrong.
    """
    if F is None or sorted(F) != [3, 4, 5, 6]:
        return [], ["the program produced no F_3..F_6"]
    failures, wrong = [], []
    unique = doc.get("verdict") == "UNIQUE" and not doc.get("reasons")
    if not unique:
        failures.append(f"verdict {doc.get('verdict')}: {doc.get('reasons')}")
    alpha = [parse_literal(a) for a in point["alpha"]]
    got = doc.get("params", {})
    try:
        same = [parse_literal(got[k]) for k in ("lambda1", "lambda2")] == [
            parse_literal(point[k]) for k in ("lambda1", "lambda2")
        ] and [parse_literal(a) for a in got["alpha"]] == alpha
    except (KeyError, TypeError, ValueError):
        same = False
    if not same:
        wrong.append(f"certificate params {got} are not the requested point")

    at_alpha = dict(zip((B0, B1, B2), alpha))
    for d in (3, 4, 5, 6):
        if _evaluate(to_sympy(F[d]), at_alpha):
            wrong.append(f"F_{d}(alpha) != 0")

    res3, why = resultant_chain(F, alpha[0])
    if why:
        wrong.append(why)
    else:
        try:
            claimed = parse_literal(doc["res3_6"])
        except (KeyError, ValueError):
            claimed = None
        if claimed != res3:
            wrong.append("Res3_6 differs from the sympy chain")
        elif not res3 and unique:
            wrong.append("verdict UNIQUE with Res3_6 = 0")

    # (beta1, beta2) from F_3 = F_4 = 0 at b0 = alpha0, solved apart
    rows = []
    for d in (3, 4):
        G = to_sympy(F[d]).eval(B0, QQ_I.to_sympy(alpha[0]))
        if G.total_degree() > 1:
            return failures, wrong + [f"F_{d} is not affine-linear in (b1, b2) at b0 = alpha0"]
        rows.append(tuple(QQ_I.from_sympy(G.coeff_monomial(m)) for m in (B1, B2, 1)))
    (a11, a12, c1), (a21, a22, c2) = rows
    det = a11 * a22 - a12 * a21
    beta = None if not det else ((-c1 * a22 + c2 * a12) / det, (-c2 * a11 + c1 * a21) / det)
    try:
        if parse_literal(doc["det34"]) != det:
            wrong.append("det34 differs from the oracle")
        sol = doc["solution"]
        claimed = None if sol is None else (parse_literal(sol["beta1"]), parse_literal(sol["beta2"]))
        if claimed != beta:
            wrong.append("recovered (beta1, beta2) differs from the oracle")
    except (KeyError, TypeError, ValueError):
        wrong.append("certificate lacks det34 or the solution")
    if unique and beta != (alpha[1], alpha[2]):
        wrong.append("verdict UNIQUE but det34 = 0 or (beta1, beta2) != (alpha1, alpha2)")
    return failures, wrong


# -- numeric checks ----------------------------------------------------------------


def expected_rows(samples: int) -> list[str]:
    """Row names of a numeric report, in order, for ``samples`` lemma samples."""
    names = [f"variation-formula-deg{d}" for _ in ("gamma1", "gamma2") for d in range(2, 7)]
    names += [f"integral-lemma-two-loops[{k}]" for k in range(samples)]
    names += [f"forward-vanishing[{k}]" for k in range(samples)]
    names += [f"antiderivative-identity-deg{d}" for d in (3, 4, 5, 6)]
    return names + list(STRUCTURAL_ROWS)


def expected_n_checks(samples: int) -> int:
    return 10 + 2 * samples + 4 + 11


def worst_margin(rows: list[dict]) -> float:
    """Largest residual/tolerance over the rows that pass when below tolerance."""
    return max(
        (r["residual"] / r["tolerance"] for r in rows if r["name"] not in LARGER_IS_BETTER),
        default=0.0,
    )


def check_numeric(doc: dict, report: dict | None, samples: int, numeric_seed: int,
                  all_degrees: bool) -> tuple[list[str], list[str]]:
    """(failures, wrong) for the numeric half of certificate ``doc``.

    Failures are what the program itself reports as not passing, plus a
    wrong composition convention; wrong outputs are rows missing, out of
    place, or whose pass flag contradicts their residual and tolerance.
    """
    if report is None:
        return [], ["the program produced no numeric report"]
    failures, wrong = [], []
    rows = report.get("checks", [])
    names = [r.get("name") for r in rows]
    if names != expected_rows(samples):
        wrong.append(f"rows {len(names)} do not follow the expected layout")
    if report.get("n_checks") != expected_n_checks(samples) or len(rows) != expected_n_checks(samples):
        wrong.append(f"n_checks {report.get('n_checks')} != {expected_n_checks(samples)}")
    for r in rows:
        res, tol = r.get("residual"), r.get("tolerance")
        if not (isinstance(res, float) and isinstance(tol, float) and math.isfinite(tol)):
            wrong.append(f"row {r.get('name')} lacks a numeric residual or tolerance")
            continue
        ok = res > tol if r["name"] in LARGER_IS_BETTER else res <= tol
        if ok != r.get("pass"):
            wrong.append(f"row {r['name']} says pass={r.get('pass')} at residual {res:.3g}, tolerance {tol:.3g}")
        elif not ok:
            failures.append(f"row {r['name']} fails: residual {res:.3g} against tolerance {tol:.3g}")
    if all_degrees:
        for family in ("integral-lemma-two-loops", "forward-vanishing"):
            degrees = {r.get("degree") for r in rows if str(r.get("name")).startswith(family)}
            if degrees != {3, 4, 5, 6}:
                wrong.append(f"{family} samples cover degrees {sorted(degrees)}, not 3..6")

    summary = doc.get("numeric") or {}
    if summary.get("n_checks") != report.get("n_checks") or summary.get("failed") != report.get("failed"):
        wrong.append("certificate numeric summary disagrees with the report")
    if summary.get("seed") != numeric_seed or summary.get("rtol") != 1e-12 or summary.get("radius") != 0.5:
        wrong.append("certificate numeric summary carries other settings than requested")
    if bool(summary.get("all_pass")) != all(r.get("pass") for r in rows):
        wrong.append("all_pass disagrees with the rows")
    convention = summary.get("convention")
    if convention != report.get("convention"):
        wrong.append("certificate convention disagrees with the report")
    if convention != CONVENTION:
        failures.append(
            f"convention fault: reports '{convention}', path concatenation fixes '{CONVENTION}'"
        )
    return failures, wrong
