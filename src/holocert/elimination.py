"""Resultant elimination chain and the uniqueness certificate.

Successively eliminates b2, b1, b0 from the obstruction system
F_3 = ... = F_6 = 0:

    Res1_j = Res_{b2}(F3, Fj)                      j = 4, 5, 6
    Res2_j = Res_{b1}(Res1_4, Res1_j)              j = 5, 6
    Res3_6 = Res_{b0}(Res2_5 / (b0 - alpha0), Res2_6)

The single division by (b0 - alpha0) removes the always-present root
beta = alpha.  A nonzero Res3_6 pins beta0 = alpha0, and the remaining
linear system in (beta1, beta2) built from F3, F4 recovers the rest.
The chain runs only when every F_d vanishes at beta = alpha, the root it
divides out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .conditions import ConditionSet, build_condition_set
from .gaussian import GaussianRational, format_gaussian
from .mpoly import ExactDivisionError, MPoly, exact_div, resultant
from .normalform import FoliationParams, GenericityReport, validate_genericity

VERDICT_UNIQUE = "UNIQUE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


class EliminationError(ArithmeticError):
    pass


@dataclass
class ChainValues:
    res1: dict[int, MPoly]  # j=4,5,6 in (b0, b1)
    res2: dict[int, MPoly]  # j=5,6 in b0
    quotient5: MPoly  # Res2_5 / (b0 - alpha0)
    res3_6: GaussianRational


def resultant_chain(F: dict[int, MPoly], alpha0: GaussianRational) -> ChainValues:
    """Run the elimination chain on symbolic F_3..F_6.

    Raises EliminationError if b0 = alpha0 is not a root of Res2_5, which
    would falsify the whole pipeline.
    """
    res1 = {j: resultant(F[3], F[j], "b2") for j in (4, 5, 6)}
    res2 = {j: resultant(res1[4], res1[j], "b1") for j in (5, 6)}
    b0 = MPoly.var("b0")
    try:
        quotient5 = exact_div(res2[5], b0 - alpha0)
    except ExactDivisionError as exc:
        raise EliminationError(
            f"b0 = alpha0 is not a root of Res2_5 (remainder {exc.remainder})"
        ) from exc
    res3 = resultant(quotient5, res2[6], "b0")
    return ChainValues(res1, res2, quotient5, res3.as_constant())


def linear_system_solve(F3: MPoly, F4: MPoly, alpha0: GaussianRational):
    """Substitute b0 = alpha0 into F3, F4 and solve the linear system in (b1, b2).

    Returns (det, solution) where solution is None for a zero determinant.
    Raises EliminationError if either polynomial fails to be affine-linear
    in (b1, b2) after the substitution.
    """
    rows = []
    for poly in (F3, F4):
        q = poly.substitute("b0", alpha0)
        if q.total_degree() > 1:
            raise EliminationError(f"not affine-linear in (b1, b2) after b0 = alpha0: {q}")
        a1 = q.derivative("b1").as_constant()
        a2 = q.derivative("b2").as_constant()
        c = q.substitute("b1", 0).substitute("b2", 0).as_constant()
        rows.append((a1, a2, c))
    (a11, a12, c1), (a21, a22, c2) = rows
    det = a11 * a22 - a12 * a21
    if det.is_zero():
        return det, None
    # a11 b1 + a12 b2 = -c1 ; a21 b1 + a22 b2 = -c2
    b1 = (-c1 * a22 + c2 * a12) / det
    b2 = (-c2 * a11 + c1 * a21) / det
    return det, (b1, b2)


@dataclass
class Certificate:
    """Deterministic record of one elimination run; exact fields only.

    The numeric section is filled in later by the holonomy laboratory and
    is allowed to stay empty.  ``chain`` is None when some F_d does not
    vanish at alpha, and Res3_6 is then recorded as null.
    """

    params: FoliationParams
    genericity: GenericityReport
    degrees: dict[int, int]
    chain: ChainValues | None
    det34: GaussianRational
    solution: tuple[GaussianRational, GaussianRational] | None
    verdict: str
    reasons: tuple[str, ...]
    conditions: ConditionSet | None = None
    numeric: dict = field(default_factory=dict)

    @property
    def res3_6(self) -> GaussianRational | None:
        return None if self.chain is None else self.chain.res3_6

    def to_dict(self) -> dict:
        sol = self.solution
        return {
            "params": self.params.to_dict(),
            "genericity": self.genericity.to_dict(),
            "degrees": {f"F{d}": self.degrees[d] for d in sorted(self.degrees)},
            "res3_6": None if self.res3_6 is None else format_gaussian(self.res3_6),
            "det34": format_gaussian(self.det34),
            "solution": None
            if sol is None
            else {"beta1": format_gaussian(sol[0]), "beta2": format_gaussian(sol[1])},
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "numeric": self.numeric,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no float in the exact sections."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def certify(p: FoliationParams, conditions: ConditionSet | None = None) -> Certificate:
    """Full exact pipeline: expand, build symbolic conditions, eliminate, solve.

    The verdict is UNIQUE only when every F_d vanishes at alpha, Res3_6 and
    det34 are both nonzero and the recovered (beta1, beta2) equals
    (alpha1, alpha2); every anomaly downgrades to INCONCLUSIVE with a
    reason, never a silent pass.
    """
    report = validate_genericity(p)
    if not report.exact_ok:
        raise EliminationError(
            f"exact genericity violated: distinct={report.pairwise_distinct}, "
            f"lattice failures={list(report.lattice_failures)}"
        )
    cs = conditions if conditions is not None else build_condition_set(p, beta=None)
    alpha = {"b0": p.alpha0, "b1": p.alpha1, "b2": p.alpha2}
    reasons = [f"F_{d}(alpha) != 0" for d in sorted(cs.F) if not cs.F[d].evaluate(alpha).is_zero()]
    chain = None if reasons else resultant_chain(cs.F, p.alpha0)
    det34, solution = linear_system_solve(cs.F[3], cs.F[4], p.alpha0)

    if chain is not None and chain.res3_6.is_zero():
        reasons.append("Res3_6 = 0")
    if det34.is_zero():
        reasons.append("det34 = 0")
    if solution is not None and solution != (p.alpha1, p.alpha2):
        reasons.append("recovered (beta1, beta2) != (alpha1, alpha2)")
    verdict = VERDICT_UNIQUE if not reasons else VERDICT_INCONCLUSIVE

    return Certificate(
        params=p,
        genericity=report,
        degrees=cs.f_degrees(),
        chain=chain,
        det34=det34,
        solution=solution,
        verdict=verdict,
        reasons=tuple(reasons),
        conditions=cs,
    )
