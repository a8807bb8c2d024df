"""Degree-d condition polynomials P_d, auxiliary q_d, and conjugacy jet constants.

Everything here compares two expansions: the reference one (parameters
alpha, always numeric) and a second one whose parameters are the symbols
b0, b1, b2.  A concrete beta is substituted into the resulting set
exactly (ConditionSet.at).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gaussian import GaussianRational
from .mpoly import MPoly
from .normalform import (
    DMAX,
    FoliationParams,
    NormalFormExpansion,
    W,
    expand_normal_form,
    expand_with_beta,
    r_of,
)
from .obstruction import build_Md, functional_Fd, solve_Rd

_HALF = GaussianRational("1/2")
_THIRD = GaussianRational("1/3")
_SIXTH = GaussianRational("1/6")
_EIGHTH = GaussianRational("1/8")
_TWO_THIRDS = GaussianRational("2/3")
_THREE_QUARTERS = GaussianRational("3/4")
_THREE_HALVES = GaussianRational("3/2")


def build_q(e: NormalFormExpansion, d: int) -> MPoly:
    """Auxiliary polynomial q_d combining S_2..S_d with the constants c_k."""
    r = r_of(W)
    c2, c3, c4, c5 = (e.c[k] for k in (2, 3, 4, 5))
    S = e.S
    if d == 4:
        return S[4] + c2 * S[3] * r - _HALF * c3 * S[2] * r**2
    if d == 5:
        return (
            S[5]
            + 2 * c2 * S[4] * r
            + c2 * c2 * S[3] * r**2
            - _TWO_THIRDS * (c4 + c3 * c2) * S[2] * r**3
        )
    if d == 6:
        return (
            S[6]
            + 3 * c2 * S[5] * r
            + (_HALF * c3 + 3 * c2 * c2) * S[4] * r**2
            + (-_THIRD * c4 + _SIXTH * c3 * c2 + c2**3) * S[3] * r**3
            + (
                -_THREE_QUARTERS * c5
                - _THREE_HALVES * c4 * c2
                - _EIGHTH * c3 * c3
                - _THREE_QUARTERS * c3 * c2 * c2
            )
            * S[2]
            * r**4
        )
    raise ValueError(f"q_d is defined for d in 4..6, got {d}")


def q_of(e: NormalFormExpansion, d: int) -> MPoly:
    """build_q(e, d), built once per expansion: P_4 and P_6 both use ~q4, and
    the laboratory's float model reads the q_d at alpha."""
    if d not in e.q:
        e.q[d] = build_q(e, d)
    return e.q[d]


def build_P(d: int, e_alpha: NormalFormExpansion, e_beta: NormalFormExpansion, R: dict[int, MPoly]) -> MPoly:
    """The degree-d condition polynomial, from the R_k of lower degree solved so far:

        P3 = ~S3 - S3
        P4 = ~q4 - q4 - S2 R3
        P5 = ~q5 - q5 - 2 S2 R4
        P6 = ~q6 - q6 + ~q4 R3 - (1/2) S2 R3^2 - S3 R4 - 3 S2 R5
    """
    S = e_alpha.S
    if d == 3:
        return e_beta.S[3] - S[3]
    if d == 4:
        return q_of(e_beta, 4) - q_of(e_alpha, 4) - S[2] * R[3]
    if d == 5:
        return q_of(e_beta, 5) - q_of(e_alpha, 5) - 2 * S[2] * R[4]
    if d == 6:
        return (
            q_of(e_beta, 6)
            - q_of(e_alpha, 6)
            + q_of(e_beta, 4) * R[3]
            - _HALF * S[2] * R[3] ** 2
            - S[3] * R[4]
            - 3 * S[2] * R[5]
        )
    raise ValueError(f"P_d is defined for d in 3..6, got {d}")


def h_jets(e_alpha: NormalFormExpansion, e_beta: NormalFormExpansion, R3: MPoly, R4: MPoly):
    """Jet constants (h2, h3, h4) of the conjugating parabolic germ.

        h2 = ~c2 - c2
        h3 = h2^2 + (~c3 - c3)/2 + R3(0)
        h4 = (~c4 - c4)/3 - (~c3 ~c2 - c3 c2)/6 - R4(0) - ~c2 R3(0)
             + 3 h3 h2 - 2 h2^3 + (c3/2) h2
    """
    c2, c3, c4 = (e_alpha.c[k] for k in (2, 3, 4))
    t2, t3, t4 = (e_beta.c[k] for k in (2, 3, 4))
    r30 = R3.substitute("w", 0)
    r40 = R4.substitute("w", 0)
    h2 = _as_poly(t2) - c2
    h3 = h2 * h2 + _HALF * (_as_poly(t3) - c3) + r30
    h4 = (
        _THIRD * (_as_poly(t4) - c4)
        - _SIXTH * (_as_poly(t3) * t2 - _as_poly(c3) * c2)
        - r40
        - _as_poly(t2) * r30
        + 3 * h3 * h2
        - 2 * h2**3
        + _HALF * c3 * h2
    )
    return h2, h3, h4


def _as_poly(x) -> MPoly:
    return x if isinstance(x, MPoly) else MPoly.const(x)


@dataclass
class ConditionSet:
    """Per-degree bundle of the exact pipeline outputs, symbolic in beta, with
    the expansion at alpha they compare against (and its memoised q_d)."""

    e_alpha: NormalFormExpansion
    P: dict[int, MPoly] = field(default_factory=dict)
    R: dict[int, MPoly] = field(default_factory=dict)
    F: dict[int, MPoly] = field(default_factory=dict)

    def f_degrees(self) -> dict[int, int]:
        return {d: self.F[d].total_degree() for d in sorted(self.F)}

    def at(self, beta) -> "ConditionSet":
        """Every polynomial at a concrete beta = (b0, b1, b2), substituted exactly."""
        bindings = dict(zip(("b0", "b1", "b2"), beta))
        parts = (self.P, self.R, self.F)
        return ConditionSet(
            self.e_alpha, *({d: f.substitute_values(bindings) for d, f in part.items()} for part in parts)
        )


def build_condition_set(p: FoliationParams) -> ConditionSet:
    """Run the full degree 3..6 pipeline at alpha versus the symbols b0, b1, b2:
    P_d and R_d come out as polynomials in w and beta, F_d in beta."""
    e_alpha, e_beta = expand_normal_form(p, DMAX), expand_with_beta(p)
    cs = ConditionSet(e_alpha)
    for d in (3, 4, 5, 6):
        P = build_P(d, e_alpha, e_beta, cs.R)
        M = build_Md(d, p.lambda1, p.lambda2)
        R = solve_Rd(M, P)
        cs.P[d], cs.R[d], cs.F[d] = P, R, functional_Fd(M, P, R)
    return cs
