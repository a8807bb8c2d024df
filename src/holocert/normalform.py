"""Normalized quadratic foliations and their series expansion data.

A normalized foliation is determined by five complex parameters: the
characteristic numbers lambda1, lambda2 at the finite singular points
w = -1, +1 (lambda3 = 1 - lambda1 - lambda2 sits at infinity) and the
normal-form parameters alpha0, alpha1, alpha2.  The right-hand side

    Psi(z, w) = z * (s(w)(1 + a0 z) + z + eta z^2)
                  / (r(w)(1 + a0 sigma z) + p(w) z^2)

expands as sum K_d(w) z^d with K_d = c_d K1 + S_d / r^d.  This module
provides the closed-form table of c_d, S_d (d <= 6).  It also holds the
one definition of the geometry r, s, p and L_d, which the exact and the
float code share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .gaussian import GaussianRational, ONE, ZERO, format_gaussian, parse_gaussian
from .mpoly import MPoly

W = MPoly.var("w")
BETA_VARS = ("b0", "b1", "b2")

DMAX = 6  # the pipeline uses degrees d <= 6 only


# -- geometry on the w-line ---------------------------------------------------------
#
# Only +, - and * (and the derivative handed to L_d) are used, so the same code
# serves MPoly with w = W, a complex point w, and numpy Polynomial with
# w = Polynomial([0, 1]).  The _of suffix leaves r, s, p free as local names
# in the formulas that use them.


def r_of(w):
    """r = w^2 - 1, vanishing at the finite singular points w = -1, +1."""
    return w * w - 1


def s_of(lambda1, lambda2, w):
    """s = lambda1 (w - 1) + lambda2 (w + 1); K_1 = s / r."""
    return lambda1 * (w - 1) + lambda2 * (w + 1)


def p_of(alpha1, alpha2, w):
    """p = alpha1 (w - 1) + alpha2 (w + 1), the z^2 term of the denominator of Psi."""
    return alpha1 * (w - 1) + alpha2 * (w + 1)


def L_d(d: int, lambda1, lambda2, f, w, deriv):
    """L_d f = f' r + (d-1)(s - r') f, where deriv differentiates in w."""
    r = r_of(w)
    return deriv(f) * r + (d - 1) * ((s_of(lambda1, lambda2, w) - deriv(r)) * f)


@dataclass(frozen=True)
class FoliationParams:
    """The five exact parameters of a normalized foliation."""

    lambda1: GaussianRational
    lambda2: GaussianRational
    alpha0: GaussianRational
    alpha1: GaussianRational
    alpha2: GaussianRational

    @property
    def lambda3(self) -> GaussianRational:
        return ONE - self.lambda1 - self.lambda2

    @property
    def sigma(self) -> GaussianRational:
        return self.lambda1 + self.lambda2

    @property
    def eta(self) -> GaussianRational:
        return self.alpha1 + self.alpha2

    @property
    def alpha(self) -> tuple[GaussianRational, GaussianRational, GaussianRational]:
        return (self.alpha0, self.alpha1, self.alpha2)

    @classmethod
    def from_strings(cls, lambda1, lambda2, alpha0, alpha1, alpha2) -> "FoliationParams":
        parse = lambda x: x if isinstance(x, GaussianRational) else parse_gaussian(str(x))
        return cls(parse(lambda1), parse(lambda2), parse(alpha0), parse(alpha1), parse(alpha2))

    @classmethod
    def from_dict(cls, d: Mapping) -> "FoliationParams":
        alpha = d["alpha"]
        # unpacking alone would take any three-character string as three literals
        if not (isinstance(alpha, list) and len(alpha) == 3):
            raise ValueError(f"alpha must be a list of three literals, got {alpha!r}")
        return cls.from_strings(d["lambda1"], d["lambda2"], *alpha)

    def to_dict(self) -> dict:
        return {
            "lambda1": format_gaussian(self.lambda1),
            "lambda2": format_gaussian(self.lambda2),
            "alpha": [format_gaussian(a) for a in self.alpha],
        }

    @classmethod
    def from_json_file(cls, path) -> "FoliationParams":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_alpha(self, alpha0, alpha1, alpha2) -> "FoliationParams":
        return FoliationParams(self.lambda1, self.lambda2, alpha0, alpha1, alpha2)


def verification_point() -> FoliationParams:
    """The bundled verification point lambda = (2-i, 2i), alpha = (1, 0, 0)."""
    return FoliationParams(GaussianRational(2, -1), GaussianRational(0, 2), ONE, ZERO, ZERO)


# -- genericity ----------------------------------------------------------------


def _in_fractional_lattice(lam: GaussianRational, k: int) -> bool:
    """Exact membership of lam in (1/k)Z."""
    return lam.im == 0 and (lam.re * k).denominator == 1


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the exact genericity checks (never raises)."""

    pairwise_distinct: bool
    lattice_failures: tuple[str, ...]  # e.g. ("lambda1 in (1/3)Z",)
    ordering_convention: bool  # Re l1 >= Re l2 >= Re l3, recorded only
    numeric_proxy: tuple[str, ...]  # conditions deferred to holonomy numerics

    @property
    def exact_ok(self) -> bool:
        return self.pairwise_distinct and not self.lattice_failures

    def to_dict(self) -> dict:
        return {
            "pairwise_distinct": self.pairwise_distinct,
            "lattice_failures": list(self.lattice_failures),
            "ordering_convention": self.ordering_convention,
            "numeric_proxy": list(self.numeric_proxy),
            "exact_ok": self.exact_ok,
        }


def validate_genericity(p: FoliationParams) -> GenericityReport:
    lams = {"lambda1": p.lambda1, "lambda2": p.lambda2, "lambda3": p.lambda3}
    distinct = len({(v.re, v.im) for v in lams.values()}) == 3
    failures = []
    for name, lam in lams.items():
        for k in (3, 4, 5):
            if _in_fractional_lattice(lam, k):
                failures.append(f"{name} in (1/{k})Z")
    ordering = p.lambda1.re >= p.lambda2.re >= p.lambda3.re  # exact, as it enters the certificate
    proxies = (
        "holonomy group non-solvable (numeric proxy: nonlinear commutator jet)",
        "commutator germ has nonzero quadratic term (numeric proxy: |a21| > 0)",
    )
    return GenericityReport(distinct, tuple(failures), ordering, proxies)


# -- series expansion ------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormExpansion:
    """Closed-form splitting data K_d = c_d K1 + S_d / r^d for d <= dmax <= 6.

    For a plain parameter point the c_d are Gaussian rationals and the S_d
    live in Q(i)[w].  When the normal-form parameters are left symbolic
    (beta pipeline) both pick up the variables b0, b1, b2.
    """

    c: dict  # degree -> GaussianRational | MPoly
    S: dict  # degree -> MPoly
    q: dict = field(default_factory=dict, compare=False, repr=False)  # degree -> q_d, once built


def _closed_form_table(lambda1, lambda2, a0, a1, a2, dmax: int):
    """The table of c_d and S_d for d <= dmax (at most 6); a0, a1, a2 may be symbols."""
    if not 1 <= dmax <= DMAX:
        raise ValueError(f"dmax must lie in 1..{DMAX}, got {dmax}")
    r = r_of(W)
    s = s_of(lambda1, lambda2, W)
    p = p_of(a1, a2, W)
    sigma = lambda1 + lambda2
    eta = a1 + a2
    one_minus = 1 - sigma

    # each entry is built only when its degree is asked for
    c = {
        1: MPoly.one,
        2: lambda: a0 * one_minus,
        3: lambda: -(a0**2) * sigma * one_minus,
        4: lambda: a0**3 * sigma**2 * one_minus,
        5: lambda: -(a0**4) * sigma**3 * one_minus,
        6: lambda: a0**5 * sigma**4 * one_minus,
    }
    S = {
        2: lambda: r,
        3: lambda: -s * p * r + (eta - a0 * sigma) * r**2,
        4: lambda: -p * r**2 + a0 * (2 * sigma - 1) * s * p * r**2 + a0 * sigma * (a0 * sigma - eta) * r**3,
        5: lambda: (
            s * p**2 * r**2
            + (2 * a0 * sigma - eta) * p * r**3
            + a0**2 * sigma * (2 - 3 * sigma) * s * p * r**3
            + a0**2 * sigma**2 * (eta - a0 * sigma) * r**4
        ),
        6: lambda: (
            p**2 * r**3
            + a0 * (1 - 3 * sigma) * s * p**2 * r**3
            + (2 * a0 * sigma * eta - 3 * a0**2 * sigma**2) * p * r**4
            - a0**3 * sigma**2 * (3 - 4 * sigma) * s * p * r**4
            + a0**3 * sigma**3 * (a0 * sigma - eta) * r**5
        ),
    }
    return {d: f() for d, f in c.items() if d <= dmax}, {d: f() for d, f in S.items() if d <= dmax}


def expand_normal_form(p: FoliationParams, dmax: int) -> NormalFormExpansion:
    """Exact c_d and S_d at a parameter point, d = 1..dmax (c) and 2..dmax (S)."""
    a0 = MPoly.const(p.alpha0)
    a1 = MPoly.const(p.alpha1)
    a2 = MPoly.const(p.alpha2)
    c, S = _closed_form_table(p.lambda1, p.lambda2, a0, a1, a2, dmax)
    c_vals = {d: cd.as_constant() for d, cd in c.items()}
    return NormalFormExpansion(c_vals, S)


def expand_with_beta(p: FoliationParams) -> NormalFormExpansion:
    """The whole table with the normal-form parameters replaced by symbols b0, b1, b2."""
    b0, b1, b2 = (MPoly.var(name) for name in BETA_VARS)
    c, S = _closed_form_table(p.lambda1, p.lambda2, b0, b1, b2, DMAX)
    return NormalFormExpansion(c, S)
