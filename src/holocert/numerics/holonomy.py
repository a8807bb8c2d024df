"""Variational ODE system and the iterated loop integrals, in floats.

The first variation satisfies phi1' = K1 phi1 with phi1(0) = 1; the
reduced variations satisfy phi_d' = B_d with the driving terms

    B2 = K2 p1
    B3 = 2 K2 p2 p1 + K3 p1^2
    B4 = K2 (2 p3 + p2^2) p1 + 3 K3 p2 p1^2 + K4 p1^3
    B5 = 2 K2 (p4 + p3 p2) p1 + 3 K3 (p3 + p2^2) p1^2 + 4 K4 p2 p1^3 + K5 p1^4
    B6 = K2 (2 p5 + 2 p4 p2 + p3^2) p1 + K3 (3 p4 + 6 p3 p2 + p2^3) p1^2
         + K4 (4 p3 + 6 p2^2) p1^3 + 5 K5 p2 p1^4 + K6 p1^5

(p1 = phi1, p_d the reduced variation).  Along a loop the return map is
z -> a1 z + a2 z^2 + ... with a1 = p1(end) and a_d = p1(end) p_d(end).

The quadrature bundle integrates, along the same path, the thirteen
iterated integrals that the degree 2..6 coefficient formulas are made of,
with running psi2 and psi3 entering the deeper integrands.

Both are fields on ``odepath.integrate_stack``, which evaluates the S_d
and q_d at w and keeps the L1 masses.  Each carries phi1 as its base
(phi1 = exp of the integral of K1): the jet stacks phi_2..phi_6 on it,
each B_d reading only phi1..phi_(d-1), and the bundle its thirteen
integrals.  ``phi_field`` is the phi1-weighted integrand
P(w) phi1^(d-1) / r^d they share with the lemma checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..conditions import build_q
from ..mpoly import MPoly
from ..normalform import FoliationParams, expand_normal_form, r_of, s_of
from . import DEFAULT_RTOL, ODEError
from .jets import ORDER, HolonomyJet
from .loops import Loop
from .odepath import integrate_stack


def _to_coeff_array(poly: MPoly) -> np.ndarray:
    cs = poly.coeffs_in("w")
    if not cs:
        return np.zeros(1, dtype=complex)
    return np.array([c.as_constant().to_complex() for c in cs], dtype=complex)


@dataclass(frozen=True)
class FloatModel:
    """Float view of one parameter set's expansion data."""

    params: FoliationParams
    lam1: complex
    lam2: complex
    c: dict  # degree -> complex, c[1] = 1
    S: dict  # degree -> ascending coefficient array
    q: dict  # degree (4..6) -> ascending coefficient array

    def nu1(self) -> complex:
        return cmath.exp(2j * math.pi * self.lam1)


def float_model(p: FoliationParams) -> FloatModel:
    e = expand_normal_form(p)
    c = {d: (e.c[d].to_complex() if d > 1 else 1.0 + 0j) for d in range(1, 7)}
    S = {d: _to_coeff_array(e.S[d]) for d in range(2, 7)}
    q = {d: _to_coeff_array(build_q(e, d)) for d in (4, 5, 6)}
    return FloatModel(p, p.lambda1.to_complex(), p.lambda2.to_complex(), c, S, q)


# -- variational jets ------------------------------------------------------------


def _variation_field(model: FloatModel, order: int):
    """The base phi1 has the rate K1 and the integrals phi_2..phi_order the
    integrands B_2..B_order, with K_d = c_d K1 + S_d / r^d; vals are
    S_2..S_order at w.  B_d reads phi1 and phi_2..phi_(d-1) only."""
    lam1, lam2 = model.lam1, model.lam2
    D = np.arange(2, order + 1)[:, None]
    c = np.array([model.c[d] for d in range(2, order + 1)], dtype=complex)[:, None]

    def field(w, base, p, vals):
        r = r_of(w)
        k1 = s_of(lam1, lam2, w) / r
        K = [0j, k1, *(c * k1 + vals / r**D)]
        p = [base[0], *p]  # p[k] is phi_(k+1)
        p1 = p[0]
        B = []
        if order >= 2:
            B.append(K[2] * p1)
        if order >= 3:
            B.append(2 * K[2] * p[1] * p1 + K[3] * p1**2)
        if order >= 4:
            B.append(K[2] * (2 * p[2] + p[1] ** 2) * p1 + 3 * K[3] * p[1] * p1**2 + K[4] * p1**3)
        if order >= 5:
            B.append(
                2 * K[2] * (p[3] + p[2] * p[1]) * p1
                + 3 * K[3] * (p[2] + p[1] ** 2) * p1**2
                + 4 * K[4] * p[1] * p1**3
                + K[5] * p1**4
            )
        if order >= 6:
            B.append(
                K[2] * (2 * p[4] + 2 * p[3] * p[1] + p[2] ** 2) * p1
                + K[3] * (3 * p[3] + 6 * p[2] * p[1] + p[1] ** 3) * p1**2
                + K[4] * (4 * p[2] + 6 * p[1] ** 2) * p1**3
                + 5 * K[5] * p[1] * p1**4
                + K[6] * p1**5
            )
        return k1, B

    return field


def integrate_variations(
    model: FloatModel,
    loop: Loop,
    order: int = ORDER,
    rtol: float = DEFAULT_RTOL,
) -> HolonomyJet:
    """Holonomy jet of a loop from the variational equations."""
    if not 1 <= order <= ORDER:
        raise ValueError(f"order must lie in 1..{ORDER}")
    S = [model.S[d] for d in range(2, order + 1)]
    zeros = np.zeros(order - 1)
    (p1,), p, (m1,), masses = integrate_stack(loop, [1.0], zeros, S, _variation_field(model, order), rtol)[-1]
    coeffs = np.zeros(ORDER, dtype=complex)
    coeffs[0] = p1
    norms = np.zeros(ORDER)
    norms[0] = m1
    # the state is finite, but a_d = p1 * p_d can still overflow: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, order + 1):
            coeffs[d - 1] = p1 * p[d - 2]
            # the reduced variation's mass scales with |p1| likewise
            norms[d - 1] = abs(p1) * masses[d - 2]
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(norms))):
        raise ODEError(f"the holonomy jet of {loop.label} overflows double precision")
    return HolonomyJet(coeffs, norms=norms)


# -- quadrature bundle -------------------------------------------------------------

_BUNDLE_NAMES = (
    "psi2",
    "psi3",
    "psi4",
    "psi5",
    "psi6",
    "delta1",
    "delta2",
    "delta3",
    "delta11",
    "gamma1",
    "gamma2",
    "gamma01",
    "b1",
)


@dataclass
class QuadratureBundle:
    """The thirteen loop integrals feeding the coefficient formulas.

    values[name] carries the integral and norms[name] the accumulated L1
    mass of its integrand, the natural scale for error statements.
    """

    values: dict
    norms: dict

    def scale(self, *names: str) -> float:
        return max([1.0] + [self.norms[n] for n in names])


def phi_field(model: FloatModel, degrees):
    """Base phi1 (rate K1 = s/r) and one integral per degree: integral k
    has the integrand vals[k] phi1^(d_k - 1) / r^d_k."""
    lam1, lam2 = model.lam1, model.lam2
    D = np.asarray(degrees)[:, None]

    def field(w, base, integrals, vals):
        r = r_of(w)
        return s_of(lam1, lam2, w) / r, vals * (base[0] ** (D - 1) / r**D)

    return field


def _bundle_field(model: FloatModel):
    """psi_d is the phi field of S_2, S_3, q_4, q_5, q_6; the deeper
    integrals weight those integrands by the running psi2 and psi3."""
    phi = phi_field(model, range(2, 7))

    def field(w, base, y, vals):
        rate, head = phi(w, base, y, vals)  # the psi2..psi6 integrands g2..g6
        g3, g4, g5 = head[1], head[2], head[3]
        psi2, psi3 = y[0], y[1]
        return rate, np.concatenate(
            (
                head,
                [
                    g3 * psi2,  # delta1
                    g3 * psi2**2,  # delta2
                    g3 * psi2**3,  # delta3
                    g3 * psi2 * psi3,  # delta11
                    g4 * psi2,  # gamma1
                    g4 * psi2**2,  # gamma2
                    g4 * psi3,  # gamma01
                    g5 * psi2,  # b1
                ],
            )
        )

    return field


def integrate_quadratures(model: FloatModel, loop: Loop, rtol: float = DEFAULT_RTOL) -> QuadratureBundle:
    coeffs = [model.S[2], model.S[3], model.q[4], model.q[5], model.q[6]]
    zeros = np.zeros(len(_BUNDLE_NAMES))
    _, values, _, masses = integrate_stack(loop, [1.0], zeros, coeffs, _bundle_field(model), rtol)[-1]
    return QuadratureBundle(
        values={name: complex(v) for name, v in zip(_BUNDLE_NAMES, values)},
        norms={name: float(abs(m)) for name, m in zip(_BUNDLE_NAMES, masses)},
    )
