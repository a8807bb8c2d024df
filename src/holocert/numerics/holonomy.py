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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ..conditions import build_q
from ..mpoly import MPoly
from ..normalform import FoliationParams, expand_normal_form, r_of, s_of
from .jets import ORDER, HolonomyJet
from .loops import Loop
from .odepath import ODEError, integrate_loop

# Tight enough that the accumulated per-step error over the ~10^3 steps of a
# commutator loop stays well under the 1e-8 structural budget on a1.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-16


def _to_coeff_array(poly: MPoly) -> np.ndarray:
    cs = poly.coeffs_in("w")
    if not cs:
        return np.zeros(1, dtype=complex)
    return np.array([c.as_constant().to_complex() for c in cs], dtype=complex)


def _polyval(coeffs: np.ndarray, w: complex) -> complex:
    out = 0j
    for c in coeffs[::-1]:
        out = out * w + c
    return out


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


def _variation_rhs(model: FloatModel, order: int):
    lam1, lam2, c, S = model.lam1, model.lam2, model.c, model.S

    def rhs(w, dw, y):
        r = r_of(w)
        k1 = s_of(lam1, lam2, w) / r
        p = y[: order]  # p[0] = phi1, p[d-1] = reduced phi_d
        K = [0j, k1] + [c[d] * k1 + _polyval(S[d], w) / r**d for d in range(2, order + 1)]
        p1 = p[0]
        B = np.zeros(order, dtype=complex)
        B[0] = k1 * p1
        if order >= 2:
            B[1] = K[2] * p1
        if order >= 3:
            B[2] = 2 * K[2] * p[1] * p1 + K[3] * p1**2
        if order >= 4:
            B[3] = K[2] * (2 * p[2] + p[1] ** 2) * p1 + 3 * K[3] * p[1] * p1**2 + K[4] * p1**3
        if order >= 5:
            B[4] = (
                2 * K[2] * (p[3] + p[2] * p[1]) * p1
                + 3 * K[3] * (p[2] + p[1] ** 2) * p1**2
                + 4 * K[4] * p[1] * p1**3
                + K[5] * p1**4
            )
        if order >= 6:
            B[5] = (
                K[2] * (2 * p[4] + 2 * p[3] * p[1] + p[2] ** 2) * p1
                + K[3] * (3 * p[3] + 6 * p[2] * p[1] + p[1] ** 3) * p1**2
                + K[4] * (4 * p[2] + 6 * p[1] ** 2) * p1**3
                + 5 * K[5] * p[1] * p1**4
                + K[6] * p1**5
            )
        dy = np.empty(2 * order, dtype=complex)
        dy[:order] = B * dw
        dy[order:] = np.abs(B) * abs(dw)  # arclength-weighted L1 accumulators
        return dy

    return rhs


def integrate_variations(
    model: FloatModel,
    loop: Loop,
    order: int = ORDER,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> HolonomyJet:
    """Holonomy jet of a loop from the variational equations."""
    if not 1 <= order <= ORDER:
        raise ValueError(f"order must lie in 1..{ORDER}")
    y0 = np.zeros(2 * order, dtype=complex)
    y0[0] = 1.0
    y = integrate_loop(_variation_rhs(model, order), loop, y0, rtol=rtol, atol=atol)
    p1 = y[0]
    coeffs = np.zeros(ORDER, dtype=complex)
    coeffs[0] = p1
    norms = np.zeros(ORDER)
    norms[0] = abs(y[order].real)
    # the state is finite, but a_d = p1 * p_d can still overflow: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, order + 1):
            coeffs[d - 1] = p1 * y[d - 1]
            # the reduced variation's mass scales with |p1| likewise
            norms[d - 1] = abs(p1) * abs(y[order + d - 1].real)
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(norms))):
        raise ODEError(f"the holonomy jet of {loop.label} overflows double precision")
    return HolonomyJet(coeffs, label=loop.label, norms=norms)


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

    loop_label: str
    values: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)

    def scale(self, *names: str) -> float:
        return max([1.0] + [self.norms[n] for n in names])


def _quadrature_rhs(model: FloatModel):
    lam1, lam2 = model.lam1, model.lam2
    S2, S3 = model.S[2], model.S[3]
    q4, q5, q6 = model.q[4], model.q[5], model.q[6]

    def rhs(w, dw, y):
        r = r_of(w)
        p1 = y[0]
        psi2, psi3 = y[1], y[2]
        r2 = r * r
        r4 = r2 * r2
        g2 = _polyval(S2, w) / r2 * p1
        g3 = _polyval(S3, w) / (r2 * r) * p1**2
        g4 = _polyval(q4, w) / r4 * p1**3
        g5 = _polyval(q5, w) / (r4 * r) * p1**4
        g6 = _polyval(q6, w) / (r4 * r2) * p1**5
        grads = np.array(
            [
                g2,  # psi2
                g3,  # psi3
                g4,  # psi4
                g5,  # psi5
                g6,  # psi6
                g3 * psi2,  # delta1
                g3 * psi2**2,  # delta2
                g3 * psi2**3,  # delta3
                g3 * psi2 * psi3,  # delta11
                g4 * psi2,  # gamma1
                g4 * psi2**2,  # gamma2
                g4 * psi3,  # gamma01
                g5 * psi2,  # b1
            ],
            dtype=complex,
        )
        dy = np.empty(1 + 2 * len(_BUNDLE_NAMES), dtype=complex)
        dy[0] = s_of(lam1, lam2, w) / r * p1 * dw
        dy[1 : 1 + len(_BUNDLE_NAMES)] = grads * dw
        dy[1 + len(_BUNDLE_NAMES) :] = np.abs(grads) * abs(dw)
        return dy

    return rhs


def integrate_quadratures(
    model: FloatModel,
    loop: Loop,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> QuadratureBundle:
    n = len(_BUNDLE_NAMES)
    y0 = np.zeros(1 + 2 * n, dtype=complex)
    y0[0] = 1.0
    y = integrate_loop(_quadrature_rhs(model), loop, y0, rtol=rtol, atol=atol)
    bundle = QuadratureBundle(loop_label=loop.label)
    for i, name in enumerate(_BUNDLE_NAMES):
        bundle.values[name] = complex(y[1 + i])
        bundle.norms[name] = float(abs(y[1 + n + i].real))
    return bundle
