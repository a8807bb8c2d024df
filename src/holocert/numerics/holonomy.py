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

Each family is a ``Part``: the rows of its integrals on the base phi1
(phi1 = exp of the integral of the rate K1 = s/r), one level at a time,
each read off the levels sent before it.  The jet stacks phi_2..phi_6 on
phi1, one level per B_d, and the bundle its thirteen integrals in two
levels, the five psi_d and then the eight products with psi2 and psi3.
``phi_part`` integrates P(w) phi1^(d-1) / r^d, the integrand of all
three lemma families in ``checks`` and of the bundle's first level.

Every part's base is phi1, so the families that share a loop are
integrated as one: ``integrate_stack`` zips their parts into one field
of ``odepath.integrate_loop`` (which evaluates the S_d and q_d at w,
pulls the rows back by dw and keeps the L1 masses), of one phi1 and one
state, whose level j holds level j of every part, and hands each part
back its own integrals.  A stack refuses parts whose lambdas differ,
which would fix different bases.  Each round's terms in w alone are
computed once for the whole stack (``_Round``): r, the rate K1 and, once
phi1 is sent, one table of the weights phi1^(d-1) / r^d, a row for each
degree the parts read, which every part reads its weights from.  A part
alone is the stack of that one part.  ``integrate_stack(loops, parts)``
is the one call that runs parts along one or more loops, in one lockstep
pass, and the one owner of the start state, phi1 = 1 and zero integrals.

``checks`` stacks, on each commutator loop, the bundle, the order-2 jet
at another alpha and the lemma stacks.  The jets are not stacked, so
the samples drawn do not move their meshes; the seven jets come from
one lockstep pass instead (``integrate_variations``), in which each loop
keeps its lone mesh.  mu2 and mu2*mu1 are gamma1's first 3 and 6
segments, so their jets are read off gamma1's state at the end of those
segments, bit for bit their lone jets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..conditions import q_of
from ..mpoly import MPoly
from ..normalform import FoliationParams, NormalFormExpansion, r_of, s_of
from . import ODEError
from .jets import ORDER, HolonomyJet
from .loops import Loop
from .odepath import integrate_loop


def _to_coeff_array(poly: MPoly) -> np.ndarray:
    """The ascending coefficients of a polynomial in w alone; [0] for zero."""
    return np.array(poly.float_coeffs_in("w") or [0j], dtype=complex)


@dataclass(frozen=True)
class FloatModel:
    """Float view of one table of expansion data, at the degrees it holds."""

    lam1: complex
    lam2: complex
    c: dict  # degree -> complex, c[1] = 1
    S: dict  # degree -> ascending coefficient array
    q: dict  # degree (4..6) -> ascending coefficient array

    def nu1(self) -> complex:
        return cmath.exp(2j * math.pi * self.lam1)


def float_model(p: FoliationParams, e: NormalFormExpansion) -> FloatModel:
    """The float view of e, a table at p's lambdas taken at a concrete point:
    the c_d and S_d of the degrees e holds and the q_d those reach, so
    reading another fails.  The q_d that e carries are not built again."""
    c = {d: cd.to_complex() for d, cd in e.c.items()}
    S = {d: _to_coeff_array(Sd) for d, Sd in e.S.items()}
    q = {d: _to_coeff_array(q_of(e, d)) for d in (4, 5, 6) if d in e.S}
    return FloatModel(p.lambda1.to_complex(), p.lambda2.to_complex(), c, S, q)


# -- stacked integration -----------------------------------------------------------


class _Round:
    """The terms in w alone of one round, computed once for every part of a
    stack: r, the base's rate K1 = s/r and, once phi1 is solved, one table
    of the weights phi1^(d-1) / r^d, a row for each degree the parts read."""

    def __init__(self, lambdas, w, degrees):
        self.r = r_of(w)
        self.k1 = s_of(*lambdas, w) / self.r
        self.row = {d: j for j, d in enumerate(degrees)}

    def weigh(self, p1):
        self.p1 = p1
        # integer-array exponents: a scalar 2 takes numpy's square, which rounds otherwise
        D = np.array(list(self.row), dtype=int)[:, None]
        self.weights = p1 ** (D - 1) / self.r**D

    def weighted(self, vals, degrees):
        """vals[k] phi1^(d_k - 1) / r^d_k for d_k = degrees[k]."""
        return vals * self.weights[[self.row[d] for d in degrees]]


@dataclass(frozen=True)
class Part:
    """One family's share of a stacked loop integration, on the base phi1
    whose rate K1 = s/r its lambdas fix.  rows(rnd, vals) is a generator
    function: from the round's terms rnd (a ``_Round``) and the values vals
    of the polynomials coeffs it yields the family's levels of integrals,
    levels[j] integrals in level j, and is sent each level's solved
    integrals.  degrees are those whose weights it reads off rnd."""

    lambdas: tuple
    rows: object
    coeffs: list
    levels: tuple
    degrees: tuple


def _layout(parts):
    """Where the parts' integrals sit in the stacked state, level by level:
    per level, (part, first row, end row) for each part that has one, in
    part order; per part, the positions of its integrals in the state; and
    the number of integrals."""
    shares, index, n = [], [[] for _ in parts], 0
    for j in range(max(len(part.levels) for part in parts)):
        level_shares, a = [], 0
        for k, part in enumerate(parts):
            if j < len(part.levels):
                level_shares.append((k, a, a + part.levels[j]))
                index[k] += range(n + a, n + a + part.levels[j])
                a += part.levels[j]
        shares.append(level_shares)
        n += a
    return shares, index, n


def _stacked_field(parts):
    """The parts zipped into one field: each round's terms in w, the rate
    and the weights of every degree a part reads, are computed once
    (``_Round``) and read by every part; level j of the stack is level j
    of every part that has one, in part order.  Each part reads its own
    polynomials' values and is sent its own rows of each solved level.
    ValueError if the parts' lambdas differ, since the stack has one base,
    or if a part's levels are not the ones it declares."""
    lambdas = parts[0].lambdas
    if any(part.lambdas != lambdas for part in parts):
        raise ValueError("the stacked parts integrate different bases")
    shares, _, _ = _layout(parts)
    degrees = sorted({d for part in parts for d in part.degrees})
    bounds = np.cumsum([0] + [len(part.coeffs) for part in parts])

    def field(w, vals):
        rnd = _Round(lambdas, w, degrees)
        (p1,) = yield rnd.k1
        rnd.weigh(p1)
        fields = [part.rows(rnd, vals[a:b]) for part, a, b in zip(parts, bounds, bounds[1:])]

        def own(k, a, b):
            try:
                rows = fields[k].send(solved[k])
            except StopIteration:
                rows = ()
            if len(rows) != b - a:
                raise ValueError(f"a stacked part yields {len(rows)} integrals where it declares {b - a}")
            return rows

        solved = [None] * len(parts)  # None starts each part's generator
        for level_shares in shares:
            # the level's rows are not kept here once the engine has them
            level = yield [row for k, a, b in level_shares for row in own(k, a, b)]
            for k, a, b in level_shares:
                solved[k] = level[a:b]
        for part_field, last in zip(fields, solved):
            try:
                part_field.send(last)
            except StopIteration:
                continue
            raise ValueError("a stacked part has more levels than it declares")

    return field


def integrate_stack(loops, parts) -> list:
    """Integrate the parts along each of loops in one lockstep
    ``integrate_loop`` pass, on their one base phi1, from phi1 = 1 and zero
    integrals.  Returns, per loop and per part, the state and masses at the
    end of every segment as ``integrate_loop`` gives them for that part
    alone, (base, integrals, base_masses, masses), the part's integrals in
    its own order although the stacked state holds them level by level."""
    field = _stacked_field(parts)
    _, index, n = _layout(parts)
    coeffs = [c for part in parts for c in part.coeffs]
    passed = integrate_loop(loops, [1.0], np.zeros(n), coeffs, field)
    return [[[(b, y[i], mb, m[i]) for b, y, mb, m in ends] for i in index] for ends in passed]


# -- variational jets ------------------------------------------------------------


def _variation_rows(model: FloatModel, order: int):
    """The integrals phi_2..phi_order on the base phi1 have the integrands
    B_2..B_order, with K_d = c_d K1 + S_d / r^d; vals are S_2..S_order at
    w.  Each B_d is a level of its own, read off phi1 and the solved
    phi_2..phi_(d-1)."""
    D = np.arange(2, order + 1)[:, None]
    c = np.array([model.c[d] for d in range(2, order + 1)], dtype=complex)[:, None]

    def rows(rnd, vals):
        k1, p1 = rnd.k1, rnd.p1
        K = [0j, k1, *(c * k1 + vals / rnd.r**D)]
        # the powers of phi1, each as the sums below evaluate it; a leading
        # e K_e is formed in the sum that reads it, and not kept past it
        pw = {1: p1} | {e: p1**e for e in range(2, order)}  # phi1^e
        p = [p1]  # p[k] is phi_(k+1), one more per level
        for d in range(2, order + 1):
            last = K[d] * pw[d - 1]  # the trailing K_d phi1^(d-1), built at its own level
            if d == 2:
                B = last
            elif d == 3:
                B = 2 * K[2] * p[1] * p1 + last
            elif d == 4:
                B = K[2] * (2 * p[2] + p[1] ** 2) * p1 + 3 * K[3] * p[1] * pw[2] + last
            elif d == 5:
                B = (
                    2 * K[2] * (p[3] + p[2] * p[1]) * p1
                    + 3 * K[3] * (p[2] + p[1] ** 2) * pw[2]
                    + 4 * K[4] * p[1] * pw[3]
                    + last
                )
            else:
                B = (
                    K[2] * (2 * p[4] + 2 * p[3] * p[1] + p[2] ** 2) * p1
                    + K[3] * (3 * p[3] + 6 * p[2] * p[1] + p[1] ** 3) * pw[2]
                    + K[4] * (4 * p[2] + 6 * p[1] ** 2) * pw[3]
                    + 5 * K[5] * p[1] * pw[4]
                    + last
                )
            (phi_d,) = yield [B]
            p.append(phi_d)

    return rows


def variation_part(model: FloatModel, order: int) -> Part:
    """The jet of the given order as a part: phi_2..phi_order, one level each."""
    coeffs = [model.S[d] for d in range(2, order + 1)]
    return Part((model.lam1, model.lam2), _variation_rows(model, order), coeffs, (1,) * (order - 1), ())


def variation_jet(label: str, end) -> HolonomyJet:
    """The holonomy jet of a loop from the variation part's state at its end,
    to the order of the part; a_d = p1 * p_d."""
    (p1,), p, (m1,), masses = end
    coeffs = np.zeros(ORDER, dtype=complex)
    coeffs[0] = p1
    norms = np.zeros(ORDER)
    norms[0] = m1
    # the state is finite, but a_d = p1 * p_d can still overflow: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, len(p) + 2):
            coeffs[d - 1] = p1 * p[d - 2]
            # the reduced variation's mass scales with |p1| likewise
            norms[d - 1] = abs(p1) * masses[d - 2]
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(norms))):
        raise ODEError(f"the holonomy jet of {label} overflows double precision")
    return HolonomyJet(coeffs, norms=norms)


def _begins(loop: Loop, prefix: Loop) -> bool:
    """Whether loop goes on past prefix's segments, which begin it as the same objects."""
    n = len(prefix.segments)
    return len(loop.segments) > n and all(a is b for a, b in zip(loop.segments, prefix.segments))


def integrate_variations(model: FloatModel, loops) -> list:
    """Holonomy jets of loops from the variational equations, in list order,
    from one lockstep pass in which each loop keeps the mesh it has alone.
    ODEError: the pass's breakdown (``integrate_loop``), else the overflow
    of the first jet in list order that overflows.

    A loop whose segments begin a longer loop of the list, as mu2 and
    mu2*mu1 begin gamma1, is not integrated: from the same start state the
    pass solves the longer loop's pieces over those segments as it solves
    the shorter loop's, so the shorter loop's jet is read off the longer
    loop's state at the end of them, and it raises the longer loop's
    breakdown.  The read is keyed by the loop objects, not by labels."""
    whole = [lp for lp in loops if not any(_begins(other, lp) for other in loops)]
    passed = {id(lp): ends for lp, (ends,) in zip(whole, integrate_stack(whole, [variation_part(model, ORDER)]))}
    jets = []
    for lp in loops:
        host = next(h for h in whole if h is lp or _begins(h, lp))
        jets.append(variation_jet(lp.label, passed[id(host)][len(lp.segments) - 1]))
    return jets


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


def phi_part(model: FloatModel, degrees, coeffs) -> Part:
    """One level of integrals on the base phi1, the polynomial coeffs[k]
    against degrees[k]: integral k has the integrand P_k(w) phi1^(d_k - 1)
    / r^d_k.  It serves all three lemma families in ``checks``."""
    degrees = tuple(degrees)

    def rows(rnd, vals):
        yield rnd.weighted(vals, degrees)

    return Part((model.lam1, model.lam2), rows, list(coeffs), (len(degrees),), degrees)


def _bundle_rows(rnd, vals):
    """psi_d integrates S_2, S_3, q_4, q_5, q_6 against the weights of degree
    d = 2..6, the first level; the second weights those integrands by the
    solved psi2 and psi3."""
    g = rnd.weighted(vals, range(2, 7))  # the psi2..psi6 integrands g2..g6
    psi = yield g
    g3, g4, g5 = g[1], g[2], g[3]
    psi2, psi3 = psi[0], psi[1]
    yield [
        g3 * psi2,  # delta1
        g3 * psi2**2,  # delta2
        g3 * psi2**3,  # delta3
        g3 * psi2 * psi3,  # delta11
        g4 * psi2,  # gamma1
        g4 * psi2**2,  # gamma2
        g4 * psi3,  # gamma01
        g5 * psi2,  # b1
    ]


def bundle_part(model: FloatModel) -> Part:
    """The quadrature bundle as a part: the five psi_d, then the eight products."""
    coeffs = [model.S[2], model.S[3], model.q[4], model.q[5], model.q[6]]
    return Part((model.lam1, model.lam2), _bundle_rows, coeffs, (5, 8), (2, 3, 4, 5, 6))


def integrate_quadratures(end) -> QuadratureBundle:
    """The quadrature bundle from the bundle part's state at the end of its loop."""
    _, values, _, masses = end
    return QuadratureBundle(
        values={name: complex(v) for name, v in zip(_BUNDLE_NAMES, values)},
        norms={name: float(abs(m)) for name, m in zip(_BUNDLE_NAMES, masses)},
    )
