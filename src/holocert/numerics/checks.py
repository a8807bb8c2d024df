"""Cross-validation of the closed-form coefficient formulas and integral identities.

Every check produces a row {name, loop, degree, residual, tolerance, pass}.
Residuals are measured relative to the accumulated L1 mass of the
integrands involved (plus the magnitudes of the compared values), which is
the honest scale for cancellation-heavy loop integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp

from ..conditions import build_condition_set
from ..gaussian import GaussianRational
from ..normalform import FoliationParams, L_d, r_of
from . import DEFAULT_RTOL
from .holonomy import (
    FloatModel,
    _to_coeff_array,
    float_model,
    integrate_quadratures,
    integrate_variations,
    phi_field,
)
from .jets import HolonomyJet, commutator, compose, invert, jet_distance
from .loops import Loop, LoopSystem, build_loops, concat
from .odepath import ATOL, integrate_stack

DEGREE_TOLERANCES = {2: 1e-6, 3: 1e-6, 4: 1e-5, 5: 1e-5, 6: 1e-4}
A1_TOLERANCE = 1e-8
STRUCTURE_TOLERANCE = 1e-7
LEMMA_TOLERANCE = 1e-6
A21_FLOOR = 1e-6


@dataclass
class CheckRow:
    name: str
    loop: str
    degree: int
    residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "loop": self.loop,
            "degree": self.degree,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _row(name, loop, degree, residual, tolerance, larger_is_better=False) -> CheckRow:
    ok = residual > tolerance if larger_is_better else residual <= tolerance
    return CheckRow(name, loop, degree, float(residual), float(tolerance), bool(ok))


def _sum_terms(terms) -> tuple[complex, float]:
    total = 0j
    mass = 0.0
    for t in terms:
        total += t
        mass += abs(t)
    return total, mass


# -- coefficient formulas -----------------------------------------------------------


def formula_coefficients(model: FloatModel, bundle) -> dict[int, tuple[complex, float]]:
    """a_2..a_6 assembled from the quadrature bundle and the constants c_d.

    Returns degree -> (value, absolute term mass) pairs; the mass feeds the
    residual scale.
    """
    c2, c3, c4, c5 = (model.c[d] for d in (2, 3, 4, 5))
    v = bundle.values
    a2, m2 = v["psi2"], abs(v["psi2"])
    a3, m3 = _sum_terms([a2**2, v["psi3"]])
    a4, m4 = _sum_terms(
        [2 * a3 * a2, -(a2**3), c3 / 2 * a2, -c2 * v["psi3"], v["delta1"], v["psi4"]]
    )
    a5, m5 = _sum_terms(
        [
            2 * a4 * a2,
            1.5 * a3**2,
            -4 * a3 * a2**2,
            1.5 * a2**4,
            c3 / 2 * a2**2,
            (2 * c4 - c3 * c2) / 3 * a2,
            c2**2 * v["psi3"],
            -2 * c2 * v["psi4"],
            -2 * c2 * v["delta1"],
            v["delta2"],
            2 * v["gamma1"],
            v["psi5"],
        ]
    )
    a6, m6 = _sum_terms(
        [
            2 * a5 * a2,
            3 * a4 * a3,
            -4 * a4 * a2**2,
            -5 * a3**2 * a2,
            7 * a3 * a2**3,
            -2 * a2**5,
            c3 / 2 * a2**3,
            (c4 - c3 * c2 / 2) * a2**2,
            (3 * c5 / 4 - c4 * c2 / 2 - c3**2 / 8 + c3 * c2**2 / 4 + c3 / 2 * v["psi3"]) * a2,
            -c2 / 2 * v["psi3"] ** 2,
            (c4 / 3 + c3 * c2 / 3 - c2**3) * v["psi3"],
            (-c3 / 2 + 3 * c2**2) * v["delta1"],
            -3 * c2 * v["delta2"],
            v["delta3"],
            v["delta11"],
            (-c3 / 2 + 3 * c2**2) * v["psi4"],
            -6 * c2 * v["gamma1"],
            3 * v["gamma2"],
            v["gamma01"],
            -3 * c2 * v["psi5"],
            3 * v["b1"],
            v["psi6"],
        ]
    )
    return {2: (a2, m2), 3: (a3, m3), 4: (a4, m4), 5: (a5, m5), 6: (a6, m6)}


def verify_variation_formulas(
    model: FloatModel,
    loop: Loop,
    rtol: float = DEFAULT_RTOL,
    jet: HolonomyJet | None = None,
) -> list[CheckRow]:
    """Compare the ODE jet against the bundle-assembled formulas, degree 2..6.

    The loop's jet is integrated here unless the caller already holds it.
    """
    if jet is None:
        jet = integrate_variations(model, loop, rtol=rtol)
    bundle = integrate_quadratures(model, loop, rtol=rtol)
    assembled = formula_coefficients(model, bundle)
    rows = []
    for d in range(2, 7):
        value, mass = assembled[d]
        ode = jet.a(d)
        scale = max(1.0, abs(ode), mass, jet.norms[d - 1], bundle.scale(*_SCALE_NAMES[d]))
        residual = abs(ode - value) / scale
        rows.append(_row(f"variation-formula-deg{d}", loop.label, d, residual, DEGREE_TOLERANCES[d]))
    return rows


_SCALE_NAMES = {
    2: ("psi2",),
    3: ("psi2", "psi3"),
    4: ("psi2", "psi3", "psi4", "delta1"),
    5: ("psi2", "psi3", "psi4", "psi5", "delta1", "delta2", "gamma1"),
    6: (
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
    ),
}


# -- integral lemma checks -----------------------------------------------------------


def draw_lemma_samples(seed: int, n_samples: int) -> tuple[list, list]:
    """The random samples of the two lemma families, drawn in one fixed order:
    every two-loop (d, P) with deg P <= 6 first, then every forward-vanishing
    (d, R) with deg R <= 2d - 3."""
    rng = np.random.default_rng(seed)

    def rand_coeffs(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    two_loop = []
    for _ in range(n_samples):
        d = int(rng.integers(3, 7))
        two_loop.append((d, rand_coeffs(7)))
    forward = []
    for _ in range(n_samples):
        d = int(rng.integers(3, 7))
        forward.append((d, rand_coeffs(2 * d - 2)))
    return two_loop, forward


def _two_loop_rows(model: FloatModel, loops: LoopSystem, samples, rtol) -> list[CheckRow]:
    """One zeta = (1+w)^u1 (1-w)^u2 per distinct degree, integrated once along
    each of gamma1 and gamma2 with every sample's P zeta stacked on it."""
    degrees = sorted({d for d, _ in samples})
    slot = np.array([degrees.index(d) for d, _ in samples])
    D = np.array(degrees)
    U1 = (D - 1) * model.lam1 - D
    U2 = (D - 1) * model.lam2 - D

    def field(w, zeta, integrals, vals):
        return U1[:, None] / (1.0 + w) - U2[:, None] / (1.0 - w), vals * zeta[slot]

    coeffs = [P for _, P in samples]
    zeros = np.zeros(len(samples))
    _, i1, _, m1 = integrate_stack(loops.gamma1, np.ones(len(D)), zeros, coeffs, field, rtol)[-1]
    _, i2, _, m2 = integrate_stack(loops.gamma2, np.ones(len(D)), zeros, coeffs, field, rtol)[-1]
    rows = []
    for k, (d, _) in enumerate(samples):
        factor = 1.0 + cmath.exp(2j * math.pi * complex(U1[slot[k]]))
        scale = max(1.0, m2[k] + abs(factor) * m1[k])
        residual = abs(i2[k] - factor * i1[k]) / scale
        rows.append(_row(f"integral-lemma-two-loops[{k}]", "gamma1/gamma2", d, residual, LEMMA_TOLERANCE))
    return rows


def _forward_vanishing_rows(model: FloatModel, loop: Loop, samples, rtol) -> list[CheckRow]:
    """Every L_d(R)/r^d phi1^(d-1) stacked on one phi1, integrated once."""
    degrees = [d for d, _ in samples]
    w = Polynomial([0.0, 1.0])
    images = [L_d(d, model.lam1, model.lam2, Polynomial(R), w, Polynomial.deriv).coef for d, R in samples]
    zeros = np.zeros(len(samples))
    _, values, _, masses = integrate_stack(loop, [1.0], zeros, images, phi_field(model, degrees), rtol)[-1]
    return [
        _row(f"forward-vanishing[{k}]", loop.label, d, abs(values[k]) / max(1.0, masses[k]), LEMMA_TOLERANCE)
        for k, d in enumerate(degrees)
    ]


def verify_integral_lemmas(
    model: FloatModel,
    loops: LoopSystem,
    seed: int = 0,
    n_samples: int = 20,
    rtol: float = DEFAULT_RTOL,
    conditions=None,
) -> list[CheckRow]:
    """Three families of checks:

    (a) the two-loop identity I(gamma2) = (1 + e^{2 pi i u1}) I(gamma1) for
        random polynomials against zeta = (1+w)^u1 (1-w)^u2;
    (b) forward vanishing: integrands L_d(R)/r^d phi1^(d-1) integrate to
        zero along gamma1 for random R of degree <= 2d-3;
    (c) the antiderivative identity for the exact pipeline's R_d at a
        numeric beta, checked at every segment endpoint of gamma1 with
        constant C = -(-1)^(d-1) R_d(0).

    All samples of a family share one path, so each family is one stacked
    integration per loop.
    """
    two_loop, forward = draw_lemma_samples(seed, n_samples)
    rows = []
    if n_samples > 0:
        rows.extend(_two_loop_rows(model, loops, two_loop, rtol))
        rows.extend(_forward_vanishing_rows(model, loops.gamma1, forward, rtol))
    rows.extend(antiderivative_identity_rows(model, loops.gamma1, rtol=rtol, conditions=conditions, seed=seed))
    return rows


def antiderivative_identity_rows(model, loop, rtol=DEFAULT_RTOL, conditions=None, seed=0):
    """Check (c): integral of (P_d + F_d)/r^d phi1^(d-1) against its closed form,
    for d = 3..6 in one pass along the loop."""
    p = model.params
    if conditions is None:
        rng = np.random.default_rng(seed + 1)
        beta = tuple(
            GaussianRational.from_complex(complex(z))
            for z in rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
        conditions = build_condition_set(p, beta=beta)
    degrees = (3, 4, 5, 6)
    numers, Rs, Cs = [], [], []
    for d in degrees:
        F = conditions.F[d].constant_term().to_complex()
        numers.append(npp.polyadd(_to_coeff_array(conditions.P[d]), np.array([F], dtype=complex)))
        R = _to_coeff_array(conditions.R[d])
        Rs.append(R)
        Cs.append(-((-1.0) ** (d - 1)) * npp.polyval(0j, R))
    ends = integrate_stack(loop, [1.0], np.zeros(len(degrees)), numers, phi_field(model, degrees), rtol)
    worst = [0.0] * len(degrees)
    for seg, ((p1,), values, _, masses) in zip(loop.segments, ends):
        w = seg.point(1.0)
        for j, d in enumerate(degrees):
            closed = npp.polyval(w, Rs[j]) / r_of(w) ** (d - 1) * p1 ** (d - 1) + Cs[j]
            scale = max(1.0, abs(closed), masses[j])
            worst[j] = max(worst[j], abs(complex(values[j]) - closed) / scale)
    return [
        _row(f"antiderivative-identity-deg{d}", loop.label, d, worst[j], LEMMA_TOLERANCE)
        for j, d in enumerate(degrees)
    ]


# -- structural checks ---------------------------------------------------------------


def structural_rows(
    model: FloatModel,
    loops: LoopSystem,
    rtol: float = DEFAULT_RTOL,
    seed: int = 0,
    jets: dict | None = None,
) -> tuple[list[CheckRow], str]:
    """Jet-level sanity of the loop construction; also pins down the
    group-word composition convention empirically and reports it.

    ``jets`` maps loop labels to jets the caller already integrated; the
    jets of mu1, mu2, gamma1 and gamma2 not in it are integrated here.
    """
    rows = []
    jets = dict(jets or {})
    for lp in (loops.mu1, loops.mu2, loops.gamma1, loops.gamma2):
        if lp.label not in jets:
            jets[lp.label] = integrate_variations(model, lp, rtol=rtol)

    for label in ("gamma1", "gamma2"):
        rows.append(
            _row(f"commutator-tangency[{label}]", label, 1, abs(jets[label].a1 - 1.0), A1_TOLERANCE)
        )

    rev = integrate_variations(model, loops.gamma1.inverse(), rtol=rtol)
    rows.append(
        _row("reversed-loop-is-inverse-jet", "gamma1", 0, jet_distance(rev, invert(jets["gamma1"])), STRUCTURE_TOLERANCE)
    )

    both = concat(loops.mu2, loops.mu1, label="mu2*mu1")
    seq = integrate_variations(model, both, rtol=rtol)
    rows.append(
        _row(
            "concatenation-composes-jets",
            both.label,
            0,
            jet_distance(seq, compose(jets["mu1"], jets["mu2"])),
            STRUCTURE_TOLERANCE,
        )
    )

    m1, m2 = jets["mu1"], jets["mu2"]
    cand_after = commutator(invert(m1), invert(m2))
    cand_before = commutator(m2, m1)

    def raw_dist(f, g):
        scale = np.maximum(1.0, np.maximum(np.abs(f.coeffs), np.abs(g.coeffs)))
        return float(np.max(np.abs(f.coeffs - g.coeffs) / scale))

    # discriminate on the raw metric (the wrong reading differs at O(1)),
    # then grade the winner against the mass-aware tolerance
    if raw_dist(jets["gamma1"], cand_after) <= raw_dist(jets["gamma1"], cand_before):
        convention = "word read leftmost-first; Delta over a path a.b is Delta_b o Delta_a"
        winner = cand_after
    else:
        convention = "word read leftmost-first; Delta over a path a.b is Delta_a o Delta_b"
        winner = cand_before
    rows.append(
        _row("commutator-convention", "gamma1", 0, jet_distance(jets["gamma1"], winner), STRUCTURE_TOLERANCE)
    )

    alt_radius = loops.radius * 2.0 / 3.0
    alt = build_loops(alt_radius)
    jet_alt = integrate_variations(model, alt.gamma1, rtol=rtol)
    rows.append(
        _row("radius-independence", f"gamma1@{alt_radius:g}", 0, jet_distance(jets["gamma1"], jet_alt), STRUCTURE_TOLERANCE)
    )

    a21 = jets["gamma1"].a(2)
    rows.append(_row("a21-nonzero-proxy", "gamma1", 2, abs(a21), A21_FLOOR, larger_is_better=True))
    nonlinear = max(abs(jets["gamma1"].a(d)) for d in range(2, 7))
    rows.append(_row("nonlinear-jet-proxy", "gamma1", 0, nonlinear, A21_FLOOR, larger_is_better=True))

    a22 = jets["gamma2"].a(2)
    target = 1.0 + model.nu1()
    residual = abs(a22 / a21 - target) / abs(target) if a21 != 0 else math.inf
    rows.append(_row("a22-ratio-is-1-plus-nu1", "gamma2", 2, residual, LEMMA_TOLERANCE))

    # quadratic coefficient is beta-independent: perturb the alpha parameters
    rng = np.random.default_rng(seed + 2)
    beta = tuple(GaussianRational.from_complex(complex(z)) for z in rng.standard_normal(3) + 1j * rng.standard_normal(3))
    model_beta = float_model(model.params.with_alpha(*beta))
    for label, lp in (("gamma1", loops.gamma1), ("gamma2", loops.gamma2)):
        tilde = integrate_variations(model_beta, lp, order=2, rtol=rtol)
        base = jets[label]
        scale = max(1.0, abs(base.a(2)), base.norms[1])
        rows.append(
            _row(f"a2-independent-of-beta[{label}]", label, 2, abs(tilde.a(2) - base.a(2)) / scale, LEMMA_TOLERANCE)
        )
    return rows, convention


def run_numeric_verification(
    p: FoliationParams,
    radius: float = 0.5,
    rtol: float = DEFAULT_RTOL,
    seed: int = 0,
    n_samples: int = 20,
) -> dict:
    """Full numeric report: deterministic given (params, radius, rtol, seed)."""
    model = float_model(p)
    loops = build_loops(radius)
    # each commutator's jet is integrated once and serves both row families
    jets = {lp.label: integrate_variations(model, lp, rtol=rtol) for lp in (loops.gamma1, loops.gamma2)}
    rows = []
    for lp in (loops.gamma1, loops.gamma2):
        rows.extend(verify_variation_formulas(model, lp, rtol=rtol, jet=jets[lp.label]))
    rows.extend(verify_integral_lemmas(model, loops, seed=seed, n_samples=n_samples, rtol=rtol))
    struct, convention = structural_rows(model, loops, rtol=rtol, seed=seed, jets=jets)
    rows.extend(struct)
    return {
        "params": p.to_dict(),
        "radius": radius,
        "rtol": rtol,
        "atol": ATOL,
        "seed": seed,
        "convention": convention,
        "checks": [r.to_dict() for r in rows],
        "n_checks": len(rows),
        "failed": [r.name for r in rows if not r.passed],
        "all_pass": all(r.passed for r in rows),
    }


def numeric_summary(report: dict) -> dict:
    """Compact summary embedded in certificates."""
    return {
        "all_pass": report["all_pass"],
        "n_checks": report["n_checks"],
        "failed": report["failed"],
        "convention": report["convention"],
        "radius": report["radius"],
        "rtol": report["rtol"],
        "seed": report["seed"],
    }
