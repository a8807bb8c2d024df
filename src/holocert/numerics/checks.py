"""Cross-validation of the closed-form coefficient formulas and integral identities.

Every check produces a row {name, loop, degree, residual, tolerance, pass}.
Residuals are measured relative to the accumulated L1 mass of the
integrands involved (plus the magnitudes of the compared values), which is
the honest scale for cancellation-heavy loop integrals.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp

from ..conditions import ConditionSet
from ..gaussian import GaussianRational
from ..normalform import FoliationParams, L_d, expand_normal_form, r_of
from . import ODEError
from .holonomy import (
    FloatModel,
    Part,
    _to_coeff_array,
    bundle_part,
    float_model,
    integrate_quadratures,
    integrate_stack,
    integrate_variations,
    phi_part,
    variation_jet,
    variation_part,
)
from .jets import HolonomyJet, _compose, commutator, compose, invert, jet_distance
from .loops import RADIUS, Loop, LoopSystem, build_loops, concat
from .odepath import ATOL, RTOL

DEGREE_TOLERANCES = {2: 1e-6, 3: 1e-6, 4: 1e-5, 5: 1e-5, 6: 1e-4}
A1_TOLERANCE = 1e-8
STRUCTURE_TOLERANCE = 1e-7
LEMMA_TOLERANCE = 1e-6
A21_FLOOR = 1e-6
# loops.py walks a word leftmost first: over a path a.b, a's holonomy acts first
CONVENTION = "word read leftmost-first; Delta over a path a.b is Delta_b o Delta_a"


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


def verify_variation_formulas(model: FloatModel, loop: Loop, jet: HolonomyJet, bundle) -> list[CheckRow]:
    """Compare the loop's ODE jet against the formulas assembled from its
    quadrature bundle, degree 2..6."""
    assembled = formula_coefficients(model, bundle)
    rows = []
    for d in range(2, 7):
        value, mass = assembled[d]
        ode = jet.a(d)
        scale = max(1.0, abs(ode), mass, jet.norms[d - 1], bundle.scale(*_SCALE_NAMES.get(d, bundle.norms)))
        residual = abs(ode - value) / scale
        rows.append(_row(f"variation-formula-deg{d}", loop.label, d, residual, DEGREE_TOLERANCES[d]))
    return rows


# the bundle integrals that a_2..a_5 read; a_6 reads all of them
_SCALE_NAMES = {
    2: ("psi2",),
    3: ("psi2", "psi3"),
    4: ("psi2", "psi3", "psi4", "delta1"),
    5: ("psi2", "psi3", "psi4", "psi5", "delta1", "delta2", "gamma1"),
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


def _random_beta(seed: int) -> tuple:
    """A numeric beta, three standard complex normals drawn from seed, made exact."""
    rng = np.random.default_rng(seed)
    return tuple(GaussianRational.from_complex(complex(z)) for z in rng.standard_normal(3) + 1j * rng.standard_normal(3))


_ANTIDERIVATIVE_DEGREES = (3, 4, 5, 6)


@dataclass(frozen=True)
class Lemmas:
    """The integrands of the three lemma families, each a phi_part:
    along gamma1 every two-loop P and then every forward image L_d(R), along
    gamma2 the two-loop P alone, and the antiderivative stack of P_d + F_d
    for d = 3..6, with (R_d, C_d) for its closed forms."""

    two_loop: list
    forward: list
    gamma1: Part
    gamma2: Part
    antiderivative: Part
    closed: list


def lemma_integrands(model: FloatModel, conditions: ConditionSet, seed: int, n_samples: int) -> Lemmas:
    """The samples drawn from seed and the condition set taken at a beta drawn
    from seed + 1, as parts of the loops' stacked integrations."""
    two_loop, forward = draw_lemma_samples(seed, n_samples)
    w = Polynomial([0.0, 1.0])
    images = [L_d(d, model.lam1, model.lam2, Polynomial(R), w, Polynomial.deriv).coef for d, R in forward]
    degrees = [d for d, _ in two_loop + forward]
    coeffs = [P for _, P in two_loop] + images
    n = len(two_loop)
    at_beta = conditions.at(_random_beta(seed + 1))
    numers, closed = [], []
    for d in _ANTIDERIVATIVE_DEGREES:
        F = at_beta.F[d].constant_term().to_complex()
        numers.append(npp.polyadd(_to_coeff_array(at_beta.P[d]), np.array([F], dtype=complex)))
        R = _to_coeff_array(at_beta.R[d])
        closed.append((R, -((-1.0) ** (d - 1)) * npp.polyval(0j, R)))
    return Lemmas(
        two_loop,
        forward,
        phi_part(model, degrees, coeffs),
        phi_part(model, degrees[:n], coeffs[:n]),
        phi_part(model, _ANTIDERIVATIVE_DEGREES, numers),
        closed,
    )


def integrate_commutator_loops(model: FloatModel, loops: LoopSystem, lemmas: Lemmas, seed: int) -> dict:
    """Every family but the jet along gamma1 and along gamma2, one stacked
    integration per loop: the quadrature bundle, the order-2 jet at another
    alpha drawn from seed + 2 (it reads c_2 and S_2 only, so only those are
    expanded), the lemma samples and, along gamma1, the antiderivative
    stack.  The jets are not stacked (``integrate_variations``), so their
    meshes do not depend on the samples drawn.

    Returns loop label -> family -> the family's ends, as ``integrate_stack``
    gives them."""
    p_beta = model.params.with_alpha(*_random_beta(seed + 2))
    model_beta = float_model(p_beta, expand_normal_form(p_beta, 2))
    shared = {"bundle": bundle_part(model), "beta": variation_part(model_beta, 2)}
    stacks = (
        (loops.gamma1, shared | {"samples": lemmas.gamma1, "antiderivative": lemmas.antiderivative}),
        (loops.gamma2, shared | {"samples": lemmas.gamma2}),
    )
    return {lp.label: dict(zip(parts, integrate_stack([lp], list(parts.values()))[0])) for lp, parts in stacks}


def _sample_rows(model: FloatModel, loops: LoopSystem, lemmas: Lemmas, on: dict) -> list[CheckRow]:
    """Both sample families from their stacks, each integrand P phi1^(d-1) / r^d."""
    n = len(lemmas.two_loop)
    _, i1, _, m1 = on[loops.gamma1.label]["samples"][-1]
    _, i2, _, m2 = on[loops.gamma2.label]["samples"][-1]
    rows = []
    for k, (d, _) in enumerate(lemmas.two_loop):
        factor = 1.0 + cmath.exp(2j * math.pi * ((d - 1) * model.lam1 - d))
        scale = max(1.0, m2[k] + abs(factor) * m1[k])
        residual = abs(i2[k] - factor * i1[k]) / scale
        rows.append(_row(f"integral-lemma-two-loops[{k}]", "gamma1/gamma2", d, residual, LEMMA_TOLERANCE))
    for k, (d, _) in enumerate(lemmas.forward):
        residual = abs(i1[n + k]) / max(1.0, m1[n + k])
        rows.append(_row(f"forward-vanishing[{k}]", loops.gamma1.label, d, residual, LEMMA_TOLERANCE))
    return rows


def verify_integral_lemmas(model: FloatModel, loops: LoopSystem, lemmas: Lemmas, on: dict) -> list[CheckRow]:
    """Three families of checks:

    (a) the two-loop identity I(gamma2) = (1 + e^{2 pi i u1}) I(gamma1) for
        random polynomials P against zeta = (1+w)^u1 (1-w)^u2, with
        u_k = (d-1) lambda_k - d; since r = -(1+w)(1-w), zeta equals
        (-1)^d phi1^(d-1) / r^d, and the sign cancels in the identity;
    (b) forward vanishing: integrands L_d(R)/r^d phi1^(d-1) integrate to
        zero along gamma1 for random R of degree <= 2d-3;
    (c) the antiderivative identity for the symbolic condition set's own
        P_d, R_d and F_d, substituted at a numeric beta, checked at every
        segment endpoint of gamma1 with constant C = -(-1)^(d-1) R_d(0).

    All three integrate phi1-weighted integrands, read off ``on``, the
    stacked integrations of ``integrate_commutator_loops``: (a) and (b) are
    the samples part along gamma1 and (a) the one along gamma2; (c) is the
    antiderivative part along gamma1.
    """
    rows = _sample_rows(model, loops, lemmas, on)
    rows.extend(antiderivative_identity_rows(loops.gamma1, lemmas, on[loops.gamma1.label]["antiderivative"]))
    return rows


def antiderivative_identity_rows(loop: Loop, lemmas: Lemmas, ends) -> list[CheckRow]:
    """Check (c): the integral of (P_d + F_d)/r^d phi1^(d-1), at the end of every
    segment of the loop, against its closed form, for d = 3..6."""
    degrees = _ANTIDERIVATIVE_DEGREES
    worst = [0.0] * len(degrees)
    for seg, ((p1,), values, _, masses) in zip(loop.segments, ends):
        w = seg.point(1.0)
        for j, (d, (R, C)) in enumerate(zip(degrees, lemmas.closed)):
            closed = npp.polyval(w, R) / r_of(w) ** (d - 1) * p1 ** (d - 1) + C
            scale = max(1.0, abs(closed), masses[j])
            worst[j] = max(worst[j], abs(complex(values[j]) - closed) / scale)
    return [
        _row(f"antiderivative-identity-deg{d}", loop.label, d, worst[j], LEMMA_TOLERANCE)
        for j, d in enumerate(degrees)
    ]


# -- structural checks ---------------------------------------------------------------


@contextmanager
def _jet_arithmetic_of(row: str):
    """Jet arithmetic for a structural row: a jet that leaves double
    precision names the row that gave up, as a loop breakdown names its
    loop and segment."""
    try:
        yield
    except ODEError as exc:
        raise ODEError(f"row {row!r}: {exc}") from exc


def structural_loops(loops: LoopSystem) -> dict:
    """The loops whose jets only the structural rows read, each labelled by
    its name: gamma1 reversed, mu2 then mu1, and gamma1 at 2/3 of the
    radius."""
    alt_radius = loops.radius * 2.0 / 3.0
    alt = f"gamma1@{alt_radius:g}"
    return {
        "gamma1^-1": loops.gamma1.inverse(),
        "mu2*mu1": concat(loops.mu2, loops.mu1, label="mu2*mu1"),
        alt: concat(build_loops(alt_radius).gamma1, label=alt),
    }


def structural_rows(model: FloatModel, structural: dict, jets: dict, beta_jets: dict) -> list[CheckRow]:
    """Jet-level sanity of the loop construction, under the composition
    convention it fixes, ``CONVENTION``, which commutator-convention asserts.

    ``jets`` maps the labels of mu1, mu2, gamma1 and gamma2 to their jets,
    and the names of ``structural``, as ``structural_loops`` gives it, to
    theirs.  ``beta_jets`` maps gamma1 and gamma2 to their order-2 jets at
    another alpha.
    """
    reversed_name, both_name, alt_name = structural
    rows = []
    for label in ("gamma1", "gamma2"):
        rows.append(
            _row(f"commutator-tangency[{label}]", label, 1, abs(jets[label].a1 - 1.0), A1_TOLERANCE)
        )

    rev = jets[reversed_name]
    with _jet_arithmetic_of("reversed-loop-is-inverse-jet"):
        inverse = invert(jets["gamma1"])
    rows.append(_row("reversed-loop-is-inverse-jet", "gamma1", 0, jet_distance(rev, inverse), STRUCTURE_TOLERANCE))

    seq = jets[both_name]
    with _jet_arithmetic_of("concatenation-composes-jets"):
        composed = compose(jets["mu1"], jets["mu2"])
    rows.append(_row("concatenation-composes-jets", both_name, 0, jet_distance(seq, composed), STRUCTURE_TOLERANCE))

    m1, m2 = jets["mu1"], jets["mu2"]
    with _jet_arithmetic_of("commutator-convention"):
        # mu1 and mu2 inverted once, for both readings
        inv1, inv2 = invert(m1), invert(m2)
        fixed = commutator(inv1, inv2)
    # the other reading, (m2 o m1) o (inv2 o inv1), to degree 2 alone
    other_a2 = _compose(_compose(m2.coeffs[:2], m1.coeffs[:2]), _compose(inv2.coeffs[:2], inv1.coeffs[:2]))[1]
    # assert the convention on a_2 alone, at a raw relative scale: the other
    # reading misses it at O(1), while the degrees above it can lose every
    # digit to rounding where their masses dwarf them; then grade the fixed
    # reading against the mass-aware tolerance
    a2 = jets["gamma1"].a(2)
    miss, other_miss = (abs(a2 - c) / (max(abs(a2), abs(c)) or 1.0) for c in (fixed.a(2), other_a2))
    if miss <= STRUCTURE_TOLERANCE * other_miss:
        residual = jet_distance(jets["gamma1"], fixed)
    else:  # the ratio of the misses, capped at 1 to stay finite
        residual = miss / max(miss, other_miss)
    rows.append(_row("commutator-convention", "gamma1", 0, residual, STRUCTURE_TOLERANCE))

    jet_alt = jets[alt_name]
    rows.append(_row("radius-independence", alt_name, 0, jet_distance(jets["gamma1"], jet_alt), STRUCTURE_TOLERANCE))

    a21 = jets["gamma1"].a(2)
    rows.append(_row("a21-nonzero-proxy", "gamma1", 2, abs(a21), A21_FLOOR, larger_is_better=True))
    nonlinear = max(abs(jets["gamma1"].a(d)) for d in range(2, 7))
    rows.append(_row("nonlinear-jet-proxy", "gamma1", 0, nonlinear, A21_FLOOR, larger_is_better=True))

    a22 = jets["gamma2"].a(2)
    target = 1.0 + model.nu1()
    residual = abs(a22 / a21 - target) / abs(target) if a21 != 0 else math.inf
    rows.append(_row("a22-ratio-is-1-plus-nu1", "gamma2", 2, residual, LEMMA_TOLERANCE))

    # quadratic coefficient is beta-independent: the order-2 jets at another alpha
    for label in ("gamma1", "gamma2"):
        tilde, base = beta_jets[label], jets[label]
        scale = max(1.0, abs(base.a(2)), base.norms[1])
        rows.append(
            _row(f"a2-independent-of-beta[{label}]", label, 2, abs(tilde.a(2) - base.a(2)) / scale, LEMMA_TOLERANCE)
        )
    return rows


def run_numeric_verification(p: FoliationParams, conditions: ConditionSet, seed: int, n_samples: int) -> dict:
    """Full numeric report on p and its symbolic condition set, the one its
    certificate rests on: deterministic given (params, seed, n_samples).  The
    float model is read off the set's own expansion at alpha."""
    model = float_model(p, conditions.e_alpha)
    loops = build_loops(RADIUS)
    lemmas = lemma_integrands(model, conditions, seed, n_samples)
    # the seven loops' jets from one lockstep pass, each on the mesh it has
    # alone; every other family on gamma1 and gamma2 is stacked on one
    # integration of that loop
    structural = structural_loops(loops)
    lone = {lp.label: lp for lp in (loops.gamma1, loops.gamma2, loops.mu1, loops.mu2)} | structural
    jets = dict(zip(lone, integrate_variations(model, list(lone.values()))))
    on = integrate_commutator_loops(model, loops, lemmas, seed)
    commutators = (loops.gamma1, loops.gamma2)
    rows = []
    for lp in commutators:
        bundle = integrate_quadratures(on[lp.label]["bundle"][-1])
        rows.extend(verify_variation_formulas(model, lp, jets[lp.label], bundle))
    rows.extend(verify_integral_lemmas(model, loops, lemmas, on))
    beta_jets = {lp.label: variation_jet(lp.label, on[lp.label]["beta"][-1]) for lp in commutators}
    rows.extend(structural_rows(model, structural, jets, beta_jets))
    return {
        "params": p.to_dict(),
        "radius": RADIUS,
        "rtol": RTOL,
        "atol": ATOL,
        "seed": seed,
        "convention": CONVENTION,
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
