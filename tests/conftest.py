import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from holocert.gaussian import GaussianRational
from holocert.mpoly import ExactDivisionError, MPoly, exact_div
from holocert.normalform import (
    DMAX,
    FoliationParams,
    W,
    expand_normal_form,
    p_of,
    r_of,
    s_of,
    validate_genericity,
    verification_point,
)


@pytest.fixture(scope="session")
def tp() -> FoliationParams:
    return verification_point()


def random_gaussian(rng: random.Random, span: int = 3, den: int = 3) -> GaussianRational:
    def rat():
        return (rng.randint(-span, span), rng.randint(1, den))

    (an, ad), (bn, bd) = rat(), rat()
    from fractions import Fraction

    return GaussianRational(Fraction(an, ad), Fraction(bn, bd))


def random_generic_params(rng: random.Random) -> FoliationParams:
    """Random exact parameters passing all exact genericity checks.

    Imaginary parts of the lambdas are forced nonzero, which settles the
    lattice conditions outright; distinctness is enforced by resampling.
    """
    from fractions import Fraction

    while True:
        def lam():
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            return GaussianRational(re, im)

        p = FoliationParams(
            lam(),
            lam(),
            random_gaussian(rng),
            random_gaussian(rng),
            random_gaussian(rng),
        )
        if validate_genericity(p).exact_ok:
            return p


def with_alpha(p: FoliationParams, alpha0, alpha1, alpha2) -> FoliationParams:
    """p's lambdas at other normal-form parameters."""
    return FoliationParams(p.lambda1, p.lambda2, alpha0, alpha1, alpha2)


def sweep_points(n: int) -> list[FoliationParams]:
    """The first n points of the generic-point sweep, the draws of
    random_generic_params from random.Random(11), counted from 0."""
    rng = random.Random(11)
    return [random_generic_params(rng) for _ in range(n)]


# -- independent references the tests hold the package to ---------------------------


def conjugate(x: GaussianRational) -> GaussianRational:
    return GaussianRational(x.re, -x.im)


def divides(g: MPoly, f: MPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ExactDivisionError:
        return False


def _series_mul(a: list[MPoly], b: list[MPoly], nmax: int) -> list[MPoly]:
    out = [MPoly.zero()] * (nmax + 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > nmax:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def series_oracle(p: FoliationParams, dmax: int) -> dict[int, MPoly]:
    """Independent expansion of Psi(z, w): returns numerators A_d with K_d = A_d / r^d.

    The denominator r(1 + a0 sigma z) + p z^2 is inverted as an exact
    geometric series; every coefficient of z^d is then exactly divisible
    by r^(dmax - d), which exact_div certifies as a side effect.
    """
    if not 1 <= dmax <= DMAX:
        raise ValueError(f"dmax must lie in 1..{DMAX}, got {dmax}")
    r = r_of(W)
    s = s_of(p.lambda1, p.lambda2, W)
    pw = p_of(p.alpha1, p.alpha2, W)
    a0 = MPoly.const(p.alpha0)
    sigma = MPoly.const(p.sigma)
    eta = MPoly.const(p.eta)

    # numerator N(z) = s z + (a0 s + 1) z^2 + eta z^3
    N = [MPoly.zero(), s, a0 * s + 1, eta]
    # u(z) = a0 sigma r z + p z^2, the varying part of the denominator
    u = [MPoly.zero(), a0 * sigma * r, pw]

    # T(z) = sum_{k=0}^{dmax-1} (-1)^k u^k r^(dmax-1-k)  =  r^dmax / D  (mod z^dmax)
    T = [MPoly.zero()] * (dmax + 1)
    u_pow = [MPoly.one()]
    for k in range(dmax):
        scale = r ** (dmax - 1 - k)
        for j, cj in enumerate(u_pow):
            if j <= dmax:
                term = cj * scale
                T[j] = T[j] + (term if k % 2 == 0 else -term)
        u_pow = _series_mul(u_pow, u, dmax)

    G = _series_mul(N, T, dmax)  # r^dmax * Psi, truncated
    out = {}
    for d in range(1, dmax + 1):
        out[d] = exact_div(G[d], r ** (dmax - d))
    return out


def oracle_defects(p: FoliationParams) -> dict[int, MPoly]:
    """A_d - c_d r^(d-1) s - S_d for d = 2..DMAX; all zero iff table and oracle agree."""
    exp = expand_normal_form(p)
    A = series_oracle(p, DMAX)
    r = r_of(W)
    s = s_of(p.lambda1, p.lambda2, W)
    out = {}
    for d in range(2, DMAX + 1):
        out[d] = A[d] - MPoly.const(exp.c[d]) * r ** (d - 1) * s - exp.S[d]
    return out


def a2_closed_form(p: FoliationParams) -> tuple[complex, complex]:
    """a_2 of the commutator loops gamma1 and gamma2, in closed form at the
    exact lambdas, to 30 digits (mpmath).  S_2 = r makes a_2 a single loop
    integral of phi1 / r, which the Pochhammer Beta integral (DLMF 5.12.12)
    gives as

        a_2(gamma1) = -2^(l1+l2-1) (1-nu1)(1-nu2) Gamma(l1) Gamma(l2) / Gamma(l1+l2),
        a_2(gamma2) = (1 + nu1) a_2(gamma1),

    with nu_k = exp(2 pi i l_k) and Gamma(l1) Gamma(l2) / Gamma(l1+l2) the
    Beta function B(l1, l2).  It is not itself integrated."""
    import mpmath

    def exact(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(30):
        l1, l2 = (mpmath.mpc(exact(lam.re), exact(lam.im)) for lam in (p.lambda1, p.lambda2))
        nu1, nu2 = mpmath.expjpi(2 * l1), mpmath.expjpi(2 * l2)
        gamma1 = -(2 ** (l1 + l2 - 1)) * (1 - nu1) * (1 - nu2) * mpmath.beta(l1, l2)
        return complex(gamma1), complex((1 + nu1) * gamma1)


small_rat = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)
small_gq = st.builds(GaussianRational, small_rat, small_rat)


@st.composite
def term_dicts(draw, names=("w", "b1", "b0"), max_terms=5, max_exp=3):
    """(vars, {exps: GaussianRational}) in a random variable order, for the MPoly constructor."""
    vars = tuple(draw(st.permutations(names)))
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return vars, draw(st.dictionaries(exps, small_gq, max_size=max_terms))


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20240811)


# -- shared numeric fixtures (expensive, computed once per session) ----------------


def one_loop(loop, base0, integrals0, coeffs, field):
    """integrate_loop's lockstep pass over the one loop."""
    from holocert.numerics.odepath import integrate_loop

    (ends,) = integrate_loop([loop], base0, integrals0, coeffs, field)
    return ends


def one_jet(model, loop):
    """integrate_variations' lockstep pass over the one loop."""
    from holocert.numerics.holonomy import integrate_variations

    (jet,) = integrate_variations(model, [loop])
    return jet


@pytest.fixture(scope="session")
def tp_conditions(tp):
    from holocert.conditions import build_condition_set

    return build_condition_set(tp)


@pytest.fixture(scope="session")
def nloops():
    from holocert.numerics.loops import build_loops

    return build_loops(0.5)


@pytest.fixture(scope="session")
def nmodel(tp):
    from holocert.numerics.holonomy import float_model

    return float_model(tp, expand_normal_form(tp))


@pytest.fixture(scope="session")
def loop_jets(nmodel, nloops):
    """The jets of the generators, the commutators and the structural
    loops, by name, from one lockstep pass, as the laboratory integrates them."""
    from holocert.numerics.checks import structural_loops
    from holocert.numerics.holonomy import integrate_variations

    lone = {lp.label: lp for lp in (nloops.mu1, nloops.mu2, nloops.gamma1, nloops.gamma2)} | structural_loops(nloops)
    return dict(zip(lone, integrate_variations(nmodel, list(lone.values()))))


@pytest.fixture(scope="session")
def gamma_bundles(nmodel, nloops):
    from holocert.numerics.holonomy import bundle_part, integrate_quadratures, integrate_stack

    loops = [nloops.gamma1, nloops.gamma2]
    passed = integrate_stack(loops, [bundle_part(nmodel)])
    return {lp.label: integrate_quadratures(bundle[-1]) for lp, (bundle,) in zip(loops, passed)}


@pytest.fixture(scope="session")
def beta_jets(tp, nloops):
    """The order-2 jets of gamma1 and gamma2 at another alpha, from one
    lockstep pass, each on the mesh it has alone."""
    from holocert.gaussian import GaussianRational as gq
    from holocert.numerics.holonomy import float_model, integrate_stack, variation_jet, variation_part

    p = with_alpha(tp, gq(3, 1), gq(0, 2), gq(-1))
    model = float_model(p, expand_normal_form(p))
    loops = [nloops.gamma1, nloops.gamma2]
    passed = integrate_stack(loops, [variation_part(model, 2)])
    return {lp.label: variation_jet(lp.label, jet[-1]) for lp, (jet,) in zip(loops, passed)}
