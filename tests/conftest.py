import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from holocert.gaussian import GaussianRational
from holocert.normalform import DMAX, FoliationParams, expand_normal_form, validate_genericity, verification_point


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

    return float_model(tp, expand_normal_form(tp, DMAX))


@pytest.fixture(scope="session")
def loop_jets(nmodel, nloops):
    from holocert.numerics.holonomy import integrate_variations

    return {
        lp.label: integrate_variations(nmodel, lp)
        for lp in (nloops.mu1, nloops.mu2, nloops.gamma1, nloops.gamma2)
    }


@pytest.fixture(scope="session")
def gamma_bundles(nmodel, nloops):
    from holocert.numerics.holonomy import integrate_quadratures

    return {
        lp.label: integrate_quadratures(nmodel, lp) for lp in (nloops.gamma1, nloops.gamma2)
    }
