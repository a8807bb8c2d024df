"""The resultant chain against an independent rebuild by sympy over QQ_I.

sympy is a separate implementation of polynomial arithmetic and
resultants over QQ_I, sharing no code with mpoly, so agreement on every
intermediate of the chain checks mpoly.resultant, exact_div and the
chain's bookkeeping at generic points, beyond the properties the other
tests assert.  The second reference for mpoly.resultant is in-tree: the
Sylvester determinant bareiss_det(sylvester(f, g, var)), which
tests/test_mpoly.py holds it to.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from sympy import QQ, QQ_I, Poly, symbols  # noqa: E402

from holocert.conditions import build_condition_set  # noqa: E402
from holocert.elimination import resultant_chain  # noqa: E402
from holocert.mpoly import MPoly, resultant  # noqa: E402

from conftest import random_generic_params, term_dicts  # noqa: E402

B0, B1, B2 = symbols("b0 b1 b2")
GENS = (B2, B1, B0)  # elimination order: b2, then b1, then b0
W = symbols("w")


def _qq(x):
    return QQ(int(x.numerator), int(x.denominator))


def to_sympy(p: MPoly, gens=GENS) -> Poly:
    """p as a Poly over QQ_I in gens, read through its GaussianRational terms."""
    names = [str(g) for g in gens]
    terms = {}
    for exps, c in p.terms.items():
        full = [0] * len(gens)
        for var, k in zip(p.vars, exps):
            full[names.index(var)] = k
        terms[tuple(full)] = QQ_I(_qq(c.re), _qq(c.im))
    return Poly.from_dict(terms or {(0,) * len(gens): QQ_I(0)}, *gens, domain=QQ_I)


def over(poly: Poly, gens=GENS) -> Poly:
    """A sympy resultant (a Poly in the remaining generators) over all of gens."""
    return Poly(poly.as_expr(), *gens, domain=QQ_I)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_matches_sympy_at_generic_points(seed):
    p = random_generic_params(random.Random(seed))
    F = build_condition_set(p).F
    chain = resultant_chain(F, p.alpha0)

    P = {d: to_sympy(F[d]) for d in (3, 4, 5, 6)}
    res1 = {j: P[3].resultant(P[j]) for j in (4, 5, 6)}
    for j in (4, 5, 6):
        assert to_sympy(chain.res1[j]) == over(res1[j]), f"Res1_{j}"
    res2 = {j: res1[4].resultant(res1[j]) for j in (5, 6)}
    for j in (5, 6):
        assert to_sympy(chain.res2[j]) == over(res2[j]), f"Res2_{j}"

    res2 = {j: Poly(r.as_expr(), B0, domain=QQ_I) for j, r in res2.items()}
    a0 = p.alpha0
    root = Poly.from_dict({(1,): QQ_I(1), (0,): -QQ_I(_qq(a0.re), _qq(a0.im))}, B0, domain=QQ_I)
    quotient, remainder = res2[5].div(root)
    assert remainder.is_zero
    assert to_sympy(chain.quotient5, (B0,)) == quotient
    res3 = QQ_I.from_sympy(quotient.resultant(res2[6]))
    assert not chain.res3_6.is_zero()
    assert QQ_I(_qq(chain.res3_6.re), _qq(chain.res3_6.im)) == res3


@given(term_dicts(names=("w", "b1")), term_dicts(names=("w", "b1")))
@settings(max_examples=40, deadline=None)
def test_resultant_matches_sympy(f, g):
    fp, gp = MPoly(*f), MPoly(*g)
    n, m = fp.degree("w"), gp.degree("w")
    if n <= 0 or m <= 0:
        return
    # sympy 1.14 returns Res(g, f) = (-1)^(nm) Res(f, g) when deg f < deg g
    # (Res(w + 1, w^3 + 5) comes out -4, not 4), so it is asked with deg f >= deg g
    # and the swap is checked here instead
    assert resultant(gp, fp, "w") == (-1) ** (n * m) * resultant(fp, gp, "w")
    if n < m:
        fp, gp = gp, fp
    gens = (W, symbols("b1"))
    expected = over(to_sympy(fp, gens).resultant(to_sympy(gp, gens)), gens)
    assert to_sympy(resultant(fp, gp, "w"), gens) == expected
