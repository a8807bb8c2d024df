from fractions import Fraction

import numpy as np
import pytest

from holocert.numerics import ODEError
from holocert.numerics.jets import (
    ORDER,
    HolonomyJet,
    _compose,
    _power_table,
    commutator,
    compose,
    invert,
    jet_distance,
)


def jet(*coeffs):
    c = np.zeros(6, dtype=complex)
    c[: len(coeffs)] = coeffs
    return HolonomyJet(c)


def test_compose_hand_expansion():
    # f = z + z^2, g = z + z^3: f(g) = z + z^2 + z^3 + 2 z^4 + 0 z^5 + z^6
    f = jet(1, 1, 0, 0, 0, 0)
    g = jet(1, 0, 1, 0, 0, 0)
    out = compose(f, g)
    assert np.allclose(out.coeffs, [1, 1, 1, 2, 0, 1])


def test_compose_with_identity():
    f = jet(1, 2, 3, 4, 5, 6)
    assert np.allclose(compose(f, jet(1)).coeffs, f.coeffs)
    assert np.allclose(compose(jet(1), f).coeffs, f.coeffs)


def test_invert_catalan_signs():
    # reversion of z + z^2: alternating Catalan numbers
    f = jet(1, 1, 0, 0, 0, 0)
    inv = invert(f)
    assert np.allclose(inv.coeffs, [1, -1, 2, -5, 14, -42])
    # oracle: the composition must collapse to the identity through order 6
    assert np.allclose(compose(f, inv).coeffs, [1, 0, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(compose(inv, f).coeffs, [1, 0, 0, 0, 0, 0], atol=1e-12)


def test_invert_general_jet():
    f = jet(2, -1, 0.5j, 3, 0, -2)
    inv = invert(f)
    assert np.allclose(compose(f, inv).coeffs, [1, 0, 0, 0, 0, 0], atol=1e-10)


def test_invert_rejects_singular_jet():
    with pytest.raises(ZeroDivisionError):
        invert(jet(0, 1, 0, 0, 0, 0))


def test_commutator_with_identity_is_identity():
    f = jet(1, 0.5, -2, 1, 0, 3)
    out = commutator(f, jet(1))
    assert np.allclose(out.coeffs, jet(1).coeffs, atol=1e-12)


def test_commutator_of_parabolic_jets_is_higher_order():
    # parabolic commutators start at z^4: the quadratic and cubic terms cancel
    f = jet(1, 0.3, 0, 0, 0, 0)
    g = jet(1, 0, 0.7, 0, 0, 0)
    out = commutator(f, g)
    assert out.coeffs[0] == pytest.approx(1)
    assert abs(out.coeffs[1]) < 1e-12
    assert abs(out.coeffs[2]) < 1e-12


def test_jet_distance_uses_masses():
    a = jet(1, 1000.0, 0, 0, 0, 0)
    b = jet(1, 1000.1, 0, 0, 0, 0)
    assert jet_distance(a, b) == pytest.approx(0.1 / 1000.1)
    a.norms = np.array([0, 1e6, 0, 0, 0, 0.0])
    assert jet_distance(a, b) == pytest.approx(0.1 / 1e6)


def test_group_associativity_numerically():
    f = jet(1, 0.2, -0.1, 0, 0.3, 0)
    g = jet(2, 1, 0, -1, 0, 0)
    h = jet(1, -0.5, 0.5, 0, 0, 1)
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


def test_jet_wants_six_coefficients():
    with pytest.raises(ValueError):
        HolonomyJet(np.ones(4))


def test_jet_arithmetic_that_leaves_double_precision_is_a_breakdown():
    # f(f) for f = z + 1e200 z^2 has a3 = 2e400: no warning and no inf
    # coefficient, but an ODEError
    big = jet(1, 1e200, 0, 0, 0, 0)
    with pytest.raises(ODEError, match="^jet composition overflows double precision$"):
        compose(big, big)
    with pytest.raises(ODEError, match="overflows double precision"):
        invert(jet(1e-200, 1e200, 0, 0, 0, 0))


# exact truncated series arithmetic on complex numbers held as pairs of
# Fractions, the oracle for compose and invert
_ZERO = (Fraction(0), Fraction(0))


def _exact(values):
    return [(Fraction(complex(z).real), Fraction(complex(z).imag)) for z in values]


def _to_float(series):
    return np.array([complex(float(re), float(im)) for re, im in series])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _exact_compose(f, g):
    out, power = [_ZERO] * ORDER, g
    for k in range(ORDER):
        out = [_add(o, _mul(f[k], p)) for o, p in zip(out, power)]
        following = [_ZERO] * ORDER
        for i in range(ORDER):
            for j in range(ORDER - i - 1):
                following[i + j + 1] = _add(following[i + j + 1], _mul(power[i], g[j]))
        power = following
    return out


def _exact_invert(f):
    norm = f[0][0] ** 2 + f[0][1] ** 2
    reciprocal = (f[0][0] / norm, -f[0][1] / norm)
    g = [reciprocal] + [_ZERO] * (ORDER - 1)
    for n in range(1, ORDER):
        step = _mul(_exact_compose(f, g)[n], reciprocal)
        g[n] = (g[n][0] - step[0], g[n][1] - step[1])
    return g


def _random_jet(rng, a1_exponents=(-30, 30)):
    # real and imaginary parts from about 1e-30 to 1e30 in size
    x = rng.standard_normal((2, ORDER)) * 10.0 ** rng.uniform(-30, 30, (2, ORDER))
    x[:, 0] = rng.standard_normal(2) * 10.0 ** rng.uniform(*a1_exponents, 2)
    return HolonomyJet(x[0] + 1j * x[1])


def test_compose_and_invert_match_exact_series_arithmetic():
    # every coefficient within 1e-13 of its mass, the composition of the
    # magnitudes (coefficients' moduli plus masses), and the masses within
    # 1e-13 of that composition taken exactly; invert's a1 stays within
    # 1e-3..1e3 in size, so that every reversion fits in double precision
    rng = np.random.default_rng(0)
    for _ in range(40):
        f, g = _random_jet(rng), _random_jet(rng)
        for h in (f, g):
            h.norms = np.abs(rng.standard_normal(ORDER)) * 10.0 ** rng.uniform(-30, 30, ORDER)
        got = compose(f, g)
        want = _to_float(_exact_compose(_exact(f.coeffs), _exact(g.coeffs)))
        mass = _to_float(_exact_compose(_exact(f.magnitude()), _exact(g.magnitude()))).real
        assert np.all(np.abs(got.coeffs - want) <= 1e-13 * mass)
        assert np.all(np.abs(got.magnitude() - mass) <= 1e-13 * mass)

        f = _random_jet(rng, a1_exponents=(-3, 3))
        inv = invert(f)
        want = _to_float(_exact_invert(_exact(f.coeffs)))
        assert np.all(np.abs(inv.coeffs - want) <= 1e-13 * inv.magnitude())


def test_composing_two_coefficients_gives_the_first_two_of_the_full_composition():
    # the other convention reading composes 2-coefficient slices; their a1
    # and a2 are the full composition's up to the order of the sums
    rng = np.random.default_rng(1)
    for _ in range(200):
        f, g = _random_jet(rng), _random_jet(rng)
        for u, v in ((f.coeffs, g.coeffs), (f.magnitude(), g.magnitude())):
            scale = (np.abs(u) @ _power_table(np.abs(v)))[:2]
            assert np.all(np.abs(_compose(u[:2], v[:2]) - _compose(u, v)[:2]) <= 1e-15 * scale)
