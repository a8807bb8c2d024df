import numpy as np
import pytest

from holocert.numerics import ODEError
from holocert.numerics.jets import (
    ORDER,
    HolonomyJet,
    _trunc_mul,
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


def _numpy_trunc_mul(u, v):
    """The truncated product on numpy scalars, the reference for _trunc_mul."""
    out = np.zeros(ORDER, dtype=np.result_type(u, v))
    for i in range(ORDER):
        if u[i] == 0:
            continue
        for j in range(ORDER - i - 1):
            out[i + j + 1] += u[i] * v[j]
    return out


def test_the_truncated_product_rounds_as_numpy_scalars_do():
    # Python's complex and float products round as complex128 and float64
    # scalars do: coefficients and masses from e^-300 to e^300, zeros among
    # them, and products that overflow, which are not finite in both
    rng = np.random.default_rng(0)
    for k in range(3000):
        x = rng.standard_normal((4, ORDER)) * np.exp(rng.uniform(-300, 300, (4, ORDER)))
        x[:, rng.integers(0, ORDER, 2)] = 0.0 if k % 2 else -0.0
        u, v = x[0] + 1j * x[1], x[2] + 1j * x[3]
        for a, b in ((u, v), (np.abs(u), np.abs(v))):
            with np.errstate(all="ignore"):
                got, want = _trunc_mul(a, b), _numpy_trunc_mul(a, b)
            assert got.dtype == want.dtype and np.array_equal(np.isfinite(got), np.isfinite(want))
            assert got[np.isfinite(got)].tobytes() == want[np.isfinite(want)].tobytes()
