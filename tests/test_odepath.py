import cmath
import math

import numpy as np
import pytest

from holocert.numerics import odepath
from holocert.numerics.loops import Arc, Line, Loop
from holocert.numerics.odepath import (
    ODEError,
    integrate_fixed_interval,
    integrate_loop,
    integrate_stack,
)

EMPTY = np.zeros(0)  # no base components, or no integrals


def base_only(rate):
    """A kernel field with one base component of the given rate and no integrals."""
    return lambda t, b, y: (rate(t), 0.0)


def test_exponential_growth_on_interval():
    b, y, mass = integrate_fixed_interval(base_only(lambda t: 1.0), [1.0], EMPTY, rtol=1e-12)
    assert abs(b[0] - math.e) < 1e-10
    assert y.shape == (0,)
    assert abs(mass[0] - (math.e - 1.0)) < 1e-10  # the mass of b' = b


def test_complex_rotation():
    b, _, _ = integrate_fixed_interval(base_only(lambda t: 1j * math.pi), [1.0], EMPTY, rtol=1e-12)
    assert abs(b[0] + 1.0) < 1e-10  # e^{i pi} = -1


def test_segment_pullback_line():
    # the integral of dw along a segment recovers the displacement
    seg = Line(0j, 2 + 1j)
    _, y, _ = integrate_fixed_interval(
        lambda t, b, y: (0.0, seg.velocity(t)), EMPTY, [0.0], rtol=1e-12
    )
    assert abs(y[0] - (2 + 1j)) < 1e-10


def test_arclength_accumulator_does_not_cancel():
    # the mass weights by |dw|, so it measures length even over an out-and-back path
    out_back = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), basepoint=0j, label="there-and-back")
    _, y, mass = integrate_loop(lambda w, dw, b, y: (0.0, dw), out_back, EMPTY, [0.0], rtol=1e-12)
    assert abs(y[0]) < 1e-10  # the analytic integral cancels
    assert abs(mass[0] - 2.0) < 1e-10  # the arclength does not


def test_residue_around_circle():
    # the closed integral of 1/w around the unit circle is 2 pi i
    circle = Loop((Arc(0j, 1.0, 0.0, 2 * math.pi),), basepoint=1 + 0j, label="circle")
    _, y, _ = integrate_loop(lambda w, dw, b, y: (0.0, dw / w), circle, EMPTY, [0.0], rtol=1e-12)
    assert abs(y[0] - 2j * math.pi) < 1e-9


def test_segment_callback_fires_in_order():
    loop = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), basepoint=0j, label="wedge")
    seen = []
    integrate_loop(
        lambda w, dw, b, y: (0.0, dw),
        loop,
        EMPTY,
        [0.0],
        rtol=1e-10,
        segment_callback=lambda idx, w, b, y, mass: seen.append((idx, w)),
    )
    assert [i for i, _ in seen] == [0, 1]
    assert seen[0][1] == pytest.approx(1 + 0j)
    assert seen[1][1] == pytest.approx(0j)


def test_nonfinite_state_raises():
    # e^1000 leaves double precision on the first piece
    with pytest.raises(ODEError, match="non-finite state"):
        integrate_fixed_interval(base_only(lambda t: 1000.0), [1.0], EMPTY, rtol=1e-8)


def test_field_reading_its_own_integral_is_rejected():
    # y' = y is no iterated integral: the sweeps never reach a fixed point
    with pytest.raises(ValueError, match="no fixed point"):
        integrate_fixed_interval(lambda t, b, y: (0.0, y), EMPTY, [1.0], rtol=1e-12)


def test_jump_exhausts_the_splitting_depth():
    # a jump keeps the Chebyshev tail of the piece holding it at O(1)
    with pytest.raises(ODEError, match="tail above rtol"):
        integrate_fixed_interval(lambda t, b, y: (0.0, (t > 1 / 3) + 0j), EMPTY, [0.0], rtol=1e-12)


def _pulse_run(rtol):
    # a narrow rotation pulse: the pieces around it must be split
    amp, centre, width = 30.0, 0.5, 0.02
    pieces = set()

    def f(t, b, y):
        pieces.add((t[0], t[-1]))
        return 1j * amp * np.exp(-(((t - centre) / width) ** 2)), 0.0

    b, _, _ = integrate_fixed_interval(f, [1.0], EMPTY, rtol=rtol)
    phase = amp * width * math.sqrt(math.pi) / 2 * (math.erf((1 - centre) / width) + math.erf(centre / width))
    return len(pieces), abs(b[0] - cmath.exp(1j * phase))


def test_split_pieces_keep_the_closed_form():
    pieces, err = _pulse_run(1e-10)
    assert pieces > odepath.PIECES
    assert err < 1e-9


def test_accuracy_scales_with_rtol():
    loose, tight = _pulse_run(1e-5), _pulse_run(1e-12)
    assert tight[0] >= loose[0]
    assert tight[1] <= loose[1]


@pytest.mark.parametrize("n, k", [(1, 2), (1, 8), (2, 4)])
def test_stacked_copies_match_single_system_bit_for_bit(n, k):
    # k copies of an n-component system (bases b' = rate b, integrals
    # y' = cos(3t) b): every copy must reproduce the single-system result
    # exactly, so no arithmetic mixes the rows of the state
    rates = np.array([1j * math.pi, -0.7 + 2.0j])[:n]
    b0 = np.array([1.0 + 0.5j, -0.3 + 2j])[:n]

    def f(t, b, y):
        return np.tile(rates, len(b) // n)[:, None], np.cos(3 * t) * b

    single = integrate_fixed_interval(f, b0, np.zeros(n), rtol=1e-10)
    stacked = integrate_fixed_interval(f, np.tile(b0, k), np.zeros(n * k), rtol=1e-10)
    for copy in range(k):
        sl = slice(copy * n, (copy + 1) * n)
        assert np.array_equal(stacked[0][sl], single[0])
        assert np.array_equal(stacked[1][sl], single[1])
        assert np.array_equal(stacked[2][: n * k][sl], single[2][:n])
        assert np.array_equal(stacked[2][n * k :][sl], single[2][n:])


def test_stack_on_a_circle_has_closed_forms():
    # one circle of radius rho about c, starting at w0 = c + rho.  The base
    # b' = 1/(w - c) b returns to 1 with mass 2 pi; I0' = 1/(w - c) picks
    # up 2 pi i; I1' = P(w) = 1 integrates to 0 with mass 2 pi rho; I2' = I1
    # reads the field's own integral I1 = w - w0, again integrating to 0,
    # with mass the integral of 2 rho sin(theta/2) against rho dtheta = 8 rho^2
    c, rho = 0.3 - 0.2j, 0.7
    circle = Loop((Arc(c, rho, 0.0, 2 * math.pi),), basepoint=c + rho, label="circle")

    def field(w, b, y, vals):
        return 1.0 / (w - c), [1.0 / (w - c), vals[0], y[1]]

    seen = []

    def callback(idx, w, b, i, bm, m):
        seen.append((b.size, i.size, bm.size, m.size))

    base, integrals, base_masses, masses = integrate_stack(
        circle, [1.0], [0.0, 0.0, 0.0], [[1.0]], field, 1e-12, callback
    )
    assert base.shape == (1,) and integrals.shape == (3,) and masses.shape == (3,)
    assert seen == [(1, 3, 1, 3)]
    assert abs(base[0] - 1.0) < 1e-10
    assert abs(base_masses[0] - 2 * math.pi) < 1e-10
    assert abs(integrals[0] - 2j * math.pi) < 1e-10
    assert np.all(np.abs(integrals[1:]) < 1e-10)
    assert abs(masses[0] - 2 * math.pi) < 1e-10
    assert abs(masses[1] - 2 * math.pi * rho) < 1e-10
    assert abs(masses[2] - 8 * rho**2) < 1e-10
