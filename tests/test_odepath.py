import cmath
import math

import numpy as np
import pytest

from holocert.numerics.loops import Arc, Line, Loop
from holocert.numerics.odepath import (
    ODEError,
    integrate_fixed_interval,
    integrate_loop,
    integrate_segment,
    integrate_stack,
)


def test_exponential_growth_on_interval():
    y = integrate_fixed_interval(lambda t, y: y, np.array([1.0 + 0j]), rtol=1e-12, atol=1e-14)
    assert abs(y[0] - math.e) < 1e-10


def test_complex_rotation():
    y = integrate_fixed_interval(
        lambda t, y: 1j * math.pi * y, np.array([1.0 + 0j]), rtol=1e-12, atol=1e-14
    )
    assert abs(y[0] + 1.0) < 1e-10  # e^{i pi} = -1


def test_segment_pullback_line():
    # integral of dw along a segment recovers the displacement
    seg = Line(0j, 2 + 1j)
    y = integrate_segment(lambda w, dw, y: np.array([dw]), seg, np.array([0j]), 1e-12, 1e-14)
    assert abs(y[0] - (2 + 1j)) < 1e-10


def test_arclength_accumulator_does_not_cancel():
    # |dw| weighting measures length even over an out-and-back path
    out_back = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), basepoint=0j, label="there-and-back")
    y = integrate_loop(
        lambda w, dw, y: np.array([dw, abs(dw)]), out_back, np.array([0j, 0j]), rtol=1e-12, atol=1e-14
    )
    assert abs(y[0]) < 1e-10  # analytic integral cancels
    assert abs(y[1] - 2.0) < 1e-10  # arclength does not


def test_residue_around_circle():
    # closed integral of 1/w around the unit circle gives 2 pi i
    circle = Arc(0j, 1.0, 0.0, 2 * math.pi)

    def rhs(w, dw, y):
        val = dw / w if w != 0 else 0j
        return np.array([val], dtype=complex)

    acc = np.array([0j])
    acc = integrate_segment(rhs, circle, acc, 1e-12, 1e-14)
    assert abs(acc[0] - 2j * math.pi) < 1e-9


def test_segment_callback_fires_in_order():
    seg1 = Line(0j, 1 + 0j)
    seg2 = Line(1 + 0j, 0j)
    loop = Loop((seg1, seg2), basepoint=0j, label="wedge")
    seen = []
    integrate_loop(
        lambda w, dw, y: np.array([dw]),
        loop,
        np.array([0j]),
        rtol=1e-10,
        atol=1e-13,
        segment_callback=lambda idx, w, y: seen.append((idx, w)),
    )
    assert [i for i, _ in seen] == [0, 1]
    assert seen[0][1] == pytest.approx(1 + 0j)
    assert seen[1][1] == pytest.approx(0j)


def test_nonfinite_state_raises():
    def rhs(t, y):
        return np.array([y[0] ** 2 * 1e4])  # finite-time blowup on [0, 1]

    with pytest.raises(ODEError):
        integrate_fixed_interval(rhs, np.array([1.0 + 0j]), rtol=1e-8, atol=1e-10)


def test_accuracy_scales_with_rtol():
    errs = []
    for rtol in (1e-6, 1e-10):
        y = integrate_fixed_interval(lambda t, y: y, np.array([1.0 + 0j]), rtol=rtol, atol=1e-16)
        errs.append(abs(y[0] - math.e))
    assert errs[1] < errs[0]


@pytest.mark.parametrize("n, k", [(1, 2), (1, 8), (2, 4)])
def test_stacked_copies_match_single_system_bit_for_bit(n, k):
    # k copies of an n-component system: every copy must reproduce the
    # single-system result exactly.  For these (n, k) the RMS error norm of
    # the stacked state equals that of one copy in floating point, so the
    # step sequence is the same and any mixing of components between stage
    # columns would show as a bit difference.
    rates = np.array([1j * math.pi, -0.7 + 2.0j])[:n]
    y0 = np.array([1.0 + 0.5j, -0.3 + 2j])[:n]

    def f(t, y):
        return np.tile(rates, len(y) // n) * y + np.cos(3 * t)

    single = integrate_fixed_interval(f, y0, rtol=1e-10, atol=1e-13)
    stacked = integrate_fixed_interval(f, np.tile(y0, k), rtol=1e-10, atol=1e-13)
    for copy in stacked.reshape(k, n):
        assert np.array_equal(copy, single)


def test_rejected_steps_keep_the_closed_form():
    # the step grows over the flat start of a narrow rotation pulse and is
    # rejected on reaching it; each retry must reuse the stage-0 derivative
    # of the last accepted step, not one from the rejected attempt
    amp, centre, width = 30.0, 0.5, 0.02
    times = []

    def f(t, y):
        times.append(t)
        return 1j * amp * math.exp(-(((t - centre) / width) ** 2)) * y

    y = integrate_fixed_interval(f, np.array([1.0 + 0j]), rtol=1e-10, atol=1e-13)
    rejections = sum(later < earlier for earlier, later in zip(times, times[1:]))
    assert rejections >= 1
    phase = amp * width * math.sqrt(math.pi) / 2 * (math.erf((1 - centre) / width) + math.erf(centre / width))
    assert abs(y[0] - cmath.exp(1j * phase)) < 1e-9


def test_stack_on_a_circle_has_closed_forms():
    # one circle of radius rho about c, starting at w0 = c + rho.  The base
    # b' = 1/(w - c) picks up 2 pi i and carries no mass; I1' = P(w) = 1
    # integrates to 0 with mass 2 pi rho; I2' = I1 reads the field's own
    # integral I1 = w - w0, again integrating to 0, with mass
    # the integral of 2 rho sin(theta/2) against rho dtheta = 8 rho^2
    c, rho = 0.3 - 0.2j, 0.7
    circle = Loop((Arc(c, rho, 0.0, 2 * math.pi),), basepoint=c + rho, label="circle")

    def field(w, y, vals):
        return np.array([1.0 / (w - c), vals[0], y[1]])

    seen = []

    def callback(idx, w, b, i, m):
        seen.append((b.size, i.size, m.size))

    base, integrals, masses = integrate_stack(circle, [0.0], [0.0, 0.0], [[1.0]], field, 1e-12, 1e-14, callback)
    assert base.shape == (1,) and integrals.shape == (2,) and masses.shape == (2,)
    assert seen == [(1, 2, 2)]
    assert abs(base[0] - 2j * math.pi) < 1e-10
    assert np.all(np.abs(integrals) < 1e-10)
    assert abs(masses[0] - 2 * math.pi * rho) < 1e-10
    assert abs(masses[1] - 8 * rho**2) < 1e-10
