import math

import numpy as np
import pytest

from holocert.numerics.loops import RADIUS, Line, Loop, build_loops, concat, nodes

from conftest import one_loop


def winding_number(loop, p):
    """The integral of dw / (w - p) along the loop, over 2 pi i, through the engine."""
    def field(w, vals):
        yield 0.0  # no base
        yield [1.0 / (w - p)]

    _, y, *_ = one_loop(loop, np.zeros(0), [0.0], [], field)[-1]
    n = y[0] / (2j * math.pi)
    assert abs(n - round(n.real)) < 1e-9
    return round(n.real)


def clearance(loop, samples=257):
    """The least distance from the punctures -1, +1 to points sampled on each segment."""
    t = np.linspace(0.0, 1.0, samples)
    return min(np.abs(seg.point(t) - p).min() for seg in loop.segments for p in (-1.0, 1.0))


def test_build_loops_radius_validation():
    with pytest.raises(ValueError):
        build_loops(0.0)
    with pytest.raises(ValueError):
        build_loops(1.0)
    with pytest.raises(ValueError):
        build_loops(-0.5)


def test_generators_wind_once_around_their_puncture():
    loops = build_loops(0.5)
    assert winding_number(loops.mu1, -1) == 1
    assert winding_number(loops.mu1, 1) == 0
    assert winding_number(loops.mu2, 1) == 1
    assert winding_number(loops.mu2, -1) == 0


def test_commutator_words_have_zero_winding():
    loops = build_loops(0.5)
    for lp in (loops.gamma1, loops.gamma2):
        assert winding_number(lp, -1) == 0
        assert winding_number(lp, 1) == 0


def test_inverse_reverses_winding():
    loops = build_loops(0.5)
    assert winding_number(loops.mu1.inverse(), -1) == -1


def test_clearance_equals_radius_for_standard_loops():
    for radius in (0.5, 1 / 3):
        loops = build_loops(radius)
        for lp in (loops.mu1, loops.mu2, loops.gamma1, loops.gamma2):
            assert clearance(lp) == pytest.approx(radius, abs=1e-12)
        assert clearance(loops.gamma2) >= 0.25 or radius < 0.25


def test_loop_rejects_discontinuous_segments():
    with pytest.raises(ValueError):
        Loop((Line(0j, 1j), Line(0.5j, 0j)), "gap")


def test_loop_rejects_open_paths():
    with pytest.raises(ValueError):
        Loop((Line(0j, 1j),), "open")


def test_concat_and_inverse_roundtrip():
    loops = build_loops(0.5)
    null = concat(loops.mu1, loops.mu1.inverse(), label="null")
    assert winding_number(null, -1) == 0
    assert len(null.segments) == 6


def test_point_parameterizations():
    loops = build_loops(0.5)
    seg = loops.mu1.segments[1]
    assert seg.point(0.0) == pytest.approx(-0.5 + 0j)
    assert seg.point(0.5) == pytest.approx(-1.5 + 0j)  # halfway around the circle
    assert seg.point(1.0) == pytest.approx(-0.5 + 0j)


def _every_segment():
    """Every segment of the laboratory's loops, of their inverses and of the
    loops at 2/3 of the radius, and the unit interval."""
    segments = []
    for radius in (RADIUS, RADIUS * 2.0 / 3.0):
        loops = build_loops(radius)
        for lp in (loops.mu1, loops.mu2, loops.gamma1, loops.gamma2):
            segments += [*lp.segments, *lp.inverse().segments]
    return segments + [Line(0.0, 1.0)]


def test_the_batched_nodes_match_each_segment_bit_for_bit():
    # pieces of every segment, at every depth from 0 to 12, in a shuffled
    # order, in one call; the unit interval alone keeps w = t and dw = 1.0
    # real
    x = np.polynomial.chebyshev.chebpts1(32)
    rng = np.random.default_rng(0)
    segments = _every_segment()
    chosen = [segments[k] for k in rng.permutation(np.repeat(np.arange(len(segments)), 4))]
    depth = rng.integers(0, 13, len(chosen))
    a = np.array([rng.integers(0, 2**d) / 2**d for d in depth])
    t = a[:, None] + (1.0 / 2**depth)[:, None] * (x + 1.0) / 2.0
    w, dw = nodes(chosen, t)
    for seg, tk, wk, dwk in zip(chosen, t, w, dw):
        assert wk.tobytes() == np.asarray(seg.point(tk), dtype=complex).tobytes()
        assert dwk.tobytes() == np.broadcast_to(np.asarray(seg.velocity(tk), dtype=complex), tk.shape).tobytes()
    unit = t[:3]
    w, dw = nodes([Line(0.0, 1.0)] * 3, unit)
    assert w.dtype == dw.dtype == float
    assert w.tobytes() == unit.tobytes() and np.all(dw == 1.0)
