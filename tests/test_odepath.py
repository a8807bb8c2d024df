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
    _, y, mass = integrate_loop(lambda w, dw, b, y: (0.0, dw), out_back, EMPTY, [0.0], rtol=1e-12)[-1]
    assert abs(y[0]) < 1e-10  # the analytic integral cancels
    assert abs(mass[0] - 2.0) < 1e-10  # the arclength does not


def test_residue_around_circle():
    # the closed integral of 1/w around the unit circle is 2 pi i
    circle = Loop((Arc(0j, 1.0, 0.0, 2 * math.pi),), basepoint=1 + 0j, label="circle")
    _, y, _ = integrate_loop(lambda w, dw, b, y: (0.0, dw / w), circle, EMPTY, [0.0], rtol=1e-12)[-1]
    assert abs(y[0] - 2j * math.pi) < 1e-9


def test_segment_ends_come_in_path_order():
    # the integral of dw is the end point of each segment, and the mass its
    # arclength from the loop's start
    loop = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), basepoint=0j, label="wedge")
    ends = integrate_loop(lambda w, dw, b, y: (0.0, dw), loop, EMPTY, [0.0], rtol=1e-10)
    assert [y[0] for _, y, _ in ends] == [pytest.approx(1 + 0j), pytest.approx(0j, abs=1e-12)]
    assert [mass[0] for *_, mass in ends] == [pytest.approx(1.0), pytest.approx(2.0)]


def test_nonfinite_state_raises():
    # e^1000 leaves double precision on the first piece
    with pytest.raises(ODEError, match="non-finite state"):
        integrate_fixed_interval(base_only(lambda t: 1000.0), [1.0], EMPTY, rtol=1e-8)


def test_an_overflow_before_the_fixed_point_is_no_breakdown():
    # y0' = 1 and y1' = exp(2000 (t - y0)): the first sweep, at the guess
    # y0 = 0, overflows, but the fixed point y0 = y1 = t is finite
    def f(t, b, y):
        return 0.0, [np.ones_like(t), np.exp(2000.0 * (t - y[0]))]

    _, y, _ = integrate_fixed_interval(f, EMPTY, [0.0, 0.0], rtol=1e-12)
    assert abs(y[1] - 1.0) < 1e-12


def test_field_reading_its_own_integral_is_rejected():
    # y' = y is no iterated integral: the sweeps never reach a fixed point
    with pytest.raises(ValueError, match="no fixed point"):
        integrate_fixed_interval(lambda t, b, y: (0.0, y), EMPTY, [1.0], rtol=1e-12)


def test_no_fixed_point_before_an_overflow_is_still_rejected():
    # y' = y from 6e307: the second piece's state overflows, so only the
    # first must settle, and it does not
    with pytest.raises(ValueError, match="no fixed point"):
        integrate_fixed_interval(lambda t, b, y: (0.0, y), EMPTY, [6e307], rtol=1e-12)


def test_jump_exhausts_the_splitting_depth():
    # a jump keeps the Chebyshev tail of the piece holding it at O(1)
    with pytest.raises(ODEError, match="tail above rtol"):
        integrate_fixed_interval(lambda t, b, y: (0.0, (t > 1 / 3) + 0j), EMPTY, [0.0], rtol=1e-12)


def _pulse_run(rtol):
    # a narrow rotation pulse: the pieces around it must be split
    amp, centre, width = 30.0, 0.5, 0.02
    pieces = set()

    def f(t, b, y):
        # one call covers a block of pieces, N nodes each
        pieces.update(map(tuple, t.reshape(-1, odepath.N)))
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


def _line_loop(n):
    """n unit segments along the real axis, w = s + t on segment s, and back
    (the closing segment carries no field in the tests below)."""
    segments = tuple(Line(complex(s), complex(s + 1)) for s in range(n)) + (Line(complex(n), 0j),)
    return Loop(segments, basepoint=0j, label="line")


def test_a_split_segment_leaves_its_neighbours_alone():
    # a narrow pulse on segment 1 only: segments 0 and 2 keep their initial
    # pieces, although they share blocks with the pieces of segment 1 that fail
    amp, width = 30.0, 0.02
    loop = _line_loop(3)
    nodes = {0: set(), 1: set(), 2: set()}

    def rhs(w, dw, b, y):
        for row in w.reshape(-1, odepath.N):
            seg = int(row.real.min())
            if seg in nodes and row.real.max() < seg + 1:
                nodes[seg].add(tuple(row))
        on = dw.real > 0  # not on the closing segment
        rate = np.where(on, 1j * (0.3 + amp * np.exp(-(((w.real - 1.5) / width) ** 2))), 0.0)
        return rate * dw, np.where(on, b[0], 0.0) * dw

    b, _, _ = integrate_loop(rhs, loop, [1.0], [0.0], rtol=1e-10)[-1]
    assert len(nodes[0]) == len(nodes[2]) == odepath.PIECES
    assert len(nodes[1]) > odepath.PIECES
    phase = 0.9 + amp * width * math.sqrt(math.pi) * math.erf(0.5 / width)
    assert abs(b[0] - cmath.exp(1j * phase)) < 1e-9


def test_nonfinite_state_names_the_first_segment_that_overflows():
    # segment 0 must be split and segment 2 overflows (e^1000); the pieces of
    # segment 3 and later, solved in the same block, go non-finite too, but
    # the error names segment 2 and is no "no fixed point" ValueError
    loop = _line_loop(5)

    def rhs(w, dw, b, y):
        x = w.real
        pulse = np.where(x < 1.0, 40j * np.exp(-(((x - 0.5) / 0.05) ** 2)), 0.0)
        rate = np.where(dw.real > 0, pulse + np.where((x > 2.0) & (x < 3.0), 1000.0, 0.0), 0.0)
        return rate * dw, b[0] * dw

    with pytest.raises(ODEError, match=r"^loop 'line', segment 2: non-finite state$"):
        integrate_loop(rhs, loop, [1.0], [0.0], rtol=1e-10)


def _piece_by_piece(rhs, loop, b0, y0, rtol):
    """The reference for integrate_loop: each piece solved alone from its
    accepted start state, split while its tail test fails, with the
    arithmetic that the blocks must reproduce bit for bit."""
    N, X, C = odepath.N, np.polynomial.chebyshev.chebpts1(odepath.N), odepath._CUMSUM
    b, y = np.asarray(b0, dtype=complex), np.asarray(y0, dtype=complex)
    nb, m = b.size, y.size
    mass, ends = np.zeros(nb + m), []
    for seg in loop.segments:
        seg_mass = np.zeros(nb + m)
        todo = [(k / odepath.PIECES, 1.0 / odepath.PIECES) for k in reversed(range(odepath.PIECES))]
        while todo:
            a, h = todo.pop()
            t = a + h * (X + 1.0) / 2.0
            w, dw = seg.point(t), np.broadcast_to(seg.velocity(t), t.shape)
            nodes, state = np.concatenate((np.repeat(b[:, None], N, 1), np.repeat(y[:, None], N, 1))), None
            for _ in range(m + 2):
                rate, g = rhs(w, dw, nodes[:nb], nodes[nb:])
                derivs = np.concatenate((np.broadcast_to(rate, (nb, N)), np.broadcast_to(g, (m, N))))
                cum = h / 2.0 * (derivs @ C)
                new = np.concatenate((b[:, None] * np.exp(cum[:nb]), y[:, None] + cum[nb:]))
                if state is not None and np.array_equal(new, state):
                    break
                state, nodes = new, new[:, :N]
            coeffs = np.abs(derivs @ odepath._TO_COEFFS.T)
            tail, top = coeffs[:, -odepath.TAIL :].max(axis=1, initial=0.0), coeffs.max(axis=1, initial=0.0)
            if np.any(tail > rtol * top + odepath.ATOL):
                todo += [(a + h / 2.0, h / 2.0), (a, h / 2.0)]
                continue
            moduli = np.abs(np.concatenate((derivs[:nb] * nodes[:nb], derivs[nb:])))
            seg_mass += h / 2.0 * (moduli * C[:, N]).sum(axis=1)
            b, y = state[:nb, N], state[nb:, N]
        mass = mass + seg_mass
        ends.append((b, y, mass))
    return ends


@pytest.mark.parametrize("poison", [False, True])
def test_a_piece_failing_only_from_an_inexact_start_is_halved(poison):
    # y0 takes a pulse on segment 0 and is constant after it, and on segment
    # 1 the integrand (y0 - Y) cos(100 w) vanishes from the accepted state,
    # where y0 = Y: the pieces of segment 1 pass there, but fail from the
    # inexact end of segment 0's unsplit pieces in the first block.  They
    # are halved like any failing piece, so the mesh is not the one of a
    # piece-by-piece solve, which keeps them whole, and the results agree
    # to rounding, not bit for bit.  With poison, the field is infinite on
    # those halves: they belong to the mesh, so that is a breakdown.
    loop = _line_loop(2)

    def run(Y, rows, poison=False, integrate=integrate_loop):
        def rhs(w, dw, b, y):
            x, on = w.real, dw.real > 0
            starts, spans = x.reshape(-1, odepath.N).min(axis=1), np.ptp(x.reshape(-1, odepath.N), axis=1)
            ahead = dw.real.reshape(-1, odepath.N)[:, 0] > 0  # not on the closing segment
            rows.update(zip(starts[ahead].round(6), spans[ahead].round(6)))
            pulse = np.where(x < 1.0, 40.0 * np.exp(-(((x - 0.5) / 0.05) ** 2)), 0.0)
            tail = np.where(x > 1.0, (y[0] - Y) * np.cos(100.0 * w), 0.0)
            if poison:
                halves = np.repeat(ahead & (starts > 1.0) & (spans < 0.3), odepath.N)
                tail = np.where(halves, np.inf, tail)
            return 0.0, np.where(on, [pulse, tail, np.cos(3.0 * w)], 0.0) * dw

        return integrate(rhs, loop, EMPTY, [0.0, 0.0, 0.0], rtol=1e-10)

    Y = run(0.0, set())[0][1][0]  # y0 at the end of segment 0, which the integrand y1 does not touch
    assert abs(Y - 2.0 * math.sqrt(math.pi)) < 1e-9
    if poison:
        run(Y, set(), poison, _piece_by_piece)  # which never reaches the halves
        with pytest.raises(ODEError, match=r"^loop 'line', segment 1: non-finite state$"):
            run(Y, set(), poison)
        return
    block_rows, piece_rows = set(), set()
    blocks = run(Y, block_rows)
    pieces = run(Y, piece_rows, integrate=_piece_by_piece)
    on_segment_1 = lambda rows: sorted(r for r in rows if 1.0 <= r[0] < 2.0)
    assert len(on_segment_1(piece_rows)) == odepath.PIECES
    assert len(on_segment_1(block_rows)) > odepath.PIECES  # the halves were solved
    # the states agree to rounding; the masses, Fejer sums of |cos 3w|,
    # whose kinks no piece resolves, differ by the quadrature error of the
    # two meshes
    for got, want in zip(blocks, pieces, strict=True):
        for u, v in zip(got[:-1], want[:-1]):
            assert np.allclose(u, v, rtol=1e-14, atol=0.0)
        assert np.allclose(got[-1], want[-1], rtol=1e-3, atol=0.0)


@pytest.mark.parametrize("nb", [1, 3])
def test_blocks_match_single_pieces_bit_for_bit(nb):
    # solving BLOCK pieces at once chains their start states in path order
    # with the arithmetic of solving them one by one (_piece_by_piece), so
    # every result and every mid-path value agrees to the last bit; the
    # pulse makes pieces split, and a block then holds pieces of several
    # segments
    loop = _line_loop(4)
    rates = np.array([1j * math.pi, -0.7 + 2.0j, 0.3 - 0.1j])[:nb, None]

    def rhs(w, dw, b, y):
        x = w.real
        rate = rates * (1.0 + 20.0 * np.exp(-(((x - 1.5) / 0.05) ** 2)))
        return rate * dw, [np.cos(3 * w) * b[-1] * dw, y[0] * b[0] * dw]

    def run(integrate):
        return integrate(rhs, loop, np.linspace(1.0, 2.0, nb), [0.0, 0.5j], rtol=1e-11)

    blocks, pieces = run(integrate_loop), run(_piece_by_piece)
    assert len(blocks) == len(pieces) == len(loop.segments)
    for got, want in zip(blocks, pieces):
        for u, v in zip(got, want):
            assert np.array_equal(u, v)


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

    ends = integrate_stack(circle, [1.0], [0.0, 0.0, 0.0], [[1.0]], field, 1e-12)
    assert len(ends) == 1  # one segment
    base, integrals, base_masses, masses = ends[-1]
    assert [x.shape for x in ends[-1]] == [(1,), (3,), (1,), (3,)]
    assert abs(base[0] - 1.0) < 1e-10
    assert abs(base_masses[0] - 2 * math.pi) < 1e-10
    assert abs(integrals[0] - 2j * math.pi) < 1e-10
    assert np.all(np.abs(integrals[1:]) < 1e-10)
    assert abs(masses[0] - 2 * math.pi) < 1e-10
    assert abs(masses[1] - 2 * math.pi * rho) < 1e-10
    assert abs(masses[2] - 8 * rho**2) < 1e-10
