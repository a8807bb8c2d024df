import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from holocert.numerics import odepath
from holocert.numerics.loops import RADIUS, Arc, Line, Loop, build_loops, nodes
from holocert.numerics.odepath import ODEError, integrate_fixed_interval, integrate_loop

from conftest import one_loop

EMPTY = np.zeros(0)  # no base components, or no integrals
# integrate_fixed_interval's path, t in [0, 1] with dw = 1, for _piece_by_piece
UNIT = SimpleNamespace(segments=(Line(0.0, 1.0),), label=None)


def no_levels(rate):
    """A field's generator with the base's rate and no integrals: no level
    after the base."""
    yield rate


def one_level(rate, rows):
    """A field's generator with the base's rate and one level of
    integrals, rows(b) from the solved base b."""
    b = yield rate
    yield rows(b)


def base_only(rate):
    """A kernel field with one base component of the given rate and no integrals."""
    return lambda t: no_levels(rate(t))


def test_exponential_growth_on_interval():
    b, y, mass, _ = integrate_fixed_interval(base_only(lambda t: 1.0), [1.0], EMPTY)
    assert abs(b[0] - math.e) < 1e-10
    assert y.shape == (0,)
    assert abs(mass[0] - (math.e - 1.0)) < 1e-10  # the mass of b' = b


def test_complex_rotation():
    b, *_ = integrate_fixed_interval(base_only(lambda t: 1j * math.pi), [1.0], EMPTY)
    assert abs(b[0] + 1.0) < 1e-10  # e^{i pi} = -1


def test_segment_pullback_line():
    # the integral of dw along a segment recovers the displacement
    seg = Line(0j, 2 + 1j)
    _, y, *_ = integrate_fixed_interval(lambda t: one_level(0.0, lambda b: [seg.velocity(t)]), EMPTY, [0.0])
    assert abs(y[0] - (2 + 1j)) < 1e-10


def test_arclength_accumulator_does_not_cancel():
    # the mass weights by |dw|, so it measures length even over an out-and-back path
    out_back = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), "there-and-back")
    _, y, _, mass = one_loop(out_back, EMPTY, [0.0], [], lambda w, vals: one_level(0.0, lambda b: [1.0]))[-1]
    assert abs(y[0]) < 1e-10  # the analytic integral cancels
    assert abs(mass[0] - 2.0) < 1e-10  # the arclength does not


def test_residue_around_circle():
    # the closed integral of 1/w around the unit circle is 2 pi i
    circle = Loop((Arc(0j, 1.0, 0.0, 2 * math.pi),), "circle")
    _, y, *_ = one_loop(circle, EMPTY, [0.0], [], lambda w, vals: one_level(0.0, lambda b: [1.0 / w]))[-1]
    assert abs(y[0] - 2j * math.pi) < 1e-9


def test_a_loop_without_polynomials_gets_empty_vals():
    # coeffs = [] evaluates no polynomial, so vals has no rows; the base
    # b' = b / w, b = w, returns to 1 around the unit circle, and
    # y' = b / w^2 = 1 / w picks up 2 pi i
    circle = Loop((Arc(0j, 1.0, 0.0, 2 * math.pi),), "circle")
    shapes = set()

    def field(w, vals):
        shapes.add(vals.shape == (0, w.size))
        return one_level(1.0 / w, lambda b: b / w**2)

    (b,), (y,), _, _ = one_loop(circle, [1.0], [0.0], [], field)[-1]
    assert shapes == {True}
    assert abs(b - 1.0) < 1e-10
    assert abs(y - 2j * math.pi) < 1e-9


def test_segment_ends_come_in_path_order(monkeypatch):
    # the integral of dw is the end point of each segment, and the mass its
    # arclength from the loop's start
    loop = Loop((Line(0j, 1 + 0j), Line(1 + 0j, 0j)), "wedge")
    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    ends = one_loop(loop, EMPTY, [0.0], [], lambda w, vals: one_level(0.0, lambda b: [1.0]))
    assert [y[0] for _, y, *_ in ends] == [pytest.approx(1 + 0j), pytest.approx(0j, abs=1e-12)]
    assert [mass[0] for *_, mass in ends] == [pytest.approx(1.0), pytest.approx(2.0)]


def test_nonfinite_state_raises(monkeypatch):
    # e^1000 leaves double precision on the first piece
    monkeypatch.setattr(odepath, "RTOL", 1e-8)
    with pytest.raises(ODEError, match="non-finite state"):
        integrate_fixed_interval(base_only(lambda t: 1000.0), [1.0], EMPTY)


@pytest.mark.parametrize("b0", [7e307, 9e307])
def test_a_state_near_the_double_range_keeps_finite_sums(b0):
    # b' = b/2 and y' = b: b(1) = b0 e^(1/2) and y(1) = 2 b0 (e^(1/2) - 1)
    # are finite, but a piece's sums before the scaling by its half-length
    # h/2 would be 2/h times larger and overflow
    b, y, *masses = integrate_fixed_interval(lambda t: one_level(0.5, lambda b: b), [b0], [0.0])
    assert b[0] == pytest.approx(b0 * math.exp(0.5), rel=1e-13)
    assert y[0] == pytest.approx(b0 * (2.0 * (math.exp(0.5) - 1.0)), rel=1e-13)
    assert np.all(np.isfinite(masses))


def test_an_overflow_before_the_fixed_point_is_no_breakdown():
    # y0' = 1 and y1' = exp(2000 (t - y0)), in two levels: the first Picard
    # sweep of _piece_by_piece, at the guess y0 = 0, overflows, but its
    # fixed point y0 = y1 = t is finite, and the level solve reaches it
    # without that guess
    def f(t):
        yield 0.0
        (y0,) = yield [np.ones_like(t)]
        yield [np.exp(2000.0 * (t - y0))]

    _, y, *_ = integrate_fixed_interval(f, EMPTY, [0.0, 0.0])
    assert abs(y[1] - 1.0) < 1e-12
    (want,) = _piece_by_piece(UNIT, EMPTY, [0.0, 0.0], [], lambda w, vals: f(w))
    assert np.array_equal(y, want[1])


def _levels_of(sizes, sent):
    """A field on [0, 1] with no base and integrals in levels of the given
    sizes, each row the constant 1; sent collects every level's integrals
    the engine sends, less the nodes t, so each row is its integral's start
    value."""

    def f(t):
        yield 0.0
        for n in sizes:
            sent.append((yield [np.ones_like(t)] * n) - t)

    return f


def _no_rate(t):
    """A field that returns before it yields the base's rate."""
    yield from ()


@pytest.mark.parametrize("sizes", [(), (1,), (2, 1), None])
def test_levels_short_of_the_integrals_are_rejected(sizes):
    # sizes None: the field is short even of the base's rate
    if sizes is None:
        field, why = _no_rate, "the field returns before it yields the base's rate"
    else:
        field, why = _levels_of(sizes, []), f"yield {sum(sizes)} of its 4 integrals"
    with pytest.raises(ValueError, match=why):
        integrate_fixed_interval(field, EMPTY, np.zeros(4))


@pytest.mark.parametrize("sizes", [(3,), (1, 2)])
def test_levels_beyond_the_integrals_are_rejected(sizes):
    with pytest.raises(ValueError, match="yield more than its 2 integrals"):
        integrate_fixed_interval(_levels_of(sizes, []), EMPTY, np.zeros(2))


def test_each_level_is_sent_its_own_integrals():
    # levels of 2, 3 and 1 rows from the start values 0..5: after each
    # level the engine sends that level's integrals at the block's nodes,
    # and nothing else
    sent = []
    _, y, *_ = integrate_fixed_interval(_levels_of((2, 3, 1), sent), EMPTY, np.arange(6.0))
    assert np.allclose(y, np.arange(6.0) + 1.0, rtol=1e-15, atol=0.0)
    nodes = odepath.PIECES * odepath.N  # one block of the initial pieces
    assert [x.shape for x in sent] == [(2, nodes), (3, nodes), (1, nodes)]
    for x, start in zip(sent, ([0.0, 1.0], [2.0, 3.0, 4.0], [5.0])):
        assert np.allclose(x, np.array(start)[:, None], rtol=0.0, atol=1e-14)


def test_jump_exhausts_the_splitting_depth():
    # a jump keeps the Chebyshev tail of the piece holding it at O(1)
    with pytest.raises(ODEError, match="tail above rtol"):
        integrate_fixed_interval(lambda t: one_level(0.0, lambda b: [(t > 1 / 3) + 0j]), EMPTY, [0.0])


def _pulse_run(monkeypatch, rtol):
    # a narrow rotation pulse: the pieces around it must be split
    monkeypatch.setattr(odepath, "RTOL", rtol)
    amp, centre, width = 30.0, 0.5, 0.02
    pieces = set()

    def f(t):
        # one call covers a block of pieces, N nodes each
        pieces.update(map(tuple, t.reshape(-1, odepath.N)))
        return no_levels(1j * amp * np.exp(-(((t - centre) / width) ** 2)))

    b, *_ = integrate_fixed_interval(f, [1.0], EMPTY)
    phase = amp * width * math.sqrt(math.pi) / 2 * (math.erf((1 - centre) / width) + math.erf(centre / width))
    return len(pieces), abs(b[0] - cmath.exp(1j * phase))


def test_split_pieces_keep_the_closed_form(monkeypatch):
    pieces, err = _pulse_run(monkeypatch, 1e-10)
    assert pieces > odepath.PIECES
    assert err < 1e-9


def test_accuracy_scales_with_rtol(monkeypatch):
    loose, tight = _pulse_run(monkeypatch, 1e-5), _pulse_run(monkeypatch, 1e-12)
    assert tight[0] >= loose[0]
    assert tight[1] <= loose[1]


def _line_loop(n):
    """n unit segments along the real axis, w = s + t on segment s, and back
    along a half circle below it: the fields below are zero off the axis,
    so the closing segment carries none."""
    out = tuple(Line(complex(s), complex(s + 1)) for s in range(n))
    return Loop(out + (Arc(n / 2, n / 2, 0.0, -math.pi),), "line")


def test_a_split_segment_leaves_its_neighbours_alone(monkeypatch):
    # a narrow pulse on segment 1 only: segments 0 and 2 keep their initial
    # pieces, although they share blocks with the pieces of segment 1 that fail
    amp, width = 30.0, 0.02
    loop = _line_loop(3)
    nodes = {0: set(), 1: set(), 2: set()}

    def field(w, vals):
        for row in w.reshape(-1, odepath.N):
            seg = int(row.real.min())
            if seg in nodes and row.real.max() < seg + 1 and not row.imag.any():
                nodes[seg].add(tuple(row))
        on = w.imag == 0  # not on the closing segment
        rate = np.where(on, 1j * (0.3 + amp * np.exp(-(((w.real - 1.5) / width) ** 2))), 0.0)
        return one_level(rate, lambda b: [np.where(on, b[0], 0.0)])

    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    b, *_ = one_loop(loop, [1.0], [0.0], [], field)[-1]
    assert len(nodes[0]) == len(nodes[2]) == odepath.PIECES
    assert len(nodes[1]) > odepath.PIECES
    phase = 0.9 + amp * width * math.sqrt(math.pi) * math.erf(0.5 / width)
    assert abs(b[0] - cmath.exp(1j * phase)) < 1e-9


def test_nonfinite_state_names_the_first_segment_that_overflows(monkeypatch):
    # segment 0 must be split and segment 2 overflows (e^1000); the pieces of
    # segment 3 and later, solved in the same block, go non-finite too, but
    # the error names segment 2
    loop = _line_loop(5)

    def field(w, vals):
        x = w.real
        pulse = np.where(x < 1.0, 40j * np.exp(-(((x - 0.5) / 0.05) ** 2)), 0.0)
        rate = np.where(w.imag == 0, pulse + np.where((x > 2.0) & (x < 3.0), 1000.0, 0.0), 0.0)
        return one_level(rate, lambda b: [b[0]])

    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    with pytest.raises(ODEError, match=r"^loop 'line', segment 2: non-finite state$"):
        one_loop(loop, [1.0], [0.0], [], field)


def _counted_pulse_field(m, fields, bindings, levels):
    """A field on _line_loop with one base, whose rate pulse splits pieces,
    and m <= 2 integrals, one per level: the first reads the base, the
    second the first.  Each call appends its block's index to fields, each
    send of the solved base to bindings, and levels[block] counts the
    block's levels."""

    def field(w, vals):
        block = len(levels)
        fields.append(block)
        levels.append(0)
        on = w.imag == 0  # not on the closing segment
        rate = np.where(on, 1j * (0.3 + 30.0 * np.exp(-(((w.real - 1.5) / 0.02) ** 2))), 0.0)
        weight = np.where(on, np.cos(3.0 * w), 0.0)
        b = yield rate
        assert block == len(levels) - 1 == len(bindings)
        assert b.shape == (1, w.size)
        bindings.append(block)
        rows = [weight * b[0]]
        for _ in range(m):
            assert block == len(levels) - 1
            levels[block] += 1
            y = yield rows
            assert y.shape == (1, w.size)
            rows = [y[0]]

    return field


def test_the_field_and_each_level_run_once_per_block(monkeypatch):
    # the rate and every w-only term come before the base's rate is
    # yielded, every term in the solved base after it is sent, and each
    # level of the block being solved is evaluated once.  The pulse splits pieces, so the loop takes several
    # blocks.
    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    fields, bindings, levels = [], [], []
    one_loop(_line_loop(3), [1.0], [0.0, 0.0], [], _counted_pulse_field(2, fields, bindings, levels))
    assert len(levels) > 1
    assert fields == bindings == list(range(len(levels)))
    assert levels == [2] * len(levels)


def _counted_products(monkeypatch, levels):
    """Record every _CUMSUM product and tail-test product of the engine's
    np.matmul calls as (round, is the _CUMSUM product, shape of the left
    operand), the round read off levels, one entry per field call."""
    products, matmul = [], np.matmul

    def counted(a, matrix, **kwargs):
        if matrix is odepath._CUMSUM or matrix.shape == (odepath.N, odepath.N):
            products.append((len(levels) - 1, matrix is odepath._CUMSUM, a.shape))
        return matmul(a, matrix, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return products


@pytest.mark.parametrize("m", [1, 2])
def test_a_block_takes_one_product_per_level(m, monkeypatch):
    # a block takes one _CUMSUM product per level, the base the first, each
    # of that level's rows only, the base's nb = 1 and then one per level,
    # so every row goes through exactly one product
    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    fields, bindings, levels = [], [], []
    products = _counted_products(monkeypatch, levels)
    one_loop(_line_loop(3), [1.0], [0.0] * m, [], _counted_pulse_field(m, fields, bindings, levels))
    assert len(levels) > 1
    assert levels == [m] * len(levels)
    for block in range(len(levels)):
        cumsums = [shape for b, is_cumsum, shape in products if b == block and is_cumsum]
        assert len(cumsums) == 1 + levels[block]
        assert [b for b, is_cumsum, _ in products if not is_cumsum].count(block) == 1  # the tail test
        assert [shape[0] for shape in cumsums] == [1] * (1 + m)


def test_a_base_alone_takes_no_sweep(monkeypatch):
    # with no integrals the field yields no level after the base
    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    fields, bindings, levels = [], [], []
    one_loop(_line_loop(3), [1.0], EMPTY, [], _counted_pulse_field(0, fields, bindings, levels))
    assert len(levels) > 1
    assert fields == bindings == list(range(len(levels)))
    assert not any(levels)


def _picard_rows(levels, base, guess):
    """One Picard sweep of a field's generator levels: after its rate it is
    sent the solved base, and every level then the current guess of its
    integrals, not their solved values.  Returns the rows of all levels."""
    rows, lo = [], 0
    next(levels)  # the base's rate
    try:
        level = levels.send(base)
        while True:
            rows.extend(np.broadcast_to(row, guess.shape[1:]) for row in level)
            lo += len(level)
            level = levels.send(guess[lo - len(level) : lo])
    except StopIteration:
        pass
    assert lo == len(guess)
    return np.array(rows)


def _piece_by_piece(loop, b0, y0, coeffs, field):
    """The reference for integrate_loop, for fields that read no
    polynomials: each piece solved alone from its accepted start state,
    split while its tail test at odepath.RTOL fails, with the arithmetic
    that the blocks must reproduce bit for bit.  Its integrals are Picard
    sweeps from the start state, m + 1 of them for m integrals, as the
    engine solved them before it solved level by level; the last sweep
    must return the rows of the one before it, a fixed point."""
    assert not coeffs
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
            vals = np.zeros((0, N), dtype=complex)
            derivs = np.zeros((nb + m, N), dtype=complex)
            derivs[:nb] = np.multiply(next(field(w, vals)), dw)  # the engine's pull-back
            # the base from the product of all rows, then the integrals' sweeps
            base = b[:, None] * np.exp(((h / 2.0 * derivs) @ C)[:nb])
            state = np.concatenate((base, np.repeat(y[:, None], N + 1, 1)))
            for i in range(m + 1 if m else 0):
                with np.errstate(all="ignore"):  # a sweep before the fixed point may overflow
                    rows = np.multiply(_picard_rows(field(w, vals), state[:nb, :N], state[nb:, :N]), dw)
                    assert i < m or np.array_equal(rows, derivs[nb:])
                    derivs[nb:] = rows
                    state[nb:] = y[:, None] + ((h / 2.0 * derivs) @ C)[nb:]
            coeffs = np.abs(derivs @ odepath._TO_COEFFS.T)
            tail, top = coeffs[:, -odepath.TAIL :].max(axis=1, initial=0.0), coeffs.max(axis=1, initial=0.0)
            if np.any(tail > odepath.RTOL * top + odepath.ATOL):
                todo += [(a + h / 2.0, h / 2.0), (a, h / 2.0)]
                continue
            moduli = np.abs(np.concatenate((derivs[:nb] * state[:nb, :N], derivs[nb:])))
            seg_mass += (moduli * (h / 2.0 * C[:, N])).sum(axis=1)
            b, y = state[:nb, N], state[nb:, N]
        mass = mass + seg_mass
        ends.append((b, y, mass[:nb], mass[nb:]))
    return ends


@pytest.mark.parametrize("poison", [False, True])
def test_a_piece_failing_only_from_an_inexact_start_is_halved(poison, monkeypatch):
    # y0 takes a pulse on segment 0 and is constant after it, and on segment
    # 1 the integrand (y0 - Y) cos(100 w) vanishes from the accepted state,
    # where y0 = Y: the pieces of segment 1 pass there, but fail from the
    # inexact end of segment 0's unsplit pieces in the first block.  They
    # are halved like any failing piece, so the mesh is not the one of a
    # piece-by-piece solve, which keeps them whole, and the results agree
    # to rounding, not bit for bit.  With poison, the field is infinite on
    # those halves: they belong to the mesh, so that is a breakdown.
    loop = _line_loop(2)

    def run(Y, rows, poison=False, integrate=one_loop):
        def field(w, vals):
            x, on = w.real, w.imag == 0
            starts, spans = x.reshape(-1, odepath.N).min(axis=1), np.ptp(x.reshape(-1, odepath.N), axis=1)
            ahead = on.reshape(-1, odepath.N).all(axis=1)  # not on the closing segment
            rows.update(zip(starts[ahead].round(6), spans[ahead].round(6)))
            pulse = np.where(x < 1.0, 40.0 * np.exp(-(((x - 0.5) / 0.05) ** 2)), 0.0)
            halves = np.repeat(ahead & (starts > 1.0) & (spans < 0.3), odepath.N)
            yield 0.0
            (y0,) = yield np.where(on, [pulse], 0.0)
            tail = np.where(x > 1.0, (y0 - Y) * np.cos(100.0 * w), 0.0)
            if poison:
                tail = np.where(halves, np.inf, tail)
            yield np.where(on, [tail, np.cos(3.0 * w)], 0.0)

        return integrate(loop, EMPTY, [0.0, 0.0, 0.0], [], field)

    monkeypatch.setattr(odepath, "RTOL", 1e-10)
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
        for u, v in zip(got[:2], want[:2]):
            assert np.allclose(u, v, rtol=1e-14, atol=0.0)
        for u, v in zip(got[2:], want[2:]):
            assert np.allclose(u, v, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize(
    "nb, block", [(1, odepath.BLOCK), (3, odepath.BLOCK), (1, 2), (3, 2)], ids=["1", "3", "1-block2", "3-block2"]
)
def test_blocks_match_single_pieces_bit_for_bit(nb, block, monkeypatch):
    # solving BLOCK pieces at once chains their start states in path order
    # with the arithmetic of solving them one by one (_piece_by_piece), so
    # every result and every mid-path value agrees to the last bit; the
    # pulse makes pieces split, and a block then holds pieces of several
    # segments.  BLOCK = 2 is the smallest block the engine forms.  The
    # reference iterates Picard sweeps to their fixed point, which the two
    # levels reach without iterating.
    monkeypatch.setattr(odepath, "BLOCK", block)
    monkeypatch.setattr(odepath, "RTOL", 1e-11)
    loop = _line_loop(4)
    rates = np.array([1j * math.pi, -0.7 + 2.0j, 0.3 - 0.1j])[:nb, None]

    def field(w, vals):
        x = w.real
        b = yield rates * (1.0 + 20.0 * np.exp(-(((x - 1.5) / 0.05) ** 2)))
        (y0,) = yield [np.cos(3 * w) * b[-1]]
        yield [y0 * b[0]]

    def run(integrate):
        return integrate(loop, np.linspace(1.0, 2.0, nb), [0.0, 0.5j], [], field)

    blocks, pieces = run(one_loop), run(_piece_by_piece)
    assert len(blocks) == len(pieces) == len(loop.segments)
    for got, want in zip(blocks, pieces):
        for u, v in zip(got, want):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("n, k", [(1, 2), (1, 8), (2, 4)])
def test_stacked_copies_match_single_system_bit_for_bit(n, k, monkeypatch):
    # k copies of an n-component system (bases b' = rate b, integrals
    # y' = cos(3t) b, one level): every copy must reproduce the
    # single-system result exactly, so no arithmetic mixes the rows of the
    # state, and the stack must reproduce the Picard fixed point of
    # _piece_by_piece
    rates = np.array([1j * math.pi, -0.7 + 2.0j])[:n]
    b0 = np.array([1.0 + 0.5j, -0.3 + 2j])[:n]

    def copies(c):
        return lambda t: one_level(np.tile(rates, c)[:, None], lambda b: np.cos(3 * t) * b)

    monkeypatch.setattr(odepath, "RTOL", 1e-10)
    single = integrate_fixed_interval(copies(1), b0, np.zeros(n))
    stacked = integrate_fixed_interval(copies(k), np.tile(b0, k), np.zeros(n * k))
    (picard,) = _piece_by_piece(UNIT, np.tile(b0, k), np.zeros(n * k), [], lambda w, vals: copies(k)(w))
    for got, want in zip(stacked, picard, strict=True):
        assert np.array_equal(got, want)
    for copy in range(k):
        sl = slice(copy * n, (copy + 1) * n)
        for got, want in zip(stacked, single, strict=True):  # base, integrals and their masses
            assert np.array_equal(got[sl], want)


def test_stack_on_a_circle_has_closed_forms():
    # one circle of radius rho about c, starting at w0 = c + rho.  The base
    # b' = 1/(w - c) b returns to 1 with mass 2 pi; I0' = 1/(w - c) picks
    # up 2 pi i; I1' = P(w) = 1 integrates to 0 with mass 2 pi rho; I2' = I1,
    # a second level, reads the field's own integral I1 = w - w0, again
    # integrating to 0, with mass the integral of 2 rho sin(theta/2) against
    # rho dtheta = 8 rho^2
    c, rho = 0.3 - 0.2j, 0.7
    circle = Loop((Arc(c, rho, 0.0, 2 * math.pi),), "circle")

    def field(w, vals):
        rate = 1.0 / (w - c)
        yield rate
        y = yield [rate, vals[0]]
        yield [y[1]]

    ends = one_loop(circle, [1.0], [0.0, 0.0, 0.0], [[1.0]], field)
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


def _lockstep_loops():
    """Loops of unequal length for a lockstep pass: three along the real
    axis with a pulse the pieces must split around, one that avoids it and
    a circle about 1.5 off the axis."""
    lines = [Loop(_line_loop(n).segments, f"line{n}") for n in (2, 3, 4)]
    return lines + [Loop((Line(0j, 0.5 + 0j), Line(0.5 + 0j, 0j)), "short"), Loop((Arc(1.5j, 0.5, 0.0, 2 * math.pi),), "circle")]


def _lockstep_field(w, vals):
    # a base of two components, whose rate pulses at x = 1.5 on the axis,
    # and three integrals in two levels that read the base, a polynomial
    # and the first level
    x = w.real
    on = w.imag == 0
    rates = np.array([1j * math.pi, -0.7 + 2.0j])[:, None]
    b = yield rates * (1.0 + np.where(on, 20.0 * np.exp(-(((x - 1.5) / 0.05) ** 2)), 0.0))
    y = yield [np.cos(3 * w) * b[1], vals[0] * b[0]]
    yield [y[0] * b[0] + vals[1]]


@pytest.mark.parametrize("block", sorted({odepath.BLOCK, 16}, reverse=True) + [2, 3])
def test_a_lockstep_pass_matches_each_loop_alone_bit_for_bit(block, monkeypatch):
    # the loops share every round's field call and elementwise work, but
    # each keeps its own products, tail tests and splits, so every end and
    # mass of every loop is that of its lone pass to the last bit, and a
    # loop's rounds are its lone blocks: the pass takes as many rounds as
    # the loop with the most blocks
    monkeypatch.setattr(odepath, "BLOCK", block)
    monkeypatch.setattr(odepath, "RTOL", 1e-11)
    loops = _lockstep_loops()
    start = ([1.0, 0.5j], [0.0, 0.5j, 1.0], [[1.0, 0.5j, -0.25], [0.0, 1.0]])
    calls = []

    def counted(w, vals):
        calls.append(w.size)
        return _lockstep_field(w, vals)

    together = integrate_loop(loops, *start, counted)
    rounds = len(calls)
    assert len(together) == len(loops)
    blocks = []
    for loop, ends in zip(loops, together):
        del calls[:]
        alone = one_loop(loop, *start, counted)
        blocks.append(len(calls))
        assert len(ends) == len(alone) == len(loop.segments)
        for got, want in zip(ends, alone):
            for u, v in zip(got, want, strict=True):
                assert np.array_equal(u, v)
    assert rounds == max(blocks) < sum(blocks)


def test_a_round_evaluates_one_batch_per_segment_kind(monkeypatch):
    # every piece of a round, of every loop and segment, gets its nodes from
    # one call of each segment kind's point
    loops = _lockstep_loops()
    rounds, calls = [], []
    for kind in (Line, Arc):
        point = kind.point
        monkeypatch.setattr(kind, "point", lambda seg, t, point=point, kind=kind: calls.append(kind) or point(seg, t))

    def counted(w, vals):
        rounds.append(w.size)
        return _lockstep_field(w, vals)

    integrate_loop(loops, [1.0, 0.5j], [0.0, 0.5j, 1.0], [[1.0, 0.5j, -0.25], [0.0, 1.0]], counted)
    assert len(rounds) > 1
    assert calls.count(Line) == len(rounds)  # every round has a line piece
    assert 0 < calls.count(Arc) <= len(rounds)


def test_the_powers_are_those_of_np_vander_bit_for_bit():
    # the nodes of every piece of the laboratory's gamma1, of the unit
    # interval, and points with signed zeros and powers that overflow, at
    # up to 11 powers (q_6 has degree 10).  Only at 3 powers does np.vander
    # take its one product another way, as a contiguous product, which
    # rounds otherwise; each column of _powers is the same whatever the
    # number of columns
    x = np.polynomial.chebyshev.chebpts1(odepath.N)
    t = np.arange(8)[:, None] / 8.0 + (x + 1.0) / 16.0
    gamma1 = build_loops(RADIUS).gamma1.segments
    w, _ = nodes([seg for seg in gamma1 for _ in t], np.tile(t, (len(gamma1), 1)))
    odd = np.array([complex(-0.0, -1.0), complex(-0.0, 0.0), complex(0.0, -0.0), -1e200 + 1e200j, 3.0 - 1e-300j])
    for points in (w.ravel(), t.ravel(), odd):
        with np.errstate(all="ignore"):
            powers = odepath._powers(points, 11)
            for n in range(1, 12):
                assert odepath._powers(points, n).tobytes() == powers[:, :n].copy().tobytes()
                if n != 3:
                    assert powers[:, :n].copy().tobytes() == np.vander(points, n, increasing=True).tobytes()


def _overflow_field(w, vals):
    # e^1000 across x in (2, 3) on the real axis, a tame rotation elsewhere
    x = w.real
    rate = np.where((w.imag == 0) & (x > 2.0) & (x < 3.0), 1000.0, 0.3j)
    b = yield rate
    yield [b[0]]


def _broken_loops():
    # line6 leaves double precision in segment 2 and late in segment 1; with
    # BLOCK = 4, late breaks down a round before line6.  line5 comes after late
    late = Loop((Line(0j, 2 + 0j), Line(2 + 0j, 3 + 0j), Arc(1.5, 1.5, 0.0, -math.pi)), "late")
    return [Loop(_line_loop(6).segments, "line6"), late, Loop(_line_loop(5).segments, "line5")]


def _breakdown_and_rounds(run):
    # the text the pass raises and the node count of each field call
    sizes = []

    def counted(w, vals):
        sizes.append(w.size)
        return _overflow_field(w, vals)

    with pytest.raises(ODEError) as caught:
        integrate_loop(run, [1.0], [0.0], [], counted)
    return str(caught.value), sizes


def test_each_broken_loop_keeps_its_own_breakdown(monkeypatch):
    # alone, each loop raises the breakdown naming itself; together, the pass
    # raises line6's, the first in list order, although late, after it,
    # breaks down a round earlier
    monkeypatch.setattr(odepath, "BLOCK", 4)
    loops = _broken_loops()
    alone = {loop.label: _breakdown_and_rounds([loop]) for loop in loops}
    assert {label: why for label, (why, _) in alone.items()} == {
        "line6": "loop 'line6', segment 2: non-finite state",
        "late": "loop 'late', segment 1: non-finite state",
        "line5": "loop 'line5', segment 2: non-finite state",
    }
    assert len(alone["late"][1]) < len(alone["line6"][1])
    assert _breakdown_and_rounds(loops)[0] == "loop 'line6', segment 2: non-finite state"


def test_a_broken_loop_leaves_the_other_loops_alone(monkeypatch):
    # late's breakdown does not stop line6, before it in the list: line6 runs
    # on to its own breakdown with the field calls it takes alone, while
    # line5, after late, leaves the pass in the round late breaks
    monkeypatch.setattr(odepath, "BLOCK", 4)
    loops = _broken_loops()
    alone = {loop.label: _breakdown_and_rounds([loop])[1] for loop in loops}
    broke = len(alone["late"])
    assert broke < len(alone["line6"]) == len(alone["line5"])
    why, sizes = _breakdown_and_rounds(loops)
    assert why == "loop 'line6', segment 2: non-finite state"
    assert sizes[broke:] == alone["line6"][broke:]
