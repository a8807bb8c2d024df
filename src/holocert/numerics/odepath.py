"""Chebyshev integration of iterated integrals along paths.

Each path segment is parameterized over t in [0, 1] and cut into pieces.
On a piece every integrand is sampled at N first-kind Chebyshev points;
one fixed (N+1) x N matrix (values -> Chebyshev coefficients -> chebint ->
evaluation) turns the samples into the cumulative integrals at the nodes
and at the piece's end, and the same matrix applied to the moduli gives
the L1 masses.  This is Chebfun's ``cumsum``; the end row is Fejer's first
quadrature rule (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013).

The field contract.  The state is a base b and integrals y, solved level
by level, the base first.  A field is a generator function, called once
per round as field(w, vals) on the nodes w of the pieces it solves and
the values vals[k] = P_k(w) of the polynomials there.  It yields the
base's rate rows (b' = rate * b), is sent the solved base at the nodes,
yields the rows of the first level of integrals, is sent that level's
solved integrals, and so on until it returns.  The levels follow the
integrals in order and must cover them exactly, or the engine raises
ValueError.  All rows are derivatives in w: the engine pulls them back by
the velocity dw of the nodes.  So the rate depends on w alone, every term
in w and b alone is computed once per round, and a level reads only the
levels before it.

A loop's pieces form one list in path order, solved a block at a time
off its front: BLOCK pieces, or the whole list where that would leave one
piece behind.  Every segment starts with at least 2 pieces (PIECES) and a
failing piece is always halved, so every block holds at least 2 pieces.
Each level evaluates its rows once on the nodes of all pieces of a block
and takes one cumulative-integral product, and its start states are
chained in path order (a product for the base, a sum for the integrals),
the same arithmetic in the same order as solving the pieces one by one.
Where BLOCK holds a loop's whole pending list, as in the bundled and
the steep laboratory, a round is one refinement generation of every
loop, and a pass takes as many rounds as its deepest loop takes
generations.
The tail test is per piece: a piece fails while the trailing Chebyshev
coefficients of an integrand exceed RTOL times its largest one plus
ATOL.  The pieces before a block's first failing piece are accepted;
from there on, every failing piece is halved and every other one goes
back whole, and all of them are solved again from the accepted state.  A
piece that failed only from the inexact end of a failing piece before it
is halved too, so the mesh can be finer than that of solving the pieces
one by one.  A breakdown is the first piece whose solved state is not
finite, all pieces before it passing.  RTOL and ATOL are constants of
the engine, like N, PIECES, BLOCK, MAX_DEPTH and TAIL.

The lockstep contract.  ``integrate_loop`` integrates one field, with
one list of polynomials and one start state, along a sequence of loops
at once; one loop is the case of a sequence of one.  Each round takes
the next block of every loop still in the pass, calls the field once on
all their nodes and does each level's elementwise work once: the
pull-back, the scaling, the base's exp, the chaining of start states,
the finiteness test and the masses.  Everything that decides a mesh
stays per loop: the tail test, the accepted prefix, the split pieces,
the segment ends and the breakdown.  So does each level's
cumulative-integral product, one per loop with the shape of the loop's
lone product: an entry of a BLAS product may round by the shape of the
product it is part of.  Every loop's results are then those of its pass
alone, bit for bit.  A breakdown ends the pass: it raises the ODEError
of the first loop in list order that breaks down.  The loops after a
broken one leave the pass in the round it breaks; those before it run to
their ends, since a breakdown of theirs takes precedence.

A round's set-up is done once for all its pieces, with each node's
arithmetic that of the piece alone: the nodes of every piece of one
segment kind in one call of that kind's point and velocity
(``loops.nodes``), and the powers of w as np.vander forms them
(``_powers``), under one product per piece for the polynomial values.

A loop's results are the state and the masses at the end of every
segment, in path order, so a caller can compare mid-path values.
``integrate_loop`` is the one path-integration primitive of the
laboratory: every family (holonomy jets, the quadrature bundle, the
integral lemmas) supplies only a field in w.  The families that share a
commutator loop, all but its jet, are zipped into one field
(``holonomy.integrate_stack``).  The tail test reads every row, so a
stack's mesh is shared by its parts: the jets are not stacked, and their
meshes do not depend on which other families are checked.  The seven
jets come from one lockstep pass of five loops instead
(``holonomy.integrate_variations``): the jets of mu2 and mu2*mu1 are
read off gamma1's segment ends: a loop's pieces are solved in path
order, so the pieces of its first segments are solved as those of a
loop made of those segments alone.
"""

from __future__ import annotations

from itertools import count
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import ODEError
from .loops import Arc, Line, nodes

N = 32  # Chebyshev nodes per piece
# Initial pieces per segment, by kind: on an arc the degree-d integrands go
# as exp(i((d-1) lambda - d) theta), and with |lambda| up to about 3, N
# nodes resolve a sixth of a turn at RTOL but not a half.
PIECES = {Line: 2, Arc: 6}
# Consecutive pending pieces of each loop solved in a round, one field
# call for all loops.  It holds the longest pending list of the bundled
# and steep laboratories, gamma2's 60 initial pieces, so each of their
# rounds takes a whole refinement generation.  It is a cap, not unbounded,
# for a round's memory where meshes grow: at ladder point k = 40 (lambda =
# (1/2+40i, 1/3-40i)) the laboratory's tracemalloc peak is 1.9 MB at 16,
# 6.4 MB at 64 and 14.1 MB with no cap.
BLOCK = 64
MAX_DEPTH = 12  # a piece is halved at most this often
TAIL = 2  # trailing coefficients that estimate a piece's error
ATOL = 1e-16  # absolute floor of the tail test, for integrands that vanish
# The bound on each piece's Chebyshev tail relative to the integrand's
# largest coefficient; it keeps a1 of a commutator loop near 1e-14, far
# under the 1e-8 structural budget.
RTOL = 1e-12

_X = cheb.chebpts1(N)  # ascending nodes on [-1, 1]
# values -> coefficients, by the discrete orthogonality of T_k at the nodes
_TO_COEFFS = cheb.chebvander(_X, N - 1).T * np.where(np.arange(N) == 0, 1.0, 2.0)[:, None] / N
# values -> cumulative integral from -1, at the nodes and at +1 (last column):
# column j integrates the interpolant of the values from -1 to the j-th point
_CUMSUM = cheb.chebval(np.append(_X, 1.0), cheb.chebint(_TO_COEFFS, lbnd=-1))


def _powers(w, n):
    """w^0..w^(n-1) as the columns of a (w.size, n) array, as np.vander(w,
    n, increasing=True) forms them: each column is the one before it times
    w, into a strided column, since products into contiguous rows would
    round otherwise.  (At n = 3 alone np.vander takes its one product
    as a contiguous one; here a column is the same whatever n.)"""
    V = np.ones((w.size, n), dtype=w.dtype)
    V[:, 1:2] = w[:, None]
    for k in range(2, n):
        np.multiply(V[:, k - 1], w, out=V[:, k])
    return V


def _solve(field, w, vals, dw, half, starts, sizes, nb):
    """Solve the blocks of several loops in lockstep: loop l's k_l = sizes[l]
    consecutive pieces from its accepted state starts[l], the blocks' pieces
    one after the other in the nodes w, polynomial values vals, velocities
    dw and half-lengths half.  The field's rows are pulled back by dw and
    solved level by level: the base first, then each level of integrals,
    read off the levels below it.  Each level takes one product per loop
    and is chained per loop from its values in starts.

    Returns (base, ends, derivs, finite): the base at the nodes, of shape
    (nb, K, N) for the K pieces of all blocks, the derivatives at the
    nodes, of shape (rows, K, N), ends[l, j + 1], the state of loop l at the
    end of its piece j (ends[l, 0] = starts[l]; the rows past k_l are
    padding), and per piece whether its state is finite.  A level's state
    at the nodes lives only as long as the field keeps it, so a wide stack
    holds its derivatives and one level's product at a time.
    ValueError if the field yields no rate, or if its levels do not cover
    the integrals exactly.
    """
    K, (L, rows) = half.size, starts.shape
    bounds = np.cumsum([0, *sizes])
    # piece i is piece index[i] of loop owner[i]; its start state is
    # ends[owner[i], index[i]] and its end state the one after it
    owner = np.repeat(np.arange(L), sizes)
    index = np.arange(K) - bounds[owner]
    # derivs starts at zero: a level's rows are not known before its turn
    derivs = np.zeros((rows, K, N), dtype=complex)
    flat_derivs = derivs.reshape(rows, K * N)
    ends = np.empty((L, max(sizes) + 1, rows), dtype=complex)
    ends[:, 0] = starts
    finite = np.ones(K, dtype=bool)  # each level's nodes and ends are and-ed in
    with np.errstate(all="ignore"):
        levels, lv = field(w, vals), slice(0, nb)  # the base is the first level
        try:
            level = next(levels)
        except StopIteration:
            raise ValueError("the field returns before it yields the base's rate") from None
        for depth in count():
            if depth == 0:
                np.multiply(level, dw, out=flat_derivs[lv])
            else:  # row by row: a level yielded as a list of rows is not copied into one array first
                for row, out in zip(level, flat_derivs[lv]):
                    np.multiply(row, dw, out=out)
            del level  # the field's rows are held in derivs from here on
            # Each loop's pieces take a product of their own, shaped as in
            # the loop's lone pass, so the lockstep cannot change how an
            # entry rounds.  Each is scaled first, exactly (h/2 is a power
            # of two), so a sum overflows only with its integral.  cum
            # holds the level's integrals over each piece at the nodes and,
            # last, at the piece's end; the new state overwrites the first N.
            scaled = derivs[lv] * half[:, None]
            cum = np.empty((lv.stop - lv.start, K, N + 1), dtype=complex)
            for a, b in zip(bounds, bounds[1:]):
                np.matmul(scaled[:, a:b], _CUMSUM, out=cum[:, a:b])
            del scaled
            new = cum[:, :, :N]
            if depth == 0:
                # An exact ufunc between the BLAS product and the complex exp:
                # straight after np.matmul, numpy's complex exp ran about 20
                # times slower (2-core Xeon, OpenBLAS 0.3.31).  It multiplies
                # the real view, since a complex product with 1.0 flips signed
                # zeros.
                np.multiply(cum.view(float), 1.0, out=cum.view(float))
                np.exp(cum, out=cum)  # the base's factor over each piece
                # Each base product is start times factor (piece i's at
                # cum[:, i, N]), piece j of every loop in one product, from
                # and into contiguous rows of the loops side by side:
                # numpy's complex product rounds otherwise in
                # np.multiply.accumulate, into a strided output, into an
                # output that is also a one-element operand, and with its
                # operands swapped.  A loop's rows past its pieces are padding.
                chain = np.empty((ends.shape[1], L, nb), dtype=complex)
                chain[0] = starts[:, lv]
                factor = np.ones((ends.shape[1] - 1, L, nb), dtype=complex)
                factor[index, owner] = cum[:, :, N].T
                for j in range(len(factor)):
                    np.multiply(chain[j], factor[j], out=chain[j + 1])
                ends[:, :, lv] = chain.transpose(1, 0, 2)
                np.multiply(ends[owner, index, lv].T[:, :, None], new, out=new)
            else:
                ends[owner, index + 1, lv] = cum[:, :, N].T
                np.add.accumulate(ends[:, :, lv], axis=1, out=ends[:, :, lv])
                np.add(ends[owner, index, lv].T[:, :, None], new, out=new)
            state = new.copy()
            del cum, new  # not held while the field computes the next level
            finite &= np.isfinite(state).all(axis=(0, 2)) & np.isfinite(ends[owner, index + 1, lv]).all(axis=1)
            if depth == 0:
                base = state
            try:
                level = levels.send(state.reshape(-1, K * N))
            except StopIteration:
                break
            lv = slice(lv.stop, lv.stop + len(level))
            if lv.stop > rows:
                raise ValueError(f"the field's levels yield more than its {rows - nb} integrals")
        if lv.stop != rows:
            raise ValueError(f"the field's levels yield {lv.stop - nb} of its {rows - nb} integrals")
    return base, ends, derivs, finite


def _tail_above(derivs):
    """Per piece, whether some integrand's Chebyshev tail exceeds RTOL times
    its largest coefficient plus ATOL.  The (rows, k, N) derivatives take
    one (k, N) product per row: OpenBLAS would spread one product of
    rows * k rows over threads, and on a small shared machine the wait for
    the second thread costs more than the product."""
    coeffs = np.abs(np.matmul(derivs, _TO_COEFFS.T))
    return np.any(coeffs[:, :, -TAIL:].max(axis=2, initial=0.0) > RTOL * coeffs.max(axis=2, initial=0.0) + ATOL, axis=0)


def _masses(derivs, base, half):
    """Per piece, the L1 mass of every component's derivative (rate * base
    for the base)."""
    moduli = np.abs(derivs)
    moduli[: len(base)] = np.abs(derivs[: len(base)] * base)
    return (moduli * (half[:, None] * _CUMSUM[:, N])).sum(axis=2)


def integrate_fixed_interval(f, b0, y0):
    """integrate_loop over t in [0, 1], with w = t, dw = 1 and no
    polynomials: f(t) is the field on the nodes t."""
    unit = SimpleNamespace(segments=(Line(0.0, 1.0),), label=None)  # 0.0 + t * (1.0 - 0.0) is t
    (ends,) = integrate_loop([unit], b0, y0, [], lambda w, vals: f(w))
    return ends[-1]


def _loop_pass(loop, start, nb):
    """One loop's share of a lockstep pass, as a generator: it yields its
    next block of pending pieces with its accepted state, is sent the
    block's solved ends, derivatives, finiteness and masses, takes the
    accepted prefix and puts the other pieces back, every failing one
    halved.  It returns its state and masses at the end of every segment,
    and raises its breakdown, which ends the pass for this loop alone."""

    def error(piece, why):
        return ODEError(why if loop.label is None else f"loop {loop.label!r}, segment {piece[0]}: {why}")

    # pending pieces (segment, t at the start, length, depth, ends its segment), in path order
    todo = [(s, k / n, 1.0 / n, 0, k == n - 1)
            for s, n in enumerate(PIECES[type(seg)] for seg in loop.segments) for k in range(n)]
    mass, seg_mass, out = np.zeros(start.size), np.zeros(start.size), []
    while todo:
        # the whole list where a block would leave one piece behind
        block, todo = (todo, []) if len(todo) == BLOCK + 1 else (todo[:BLOCK], todo[BLOCK:])
        ends, derivs, finite, dmass = yield block, start
        with np.errstate(all="ignore"):  # a non-finite piece has no meaningful tail
            failed = _tail_above(derivs)
        bad = failed | ~finite
        p = int(np.argmax(bad)) if bad.any() else len(block)  # the accepted prefix
        if p < len(block):
            _, a0, h0, depth, _ = block[p]
            if not finite[p]:
                raise error(block[p], "non-finite state")
            if depth == MAX_DEPTH:
                raise error(block[p], f"Chebyshev tail above rtol on a piece of length {h0:g} at t = {a0:g}")
        # from the first failing piece on, each failing piece is halved and
        # the others go back whole, to be solved again from the accepted state
        rest = []
        for piece, split in zip(block[p:], failed[p:]):
            s, a0, h0, depth, last = piece
            if split and depth < MAX_DEPTH:
                rest += [(s, a0, h0 / 2.0, depth + 1, False), (s, a0 + h0 / 2.0, h0 / 2.0, depth + 1, last)]
            else:
                rest.append(piece)
        todo = rest + todo
        for j, (*_, last) in enumerate(block[:p]):
            seg_mass += dmass[:, j]
            if last:
                mass = mass + seg_mass
                seg_mass = np.zeros(start.size)
                out.append((ends[j + 1, :nb], ends[j + 1, nb:], mass[:nb], mass[nb:]))
        start = ends[p]  # each round solves into arrays of its own
    return out


def integrate_loop(loops, base0, integrals0, coeffs, field):
    """Integrate a base state and a stack of integrals along each of loops,
    in one lockstep pass, at RTOL.

    field is a generator function of the module's contract, called once per
    round on the nodes w of the next BLOCK pending pieces of every
    unfinished loop, which may span segments.  vals[k] = P_k(w) for the
    polynomial with the ascending coefficients coeffs[k] (rows of unequal
    length are zero-padded), evaluated once per round.  Every loop starts
    from base0 and integrals0.  Every component gets its L1 mass, the
    integral of |derivative| against |dw| (rate * base for the base),
    summed from the loop's start.

    Returns, per loop, (base, integrals, base_masses, masses) at the end of
    every segment, in path order ([-1] is the loop's end).  ODEError, naming
    the loop and segment, for the first loop in list order that breaks
    down: at the first piece whose solved state is not finite once every
    piece before it has passed its tail test, or at a piece that still
    fails it at MAX_DEPTH.
    """
    start = np.concatenate((np.asarray(base0, dtype=complex).ravel(), np.asarray(integrals0, dtype=complex).ravel()))
    nb = np.size(base0)
    C = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)), dtype=complex)
    for k, c in enumerate(coeffs):
        C[k, : len(c)] = c
    results, broken = [None] * len(loops), {}
    passes = {i: _loop_pass(loop, start, nb) for i, loop in enumerate(loops)}
    pending = {i: next(run) for i, run in passes.items()}  # loop index -> (its block, its accepted state)
    while pending:
        blocks = [block for block, _ in pending.values()]
        pieces = [piece for block in blocks for piece in block]
        a = np.array([piece[1] for piece in pieces])
        h = np.array([piece[2] for piece in pieces])
        t = a[:, None] + h[:, None] * (_X + 1.0) / 2.0
        segments = [loops[i].segments[piece[0]] for i, block in zip(pending, blocks) for piece in block]
        w, dw = (x.ravel() for x in nodes(segments, t))
        # one (K, n) @ (n, N) product per piece: over a whole round of
        # nodes the product would be spread over BLAS threads (see
        # _tail_above); the powers of w are not held while the round is solved
        vals = np.matmul(C, _powers(w, C.shape[1]).reshape(len(pieces), N, -1).transpose(0, 2, 1))
        vals = vals.transpose(1, 0, 2).reshape(len(C), w.size)
        sizes = [len(block) for block in blocks]
        starts = np.array([state for _, state in pending.values()])
        base, ends, derivs, finite = _solve(field, w, vals, dw, h / 2.0, starts, sizes, nb)
        with np.errstate(all="ignore"):  # the masses of pieces that are not accepted are not read
            dmass = _masses(derivs, base, h / 2.0)
        solved, pending = pending, {}
        for l, (i, lo, hi) in enumerate(zip(solved, np.cumsum([0, *sizes]), np.cumsum(sizes))):
            try:
                pending[i] = passes[i].send((ends[l], derivs[:, lo:hi], finite[lo:hi], dmass[:, lo:hi]))
            except StopIteration as done:
                results[i] = done.value
            except ODEError as exc:
                broken[i] = exc
        if broken:  # only a loop before the first broken one can take precedence
            pending = {i: pending[i] for i in pending if i < min(broken)}
    if broken:
        raise broken[min(broken)]
    return results
