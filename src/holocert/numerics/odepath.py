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
per block as field(w, vals) on the nodes w of its pieces and the values
vals[k] = P_k(w) of the loop's polynomials there.  It yields the base's
rate rows (b' = rate * b), is sent the solved base at the nodes, yields
the rows of the first level of integrals, is sent that level's solved
integrals, and so on until it returns.  The levels follow the integrals
in order and must cover them exactly, or the engine raises ValueError.
All rows are derivatives in w: the engine pulls them back by the
velocity dw of the nodes.  So the rate depends on w alone, every term in
w and b alone is computed once per block, and a level reads only the
levels before it.

A loop's pieces form one list in path order, solved BLOCK at a time:
each level evaluates its rows once on the nodes of all pieces of a block
and takes one cumulative-integral product, and its start states are
chained in path order (a product for the base, a sum for the integrals),
the same arithmetic in the same order as solving the pieces one by one.
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
A loop integration returns the state and the masses at the end of every
segment, in path order, so a caller can compare mid-path values.
``integrate_loop`` is the one path-integration primitive of the
laboratory: every family (holonomy jets, the quadrature bundle, the
integral lemmas) supplies only a field in w, and the families that share
a commutator loop, all but its jet, are zipped into one field
(``holonomy.integrate_stack``).  The tail test reads every row, so a
stack's mesh is shared by its parts: the jets are integrated alone, and
their meshes do not depend on which other families are checked.
"""

from __future__ import annotations

from itertools import count, groupby
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import ODEError

N = 32  # Chebyshev nodes per piece
PIECES = 2  # initial pieces per segment
BLOCK = 16  # consecutive pending pieces solved together, one field call for all
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


def _per_row(a, m, out=None):
    """a @ m for a (rows, k, N) array, one (k, N) BLAS product per row.

    OpenBLAS would spread one product of rows * k rows over threads, and on
    a small shared machine the wait for the second thread costs more than
    the product.  Every entry rounds as in the (rows, N) product of a lone
    piece, which goes through as that product: numpy takes (1, N) products
    as vector products, which round differently.
    """
    rows, k, _ = a.shape
    if k > 1:
        return np.matmul(a, m, out=out)
    flat_out = None if out is None else out.reshape(rows, -1)
    return np.matmul(a.reshape(rows, -1), m, out=flat_out).reshape(rows, 1, -1)


def _solve(field, w, vals, dw, half, start, nb):
    """Solve k consecutive pieces (nodes w, polynomial values vals,
    velocities dw, half-lengths half) from the accepted state start, the
    field's rows pulled back by dw, level by level: the base first, then
    each level of integrals, read off the levels below it.  Each level
    takes one product and is chained from its values in start.

    Returns (base, ends, derivs, finite): the base at the nodes, of shape
    (nb, k, N), the derivatives at the nodes, of shape (rows, k, N),
    ends[j + 1], the state at the end of piece j (ends[0] = start), and per
    piece whether its state is finite.  A level's state at the nodes lives
    only as long as the field keeps it, so a wide stack holds its
    derivatives and one level's product at a time.
    ValueError if the field yields no rate, or if its levels do not cover
    the integrals exactly.
    """
    k, rows = half.size, start.size
    # derivs starts at zero: a level's rows are not known before its turn
    derivs = np.zeros((rows, k, N), dtype=complex)
    flat_derivs = derivs.reshape(rows, k * N)
    ends = np.empty((k + 1, rows), dtype=complex)
    ends[0] = start
    finite = np.ones(k, dtype=bool)  # each level's nodes and ends are and-ed in
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
            # A lone piece's products take all rows: a product of fewer rows
            # can round otherwise (a lone piece's base alone is a vector
            # product).  Each is scaled first, exactly (h/2 is a power of
            # two), so a sum overflows only with its integral.  cum holds the
            # level's integrals over each piece at the nodes and, last, at
            # the piece's end; the new state overwrites the first N.
            if k > 1:
                cum = _per_row(derivs[lv] * half[:, None], _CUMSUM)
            else:
                cum = _per_row(derivs * half[:, None], _CUMSUM)[lv]
            new = cum[:, :, :N]
            if depth == 0:
                # An exact ufunc between the BLAS product and the complex exp:
                # straight after np.matmul, numpy's complex exp ran about 20
                # times slower (2-core Xeon, OpenBLAS 0.3.31).  It multiplies
                # the real view, since a complex product with 1.0 flips signed
                # zeros.
                np.multiply(cum.view(float), 1.0, out=cum.view(float))
                np.exp(cum, out=cum)  # the base's factor over each piece
                # Each base product is start times factor (piece j's at
                # cum[:, j, N]) into a contiguous row of its own, as for a
                # lone piece: numpy's complex product rounds otherwise in
                # np.multiply.accumulate, into a strided output, into an
                # output that is also a one-element operand, and with its
                # operands swapped.
                for j in range(k):
                    np.multiply(ends[j, lv], cum[:, j, N], out=ends[j + 1, lv])
                np.multiply(ends[:k, lv].T[:, :, None], new, out=new)
            else:
                ends[1:, lv] = cum[:, :, N].T
                np.add.accumulate(ends[:, lv], axis=0, out=ends[:, lv])
                np.add(ends[:k, lv].T[:, :, None], new, out=new)
            state = new.copy()
            del cum, new  # not held while the field computes the next level
            finite &= np.isfinite(state).all(axis=(0, 2)) & np.isfinite(ends[1:, lv]).all(axis=1)
            if depth == 0:
                base = state
            try:
                level = levels.send(state.reshape(-1, k * N))
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
    its largest coefficient plus ATOL."""
    coeffs = np.abs(_per_row(derivs, _TO_COEFFS.T))
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
    unit = SimpleNamespace(point=lambda t: t, velocity=lambda t: 1.0)
    return integrate_loop(SimpleNamespace(segments=(unit,), label=None), b0, y0, [], lambda w, vals: f(w))[-1]


def integrate_loop(loop, base0, integrals0, coeffs, field):
    """Integrate a base state and a stack of integrals along a loop, at RTOL.

    field is a generator function of the module's contract, called on the
    nodes w of a block of consecutive pieces, which may span segments.
    vals[k] = P_k(w) for the polynomial with the ascending coefficients
    coeffs[k] (rows of unequal length are zero-padded), evaluated once per
    block.
    Every component gets its L1 mass, the integral of |derivative| against
    |dw| (rate * base for the base), summed from the loop's start.

    Returns (base, integrals, base_masses, masses) at the end of every
    segment, in path order; [-1] is the loop's end.

    ODEError names the segment of the first piece whose solved state is not
    finite, once every piece before it has passed its tail test.
    """
    segments = loop.segments
    start = np.concatenate((np.asarray(base0, dtype=complex).ravel(), np.asarray(integrals0, dtype=complex).ravel()))
    nb, rows = np.size(base0), start.size
    C = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)), dtype=complex)
    for k, c in enumerate(coeffs):
        C[k, : len(c)] = c
    mass, seg_mass = np.zeros(rows), np.zeros(rows)
    out = []  # (base, integrals, base_masses, masses) at the end of every segment

    def error(piece, why):
        return ODEError(why if loop.label is None else f"loop {loop.label!r}, segment {piece[0]}: {why}")

    # pending pieces (segment, t at the start, length, depth, ends its segment), the next one last
    todo = [(s, k / PIECES, 1.0 / PIECES, 0, k == PIECES - 1) for s in range(len(segments)) for k in range(PIECES)][::-1]
    while todo:
        block = todo[-BLOCK:][::-1]
        del todo[-BLOCK:]
        a = np.array([piece[1] for piece in block])
        h = np.array([piece[2] for piece in block])
        t = a[:, None] + h[:, None] * (_X + 1.0) / 2.0
        parts, lo = [], 0
        for s, run in groupby(piece[0] for piece in block):
            hi = lo + len(list(run))
            ts = t[lo:hi].ravel()
            parts.append((segments[s].point(ts), np.broadcast_to(segments[s].velocity(ts), ts.shape)))
            lo = hi
        w, dw = (np.concatenate(x) for x in zip(*parts))
        # one (K, n) @ (n, N) product per piece: over a whole block of
        # nodes the product would be spread over BLAS threads (see _per_row);
        # the powers of w are not held while the block is solved
        vals = np.matmul(C, np.vander(w, C.shape[1], increasing=True).reshape(len(block), N, -1).transpose(0, 2, 1))
        vals = vals.transpose(1, 0, 2).reshape(len(C), w.size)
        base, ends, derivs, finite = _solve(field, w, vals, dw, h / 2.0, start, nb)
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
        todo += rest[::-1]
        dmass = _masses(derivs[:, :p], base[:, :p], h[:p] / 2.0)
        for j, (*_, last) in enumerate(block[:p]):
            seg_mass += dmass[:, j]
            if last:
                mass = mass + seg_mass
                seg_mass = np.zeros(rows)
                out.append((ends[j + 1, :nb], ends[j + 1, nb:], mass[:nb], mass[nb:]))
        start = ends[p]  # each block solves into arrays of its own
    return out

