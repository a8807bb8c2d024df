"""Chebyshev integration of iterated integrals along paths.

Each path segment is parameterized over t in [0, 1] and cut into pieces.
On a piece every integrand is sampled at N first-kind Chebyshev points;
one fixed (N+1) x N matrix (values -> Chebyshev coefficients -> chebint ->
evaluation) turns the samples into the cumulative integrals at the nodes
and at the piece's end, and the same matrix applied to the moduli gives
the L1 masses.  This is Chebfun's ``cumsum``; the end row is Fejer's first
quadrature rule (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013).

A loop's pieces form one list in path order, solved BLOCK at a time: each
sweep evaluates the field once on the nodes of all pieces of a block, and
their start states are chained in path order (a product for the base, a
sum for the integrals), the same arithmetic in the same order as solving
the pieces one by one.  The sweeps run to a bitwise fixed point, and only
that fixed point is judged.  The tail test is per piece: a piece fails
while the trailing Chebyshev coefficients of an integrand exceed rtol
times its largest one plus ATOL.  The pieces before a block's first
failing piece are accepted; from there on, every failing piece is halved
and every other one goes back whole, and all of them are solved again
from the accepted state.  A piece that failed only from the inexact end
of a failing piece before it is halved too, so the mesh can be finer than that of
solving the pieces one by one.  A breakdown is the first piece whose
fixed point is not finite, all pieces before it passing, so it does not
depend on the sweeps that reach the fixed point.  rtol is the one
tolerance a caller passes (DEFAULT_RTOL unless the command line's --rtol
sets it); ATOL is fixed, like N, PIECES, BLOCK, MAX_DEPTH and TAIL.
A loop integration returns the state and the masses at the end of every
segment, in path order, so a caller can compare mid-path values.

``integrate_stack`` is the one path-integration primitive of the
laboratory: every family (holonomy jets, the quadrature bundle, the
integral lemmas) supplies only a field in w and gets back the integrals
and their L1 masses.
"""

from __future__ import annotations

from itertools import groupby
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import ODEError

N = 32  # Chebyshev nodes per piece
PIECES = 2  # initial pieces per segment
BLOCK = 16  # consecutive pending pieces solved together, one field sweep for all
MAX_DEPTH = 12  # a piece is halved at most this often
TAIL = 2  # trailing coefficients that estimate a piece's error
ATOL = 1e-16  # absolute floor of the tail test, for integrands that vanish

_X = cheb.chebpts1(N)  # ascending nodes on [-1, 1]
# values -> coefficients, by the discrete orthogonality of T_k at the nodes
_TO_COEFFS = cheb.chebvander(_X, N - 1).T * np.where(np.arange(N) == 0, 1.0, 2.0)[:, None] / N
# values -> cumulative integral from -1, at the nodes and at +1 (last column):
# column j integrates the interpolant of the values from -1 to the j-th point
_CUMSUM = cheb.chebval(np.append(_X, 1.0), cheb.chebint(_TO_COEFFS, lbnd=-1))


def _views(buf, *shape):
    """A contiguous view of the first prod(shape) entries of a flat buffer."""
    return buf[: int(np.prod(shape))].reshape(shape)


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


def _solve(rhs, w, dw, half, start, nb, bufs):
    """Solve k consecutive pieces (nodes w, velocities dw, half-lengths
    half) from the accepted state start, iterating the field to a bitwise
    fixed point: the first sweep fixes the base, each further one an
    integral level, and the last one confirms.  Every node starts at the
    state start; the fixed point does not depend on that guess, and an
    intermediate sweep may overflow on the way to it.

    Returns (nodes, ends, derivs, finite): the state and the derivatives at
    the nodes, of shape (rows, k, N), ends[j + 1], the state at the end of
    piece j (ends[0] = start), and per piece whether its converged state is
    finite.  The pieces from the first non-finite one on are never
    accepted and need not settle: at the sweep bound, only the pieces
    before it must be at their fixed point.
    """
    k, rows = half.size, start.size
    nodes, derivs = (_views(b, rows, k, N) for b in bufs[:2])
    cum = _views(bufs[2], rows, k, N + 1)
    ends, new_ends = (_views(b, k + 1, rows) for b in bufs[3:])
    flat, flat_derivs = nodes.reshape(rows, k * N), derivs.reshape(rows, k * N)
    new = cum[:, :, :N]  # the new state at the nodes overwrites the local integrals
    nodes[...] = start[:, None, None]
    ends[0] = new_ends[0] = start
    sweeps = rows - nb + 2
    with np.errstate(all="ignore"):
        for sweep in range(sweeps):
            rate, g = rhs(w, dw, flat[:nb], flat[nb:])
            np.copyto(flat_derivs[:nb], rate)
            np.copyto(flat_derivs[nb:], g)
            del rate, g  # not kept alive through the next field call
            _per_row(derivs, _CUMSUM, out=cum)
            cum *= half[:, None]
            np.exp(cum[:nb], out=cum[:nb])  # the base's factor over each piece
            # Each base product is start times factor into a contiguous row of
            # its own, as for a lone piece: numpy's complex product rounds
            # otherwise in np.multiply.accumulate, into a strided output, into
            # an output that is also a one-element operand, and with its
            # operands swapped.
            factors = cum[:nb, :, N].T
            for j in range(k):
                np.multiply(new_ends[j, :nb], factors[j], out=new_ends[j + 1, :nb])
            new_ends[1:, nb:] = cum[nb:, :, N].T
            np.add.accumulate(new_ends[:, nb:], axis=0, out=new_ends[:, nb:])
            np.multiply(new_ends[:k, :nb].T[:, :, None], new[:nb], out=new[:nb])
            np.add(new_ends[:k, nb:].T[:, :, None], new[nb:], out=new[nb:])
            settled = (new == nodes).all(axis=(0, 2)) & (new_ends[1:] == ends[1:]).all(axis=1)
            nodes[...] = new
            ends, new_ends = new_ends, ends
            if sweep and settled.all():
                break
        finite = np.isfinite(nodes).all(axis=(0, 2)) & np.isfinite(ends[1:]).all(axis=1)
    if not settled[: np.argmin(np.append(finite, False))].all():
        raise ValueError(f"no fixed point after {sweeps} sweeps: an integrand reads itself or a later integral")
    return nodes, ends, derivs, finite


def _tail_above(derivs, rtol):
    """Per piece, whether some integrand's Chebyshev tail exceeds rtol times
    its largest coefficient plus ATOL."""
    coeffs = np.abs(_per_row(derivs, _TO_COEFFS.T))
    return np.any(coeffs[:, :, -TAIL:].max(axis=2, initial=0.0) > rtol * coeffs.max(axis=2, initial=0.0) + ATOL, axis=0)


def _masses(derivs, base, half):
    """Per piece, the L1 mass of every component's derivative (rate * base
    for the base)."""
    moduli = np.abs(derivs)
    moduli[: len(base)] = np.abs(derivs[: len(base)] * base)
    return (moduli * _CUMSUM[:, N]).sum(axis=2) * half


def integrate_fixed_interval(f, b0, y0, rtol: float):
    """Integrate a base b and integrals y over t in [0, 1].

    f(t, b, y) takes an array of nodes t with the state at those nodes
    (one row per component) and returns (rate, g): b' = rate * b and
    y' = g, each rate depending on t alone and each integrand only on b
    and on earlier integrals.  Returns b and y at t = 1 and the L1 mass
    of every component's derivative (rate * b for the base).
    """
    # [0, 1] as a path of one segment, w = t, with no loop to name in errors
    unit = SimpleNamespace(point=lambda t: t, velocity=lambda t: 1.0)
    return integrate_loop(lambda w, dw, b, y: f(w, b, y), SimpleNamespace(segments=(unit,), label=None), b0, y0, rtol)[-1]


def integrate_loop(rhs, loop, b0, y0, rtol: float):
    """Integrate along every segment of a loop, carrying the state through.

    rhs(w, dw, b, y) receives the nodes and velocities of a block of
    consecutive pieces, which may span segments, with the state at those
    nodes, and returns (rate, g) in t, already pulled back.  Returns
    (b, y, mass) at the end of every segment, in path order, the mass
    summed from the loop's start; [-1] is the loop's end.

    ODEError names the segment of the first piece whose converged state is
    not finite, once every piece before it has passed its tail test: a
    property of the fixed point from the accepted start state, not of the
    sweeps that reach it.
    """
    segments = loop.segments
    start = np.concatenate((np.asarray(b0, dtype=complex).ravel(), np.asarray(y0, dtype=complex).ravel()))
    nb, rows = np.size(b0), start.size
    mass, seg_mass = np.zeros(rows), np.zeros(rows)
    out = []  # (b, y, mass) at the end of every segment
    # reused by every block: the state and the derivatives at the nodes, the
    # cumulative integrals, and two generations of end states
    bufs = [np.empty(rows * n, dtype=complex) for n in (BLOCK * N, BLOCK * N, BLOCK * (N + 1), BLOCK + 1, BLOCK + 1)]

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
        nodes, ends, derivs, finite = _solve(rhs, w, dw, h / 2.0, start, nb, bufs)
        with np.errstate(all="ignore"):  # a non-finite piece has no meaningful tail
            failed = _tail_above(derivs, rtol)
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
        dmass = _masses(derivs[:, :p], nodes[:nb, :p], h[:p] / 2.0)
        for j, (*_, last) in enumerate(block[:p]):
            seg_mass += dmass[:, j]
            if last:
                mass = mass + seg_mass
                seg_mass = np.zeros(rows)
                end = ends[j + 1].copy()
                out.append((end[:nb], end[nb:], mass))
        start = ends[p].copy()
    return out


def integrate_stack(loop, base0, integrals0, coeffs, field, rtol: float):
    """Integrate a base state and a stack of integrals along a loop.

    field(w, base, integrals, vals) is evaluated on an array of points w,
    with one row per state component, and returns (rate, integrands): the
    base obeys d base/dw = rate * base with rate depending on w alone, so
    it is base0 * exp(integral of rate); integral k has the derivative
    integrands[k], which may read the base and integrals before k.
    vals[k] = P_k(w) for the polynomial with the ascending coefficients
    coeffs[k] (rows of unequal length are zero-padded).  Everything else
    happens here: one matrix product evaluates every P_k, the field is
    pulled back by dw, and every component gets its L1 mass, the integral
    of |derivative| against |dw| (rate * base for the base).

    Returns (base, integrals, base_masses, masses) at the end of every
    segment, in path order; [-1] is the loop's end.
    """
    base0 = np.asarray(base0, dtype=complex)
    nb = base0.size
    C = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)), dtype=complex)
    for k, c in enumerate(coeffs):
        C[k, : len(c)] = c
    n = C.shape[1]

    last = [None, None]  # the nodes of the last call and P_k there: every sweep of a block has the same nodes

    def values(w):
        if w is not last[0]:
            # one (K, n) @ (n, N) product per piece: over a whole block of
            # nodes the product would be spread over BLAS threads (see _per_row)
            V = np.vander(w, n, increasing=True).reshape(-1, N, n).transpose(0, 2, 1)
            last[:] = w, np.matmul(C, V).transpose(1, 0, 2).reshape(len(C), -1)
        return last[1]

    def rhs(w, dw, b, y):
        rate, g = field(w, b, y, values(w))
        return np.multiply(rate, dw), np.multiply(g, dw)

    return [(b, y, mass[:nb], mass[nb:]) for b, y, mass in integrate_loop(rhs, loop, base0, integrals0, rtol)]
