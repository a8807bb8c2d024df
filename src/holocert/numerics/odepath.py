"""Chebyshev integration of iterated integrals along paths.

Each path segment is parameterized over t in [0, 1] and cut into pieces.
On a piece every integrand is sampled at N first-kind Chebyshev points;
one fixed (N+1) x N matrix (values -> Chebyshev coefficients -> chebint ->
evaluation) turns the samples into the cumulative integrals at the nodes
and at the piece's end, and the same matrix applied to the moduli gives
the L1 masses.  A piece is split in two while the trailing Chebyshev
coefficients of an integrand exceed rtol times its largest one plus ATOL.
rtol is the one tolerance a caller passes (DEFAULT_RTOL unless the command
line's --rtol sets it); ATOL is fixed, like N, PIECES, MAX_DEPTH and TAIL.
This is Chebfun's ``cumsum``; the end row is Fejer's first quadrature
rule (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013).

``integrate_stack`` is the one path-integration primitive of the
laboratory: every family (holonomy jets, the quadrature bundle, the
integral lemmas) supplies only a field in w and gets back the integrals
and their L1 masses.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as cheb

N = 32  # Chebyshev nodes per piece
PIECES = 2  # initial pieces per segment
MAX_DEPTH = 12  # a piece is halved at most this often
TAIL = 2  # trailing coefficients that estimate a piece's error
ATOL = 1e-16  # absolute floor of the tail test, for integrands that vanish
# The bound on each piece's Chebyshev tail relative to the integrand's
# largest coefficient; it keeps a1 of a commutator loop near 1e-14, far
# under the 1e-8 structural budget.
DEFAULT_RTOL = 1e-12

_X = cheb.chebpts1(N)  # ascending nodes on [-1, 1]
# values -> coefficients, by the discrete orthogonality of T_k at the nodes
_TO_COEFFS = cheb.chebvander(_X, N - 1).T * np.where(np.arange(N) == 0, 1.0, 2.0)[:, None] / N
# values -> cumulative integral from -1, at the nodes and at +1 (last column):
# column j integrates the interpolant of the values from -1 to the j-th point
_CUMSUM = cheb.chebval(np.append(_X, 1.0), cheb.chebint(_TO_COEFFS, lbnd=-1))


class ODEError(RuntimeError):
    pass


def _rows(a, k: int, n: int) -> np.ndarray:
    return np.broadcast_to(a, (k, n)) if k else np.zeros((0, n), dtype=complex)


def _piece(f, t, half, b0, y0, rtol):
    """Base, integrals and mass increments at the end of one piece, or None
    when the piece must be split.

    f is evaluated on the nodes until the state at the nodes is a fixed
    point: the first sweep fixes the base, each further one an integral
    level, and the last one confirms.  Overflow is caught as a non-finite
    state, not as a numpy warning.
    """
    nb, m = b0.size, y0.size
    base = _rows(b0[:, None], nb, N)
    ints = _rows(y0[:, None], m, N)
    state = None
    with np.errstate(all="ignore"):
        for _ in range(m + 2):
            rate, g = f(t, base, ints)
            derivs = np.concatenate((_rows(rate, nb, N), _rows(g, m, N)))
            cum = half * (derivs @ _CUMSUM)
            new = np.concatenate((b0[:, None] * np.exp(cum[:nb]), y0[:, None] + cum[nb:]))
            if not np.all(np.isfinite(new)):
                raise ODEError("non-finite state")
            if state is not None and np.array_equal(new, state):
                break
            state = new
            base, ints = state[:nb, :N], state[nb:, :N]
        else:
            raise ValueError(f"no fixed point after {m + 2} sweeps: an integrand reads itself or a later integral")
        coeffs = np.abs(derivs @ _TO_COEFFS.T)
        if np.any(coeffs[:, -TAIL:].max(axis=1, initial=0.0) > rtol * coeffs.max(axis=1, initial=0.0) + ATOL):
            return None
        dmass = half * (np.abs(np.concatenate((derivs[:nb] * base, derivs[nb:]))) * _CUMSUM[:, N]).sum(axis=1)
    return state[:nb, N], state[nb:, N], dmass


def integrate_fixed_interval(f, b0, y0, rtol: float):
    """Integrate a base b and integrals y over t in [0, 1].

    f(t, b, y) takes an array of nodes t with the state at those nodes
    (one row per component) and returns (rate, g): b' = rate * b and
    y' = g, each rate depending on t alone and each integrand only on b
    and on earlier integrals.  Returns b and y at t = 1 and the L1 mass
    of every component's derivative (rate * b for the base).
    """
    b = np.asarray(b0, dtype=complex)
    y = np.asarray(y0, dtype=complex)
    mass = np.zeros(b.size + y.size)
    todo = [(k / PIECES, 1.0 / PIECES, 0) for k in reversed(range(PIECES))]
    while todo:
        a, h, depth = todo.pop()
        out = _piece(f, a + h * (_X + 1.0) / 2.0, h / 2.0, b, y, rtol)
        if out is None:
            if depth == MAX_DEPTH:
                raise ODEError(f"Chebyshev tail above rtol on a piece of length {h:g} at t = {a:g}")
            todo += [(a + h / 2.0, h / 2.0, depth + 1), (a, h / 2.0, depth + 1)]
            continue
        b, y, dmass = out
        mass += dmass
    return b, y, mass


def integrate_loop(rhs, loop, b0, y0, rtol: float, segment_callback=None):
    """Integrate along every segment of a loop, carrying the state through.

    rhs(w, dw, b, y) receives the nodes and velocities of a piece and
    returns (rate, g) in t, already pulled back.  segment_callback(index,
    w_end, b, y, mass) fires after each segment, which the
    antiderivative-identity checks use to compare mid-path values.
    Returns (b, y, mass) at the end of the loop.
    """
    b = np.asarray(b0, dtype=complex)
    y = np.asarray(y0, dtype=complex)
    mass = np.zeros(b.size + y.size)
    for idx, seg in enumerate(loop.segments):

        def f(t, b, y, seg=seg):
            return rhs(seg.point(t), seg.velocity(t), b, y)

        try:
            b, y, dmass = integrate_fixed_interval(f, b, y, rtol)
        except ODEError as exc:
            raise ODEError(f"loop {loop.label!r}, segment {idx}: {exc}") from exc
        mass = mass + dmass
        if segment_callback is not None:
            segment_callback(idx, seg.point(1.0), b, y, mass)
    return b, y, mass


def integrate_stack(loop, base0, integrals0, coeffs, field, rtol: float, segment_callback=None):
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

    Returns (base, integrals, base_masses, masses) at the end of the loop.
    segment_callback(index, w_end, base, integrals, base_masses, masses)
    fires after each segment.
    """
    base0 = np.asarray(base0, dtype=complex)
    nb = base0.size
    C = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)), dtype=complex)
    for k, c in enumerate(coeffs):
        C[k, : len(c)] = c
    n = C.shape[1]

    def rhs(w, dw, b, y):
        rate, g = field(w, b, y, C @ np.vander(w, n, increasing=True).T)
        return np.multiply(rate, dw), np.multiply(g, dw)

    def split(b, y, mass):
        return b, y, mass[:nb], mass[nb:]

    callback = None
    if segment_callback is not None:

        def callback(idx, w, b, y, mass):
            segment_callback(idx, w, *split(b, y, mass))

    return split(*integrate_loop(rhs, loop, base0, integrals0, rtol, segment_callback=callback))
