"""Adaptive Dormand-Prince 5(4) integration of complex ODE systems along paths.

Each path segment is parameterized over t in [0, 1]; the right-hand side
is given in the w variable and pulled back through the parameterization.
States are complex numpy vectors; the embedded fourth-order solution
drives the step-size control.

``integrate_stack`` is the one path-integration primitive of the
laboratory: every family (holonomy jets, the quadrature bundle, the
integral lemmas) supplies only a field in w and gets back the integrals
and their L1 masses.
"""

from __future__ import annotations

import numpy as np

# Dormand-Prince coefficients (same tableau as classic DOPRI5).  Row i of _A
# holds the weights of the earlier stages in the state of stage i, padded
# with zeros to a 7 x 7 array.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        row + [0.0] * (7 - len(row))
        for row in (
            [],
            [1 / 5],
            [3 / 40, 9 / 40],
            [44 / 45, -56 / 15, 32 / 9],
            [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
            [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
            [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
        )
    ]
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

MIN_STEP = 1e-13
MAX_REJECTS = 60


class ODEError(RuntimeError):
    pass


def integrate_fixed_interval(f, y0, rtol: float, atol: float, h0: float = 0.05):
    """Integrate dy/dt = f(t, y) over t in [0, 1]; returns the final state.

    The seven stage derivatives live in the columns of one real array (the
    real and imaginary parts of each component on rows of their own), so
    every stage state, the fifth-order update and the error estimate are
    each one matrix-vector product with the tableau.  Each output row is a
    dot product over the stages alone, so a component's arithmetic does not
    depend on how many other components share the state.
    """
    y = np.asarray(y0, dtype=complex).copy()
    K = np.zeros((2 * y.size, 7))
    t = 0.0
    h = min(h0, 1.0)
    K[:, 0] = np.asarray(f(t, y), dtype=complex).view(float)
    rejects = 0
    while t < 1.0:
        h = min(h, 1.0 - t)
        if h < MIN_STEP:
            raise ODEError(f"step size underflow at t = {t}")
        for i in range(1, 7):
            yi = y + h * (K[:, :i] @ _A[i, :i]).view(complex)
            K[:, i] = np.asarray(f(t + _C[i] * h, yi), dtype=complex).view(float)
        y_new = y + h * (K @ _B5).view(complex)
        err_vec = h * (K @ _E).view(complex)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))
        if not np.isfinite(err) or not np.all(np.isfinite(y_new)):
            raise ODEError(f"non-finite state at t = {t}")
        if err <= 1.0:
            t += h
            y = y_new
            K[:, 0] = K[:, 6]  # first-same-as-last
            rejects = 0
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        else:
            rejects += 1
            if rejects > MAX_REJECTS:
                raise ODEError(f"too many rejected steps at t = {t}")
            h *= max(0.1, 0.9 * err ** -0.2)
    return y


def integrate_segment(rhs, segment, y0, rtol: float, atol: float):
    """Integrate one parameterized segment.

    rhs(w, dw, y) receives the current point and velocity and returns dy/dt;
    it owns the pullback (integrate_stack weights masses by |dw| and
    analytic states by dw).
    """

    def f(t, y):
        return rhs(segment.point(t), segment.velocity(t), y)

    # scale the trial step to the segment's speed so short hops stay cheap
    h0 = 0.1 / max(1.0, segment.max_speed())
    return integrate_fixed_interval(f, y0, rtol, atol, h0=h0)


def integrate_loop(rhs, loop, y0, rtol: float = 1e-10, atol: float = 1e-13, segment_callback=None):
    """Integrate along every segment of a loop, carrying the state through.

    segment_callback(index, w_end, y) fires after each segment, which the
    antiderivative-identity checks use to compare mid-path values.
    """
    y = np.asarray(y0, dtype=complex).copy()
    for idx, seg in enumerate(loop.segments):
        try:
            y = integrate_segment(rhs, seg, y, rtol, atol)
        except ODEError as exc:
            raise ODEError(f"loop {loop.label!r}, segment {idx}: {exc}") from exc
        if segment_callback is not None:
            segment_callback(idx, seg.point(1.0), y)
    return y


def integrate_stack(loop, base0, integrals0, coeffs, field, rtol: float, atol: float, segment_callback=None):
    """Integrate a base state and a stack of integrals along a loop.

    The state is base0 followed by integrals0.  field(w, state, vals)
    returns d state/dw, where vals[k] = P_k(w) for the polynomial with the
    ascending coefficients coeffs[k] (rows of unequal length are
    zero-padded); the field may read every component of the state, its
    own integrals included.  Everything else happens here: one
    matrix-vector product evaluates every P_k at w, the field is pulled
    back by dw, and next to each integral the state carries its L1 mass,
    the integral of |d integral/dw| against |dw|.  The base carries none.

    Returns (base, integrals, masses) at the end of the loop.
    segment_callback(index, w_end, base, integrals, masses) fires after each
    segment.
    """
    base0 = np.asarray(base0, dtype=complex)
    integrals0 = np.asarray(integrals0, dtype=complex)
    nb, m = base0.size, integrals0.size
    ns = nb + m
    C = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)), dtype=complex)
    for k, c in enumerate(coeffs):
        C[k, : len(c)] = c
    n = C.shape[1]

    def rhs(w, dw, y):
        powers = [1.0 + 0j]
        for _ in range(n - 1):
            powers.append(powers[-1] * w)
        ds = field(w, y[:ns], C @ np.array(powers))
        dy = np.empty(ns + m, dtype=complex)
        dy[:ns] = ds * dw
        dy[ns:] = np.abs(ds[nb:]) * abs(dw)
        return dy

    def split(y):
        return y[:nb], y[nb:ns], y[ns:].real

    callback = None
    if segment_callback is not None:

        def callback(idx, w, y):
            segment_callback(idx, w, *split(y))

    y0 = np.concatenate([base0, integrals0, np.zeros(m, dtype=complex)])
    return split(integrate_loop(rhs, loop, y0, rtol, atol, segment_callback=callback))
