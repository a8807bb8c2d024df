"""Truncated order-6 jets of holonomy germs and their group operations.

Jets carry, next to their coefficients, a nonnegative mass per degree:
the accumulated L1 weight of the integrands (for integrated jets) pushed
through the same arithmetic as the coefficients (for composed ones).
The masses are a jet's only error scale: distances between jets are
measured relative to them, which is the honest scale after the heavy
cancellations inside commutators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ODEError

ORDER = 6


@dataclass
class HolonomyJet:
    """Return map z -> a1 z + a2 z^2 + ... + a6 z^6 along one loop."""

    coeffs: np.ndarray
    norms: np.ndarray = field(default_factory=lambda: np.zeros(ORDER))

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        self.norms = np.asarray(self.norms, dtype=float)
        if self.coeffs.shape != (ORDER,) or self.norms.shape != (ORDER,):
            raise ValueError(f"jet wants {ORDER} coefficients and norms")

    @property
    def a1(self) -> complex:
        return self.coeffs[0]

    def a(self, d: int) -> complex:
        return self.coeffs[d - 1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.coeffs) + self.norms


def _trunc_mul(u, v):
    """Product of two series with zero constant term, truncated at z^ORDER.
    The products are taken on Python numbers, which round as numpy's
    complex128 and float64 scalars do."""
    dtype = np.result_type(u, v)
    u, v = u.tolist(), v.tolist()
    out = [0.0] * ORDER
    for i in range(ORDER):
        if u[i] == 0:
            continue
        for j in range(ORDER - i - 1):
            out[i + j + 1] += u[i] * v[j]
    return np.array(out, dtype=dtype)


def _finite(jet: HolonomyJet, what: str) -> HolonomyJet:
    if not (np.isfinite(jet.coeffs).all() and np.isfinite(jet.norms).all()):
        raise ODEError(f"jet {what} overflows double precision")
    return jet


def compose(f: HolonomyJet, g: HolonomyJet) -> HolonomyJet:
    """Jet of f(g(z)), i.e. g acts first; masses follow the same algebra."""
    out, mass = np.zeros(ORDER, dtype=complex), np.zeros(ORDER)
    with np.errstate(all="ignore"):  # checked by _finite
        fm, gm = f.magnitude(), g.magnitude()
        powers, powers_m = g.coeffs, gm
        for k in range(ORDER):
            out += f.coeffs[k] * powers
            mass += fm[k] * powers_m
            if k < ORDER - 1:
                powers, powers_m = _trunc_mul(powers, g.coeffs), _trunc_mul(powers_m, gm)
        return _finite(HolonomyJet(out, norms=np.maximum(mass - np.abs(out), 0.0)), "composition")


def invert(f: HolonomyJet) -> HolonomyJet:
    """Series reversion: g with f(g(z)) = z + O(z^7).  Needs a1 != 0."""
    if f.coeffs[0] == 0:
        raise ZeroDivisionError("jet with a1 = 0 is not invertible")
    g = np.zeros(ORDER, dtype=complex)
    with np.errstate(all="ignore"):  # checked by _finite
        g[0] = 1.0 / f.coeffs[0]
        inv = HolonomyJet(g)
        for n in range(1, ORDER):
            c = compose(f, inv).coeffs
            inv.coeffs[n] -= c[n] / f.coeffs[0]
        inv.norms = compose(f, inv).norms / max(abs(f.coeffs[0]), 1e-300)
    return _finite(inv, "inversion")


def commutator(f: HolonomyJet, g: HolonomyJet) -> HolonomyJet:
    """f o g o f^-1 o g^-1, truncated."""
    return compose(compose(f, g), compose(invert(f), invert(g)))


def jet_distance(f: HolonomyJet, g: HolonomyJet) -> float:
    """Largest per-coefficient deviation relative to coefficient size and mass."""
    scale = np.maximum.reduce(
        [np.ones(ORDER), np.abs(f.coeffs), np.abs(g.coeffs), f.norms, g.norms]
    )
    return float(np.max(np.abs(f.coeffs - g.coeffs) / scale))
