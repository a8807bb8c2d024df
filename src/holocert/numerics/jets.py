"""Truncated order-6 jets of holonomy germs and their group operations.

Jets carry, next to their coefficients, a nonnegative mass per degree:
the accumulated L1 weight of the integrands (for integrated jets) pushed
through the same arithmetic as the coefficients (for composed ones).
The masses are a jet's only error scale: distances between jets are
measured relative to them, which is the honest scale after the heavy
cancellations inside commutators.

One routine composes series, ``_compose(f, g) = f @ _power_table(g)``:
the coefficients of ``compose``, the steps of ``invert`` and the masses
all go through it, so they round alike.
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


def _power_table(g: np.ndarray) -> np.ndarray:
    """Rows g, g^2, ..., g^n of a series with zero constant term, truncated
    at z^n, for the n coefficients of g; each row is one convolution of the
    row before it with g."""
    n = len(g)
    table = np.zeros((n, n), dtype=g.dtype)
    table[0] = g
    for k in range(1, n):
        table[k, 1:] = np.convolve(table[k - 1], g)[: n - 1]
    return table


def _compose(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of f(g(z)), truncated at the common length of f and g."""
    return f @ _power_table(g)


def _finite(jet: HolonomyJet, what: str) -> HolonomyJet:
    if not (np.isfinite(jet.coeffs).all() and np.isfinite(jet.norms).all()):
        raise ODEError(f"jet {what} overflows double precision")
    return jet


def compose(f: HolonomyJet, g: HolonomyJet) -> HolonomyJet:
    """Jet of f(g(z)), i.e. g acts first; masses follow the same algebra."""
    with np.errstate(all="ignore"):  # checked by _finite
        out = _compose(f.coeffs, g.coeffs)
        mass = _compose(f.magnitude(), g.magnitude())
        return _finite(HolonomyJet(out, norms=np.maximum(mass - np.abs(out), 0.0)), "composition")


def invert(f: HolonomyJet) -> HolonomyJet:
    """Series reversion: g with f(g(z)) = z + O(z^7).  Needs a1 != 0.
    Each step fixes one coefficient of g; the masses are composed once,
    from the finished g."""
    if f.coeffs[0] == 0:
        raise ZeroDivisionError("jet with a1 = 0 is not invertible")
    g = np.zeros(ORDER, dtype=complex)
    with np.errstate(all="ignore"):  # checked by _finite
        g[0] = 1.0 / f.coeffs[0]
        for n in range(1, ORDER):
            g[n] -= _compose(f.coeffs, g)[n] / f.coeffs[0]
        norms = compose(f, HolonomyJet(g)).norms / max(abs(f.coeffs[0]), 1e-300)
    return _finite(HolonomyJet(g, norms=norms), "inversion")


def commutator(f: HolonomyJet, g: HolonomyJet) -> HolonomyJet:
    """f o g o f^-1 o g^-1, truncated."""
    return compose(compose(f, g), compose(invert(f), invert(g)))


def jet_distance(f: HolonomyJet, g: HolonomyJet) -> float:
    """Largest per-coefficient deviation relative to coefficient size and mass."""
    scale = np.maximum.reduce(
        [np.ones(ORDER), np.abs(f.coeffs), np.abs(g.coeffs), f.norms, g.norms]
    )
    return float(np.max(np.abs(f.coeffs - g.coeffs) / scale))
