"""Floating-point holonomy laboratory.

Integrates the variational system along explicit loops in the punctured
w-line, computes holonomy jets and the iterated loop integrals, and
cross-validates the closed-form coefficient formulas of the exact half.
Every loop integration goes through ``odepath.integrate_stack``: each
family (jets, quadrature bundle, integral lemmas) is a field on it, made
of a base with a rate in w alone (phi1, or zeta) and a triangular stack
of integrals.  The engine cuts a loop into Chebyshev pieces and solves
blocks of consecutive pieces at once: field sweeps over all their nodes
to a fixed point, the one cumulative-integral matrix, and start states
chained in path order.  It halves every piece whose Chebyshev tail is too
large, and reports a breakdown only where that fixed point leaves double
precision.

The package itself holds only what the command line needs before any
numeric work runs, so that importing it loads no numpy; ``checks`` is the
laboratory's entry point, and the other modules are imported from where
they live.
"""

# The bound on each piece's Chebyshev tail relative to the integrand's
# largest coefficient; it keeps a1 of a commutator loop near 1e-14, far
# under the 1e-8 structural budget.
DEFAULT_RTOL = 1e-12


class ODEError(RuntimeError):
    """A loop integration left double precision: a non-finite state, a
    Chebyshev tail that stays above rtol, or an overflowing jet."""
