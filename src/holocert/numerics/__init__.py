"""Floating-point holonomy laboratory.

Integrates the variational system along explicit loops in the punctured
w-line, computes holonomy jets and the iterated loop integrals, and
cross-validates the closed-form coefficient formulas of the exact half.
Every loop integration goes through ``odepath.integrate_loop``: each
family (jets, quadrature bundle, integral lemmas) is a field on it, made
of the base phi1 and a triangular stack of integrals, under the
one field contract stated in ``odepath``: a field is one generator that
yields rows in w, the base's rate first and then one level of integrands
at a time, and is sent each level's solved values.  The families that
share a commutator loop, all but its jet, are zipped into one field
(``holonomy.integrate_stack``); the seven jets share one lockstep pass of
five loops, in which each keeps the mesh it has alone, and the jets of
mu2 and mu2*mu1 are read off gamma1's, whose first segments they are
(``holonomy.integrate_variations``).
The engine cuts a loop into Chebyshev pieces and solves blocks of
consecutive pieces at once, level by level over all their nodes, with the
one cumulative-integral matrix and start states chained in path order.  It
halves every piece whose Chebyshev tail is too large, and raises a
breakdown where the solved state leaves double precision (the precedence
of several is stated in ``odepath``).

The package itself holds only ODEError, which the command line catches
before any numeric work runs, so that importing it loads no numpy;
``checks`` is the laboratory's entry point, and the other modules are
imported from where they live.
"""


class ODEError(RuntimeError):
    """A loop integration left double precision: a non-finite state, a
    Chebyshev tail that stays above RTOL, or an overflowing jet."""

