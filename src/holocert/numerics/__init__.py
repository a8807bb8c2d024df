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
"""

from .loops import Arc, Line, Loop, LoopSystem, build_loops, concat
from .jets import HolonomyJet, commutator, compose, identity_jet, invert, jet_distance
from .holonomy import FloatModel, QuadratureBundle, float_model, integrate_quadratures, integrate_variations
from .checks import run_numeric_verification, verify_integral_lemmas, verify_variation_formulas

__all__ = [
    "Line",
    "Arc",
    "Loop",
    "LoopSystem",
    "build_loops",
    "concat",
    "HolonomyJet",
    "identity_jet",
    "compose",
    "invert",
    "commutator",
    "jet_distance",
    "FloatModel",
    "float_model",
    "QuadratureBundle",
    "integrate_variations",
    "integrate_quadratures",
    "verify_variation_formulas",
    "verify_integral_lemmas",
    "run_numeric_verification",
]
