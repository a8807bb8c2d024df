"""holocert: exact uniqueness certificates for normalized quadratic foliations.

The exact half expands the normal form, builds the degree-3..6 obstruction
polynomials in Q(i)[beta], and runs the resultant elimination chain that
certifies beta = alpha as the unique solution.  The numeric half integrates
variational equations along explicit loops and cross-validates every
closed-form coefficient formula used by the exact half.
"""

__version__ = "0.1.0"
