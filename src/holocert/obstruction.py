"""The banded linear map behind the obstruction values.

For each degree d the map

    L_d : f  |->  f' r + (d-1)(s - r') f

sends polynomials of degree <= 2d-3 to polynomials of degree <= 2d-2.
Its matrix M_d in the monomial bases is read off apply_Ld, normalform's
one L_d, in three applications per degree: L_d(w^k) lives on
w^(k-1)..w^(k+1), so the columns k of one residue class mod 3 share one
application.  tests/test_obstruction.py states the three bands in closed
form.  Dropping the first row leaves an upper-triangular square matrix
whose scalar diagonal is nonzero under the exact genericity conditions.
Solving against P_d - P_d(0) by back-substitution produces R_d, and the
constant defect F_d = L_d(R_d)(0) - P_d(0) is the degree-d obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GaussianRational, ZERO
from .mpoly import MPoly, poly_from_coeffs
from .normalform import L_d, W


class GenericityError(ArithmeticError):
    """A diagonal entry B_d - k vanished; the triangular solve is impossible."""


class SolverError(ArithmeticError):
    """Internal consistency failure (indicates a solver bug, not bad input)."""


def apply_Ld(d: int, lambda1, lambda2, f: MPoly) -> MPoly:
    """Direct evaluation of L_d(f) = f' r + (d-1)(s - r') f."""
    return L_d(d, lambda1, lambda2, f, W, lambda g: g.derivative("w"))


@dataclass(frozen=True)
class BandedMatrix:
    """Matrix of L_d over the monomial bases {1..w^(2d-3)} -> {1..w^(2d-2)}.

    rows[i][k] is the coefficient of w^i in L_d(w^k), read off apply_Ld; only
    the bands i = k-1, k, k+1 are nonzero, as tests/test_obstruction.py states.
    """

    d: int
    lambda1: GaussianRational
    lambda2: GaussianRational
    rows: tuple  # (2d-1) x (2d-2) nested tuples of GaussianRational

    @property
    def n_cols(self) -> int:
        return 2 * self.d - 2


def build_Md(d: int, lambda1: GaussianRational, lambda2: GaussianRational) -> BandedMatrix:
    """Assemble M_d from three applications of apply_Ld, one per residue class
    c of k mod 3: L_d(w^k) lives on w^(k-1)..w^(k+1), so in L_d of the sum of
    the w^k with k = c mod 3 the columns do not overlap, and column k is its
    coefficients of w^(k-1)..w^(k+1).

    Raises GenericityError when a pivot rows[k+1][k] = B_d - (2d-2-k) vanishes,
    B_d = (d-1)(lambda1 + lambda2); equivalently lambda3 lies in (1/(d-1))Z.
    The pivots are checked in column order, so the first one names the error.
    """
    if not 3 <= d <= 6:
        raise ValueError(f"degree must lie in 3..6, got {d}")
    nrows, ncols = 2 * d - 1, 2 * d - 2
    images = []  # images[c][i]: the coefficient of w^i in L_d(sum of w^k, k = c mod 3)
    for c in range(3):
        f = poly_from_coeffs("w", [int(k % 3 == c) for k in range(ncols)])
        image = [x.constant_term() for x in apply_Ld(d, lambda1, lambda2, f).coeffs_in("w")]
        images.append(image + [ZERO] * (nrows - len(image)))
    cols = []
    for k in range(ncols):
        col = [ZERO] * nrows
        lo = max(k - 1, 0)
        col[lo : k + 2] = images[k % 3][lo : k + 2]
        if col[k + 1].is_zero():
            raise GenericityError(
                f"B_{d} - {2 * d - 2 - k} = 0 (lambda3 in (1/{d-1})Z); the triangular system is singular"
            )
        cols.append(col)
    return BandedMatrix(d, lambda1, lambda2, tuple(zip(*cols)))


def solve_Rd(M: BandedMatrix, P: MPoly) -> MPoly:
    """Unique R_d with L_d(R_d) = P_d on every monomial of positive degree.

    Back-substitution on the triangular square matrix, reading all three
    bands from M.rows; the only divisions are by the scalars B_d - k, so
    polynomial coefficients in beta pass through untouched.
    """
    d = M.d
    ncols = M.n_cols
    if P.degree("w") > 2 * d - 2:
        raise ValueError(f"deg_w P_{d} = {P.degree('w')} exceeds 2(d-1) = {2*d-2}")
    b = P.coeffs_in("w")
    b += [MPoly.zero()] * (2 * d - 1 - len(b))
    x: list[MPoly] = [MPoly.zero()] * ncols
    for i in range(2 * d - 2, 0, -1):
        # row w^i reads: rows[i][i-1] x_{i-1} + rows[i][i] x_i + rows[i][i+1] x_{i+1} = b_i
        row = M.rows[i]
        rhs = b[i]
        for k in range(i, min(i + 2, ncols)):
            rhs = rhs - x[k] * row[k]
        x[i - 1] = rhs / row[i - 1]
    return poly_from_coeffs("w", x)


def functional_Fd(M: BandedMatrix, P: MPoly, R: MPoly) -> MPoly:
    """Constant defect F_d = L_d(R_d)(0) - P_d(0), as a polynomial in beta.

    Also certifies that L_d(R_d) - P_d is free of w; any leftover w term
    means the solver is broken, which is a hard error.
    """
    defect = apply_Ld(M.d, M.lambda1, M.lambda2, R) - P
    if defect.degree("w") > 0:
        raise SolverError(f"L_{M.d}(R_{M.d}) - P_{M.d} is not w-free: {defect}")
    return defect
