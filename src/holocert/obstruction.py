"""The banded linear map behind the obstruction values.

For each degree d the map

    L_d : f  |->  f' r + (d-1)(s - r') f

sends polynomials of degree <= 2d-3 to polynomials of degree <= 2d-2.
Its matrix in the monomial bases is banded; dropping the first row
leaves an upper-triangular square matrix with scalar diagonal entries
B_d - k, all nonzero under the exact genericity conditions.  Solving
against P_d - P_d(0) by back-substitution produces R_d, and the constant
defect F_d = L_d(R_d)(0) - P_d(0) is the degree-d obstruction.
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

    rows[i][k] is the coefficient of w^i in L_d(w^k); only the three bands
    i = k-1, k, k+1 are nonzero, holding -k, A_d = (d-1)(lambda2 - lambda1)
    and B_d - (2d-2-k) with B_d = (d-1)(lambda1 + lambda2).
    """

    d: int
    lambda1: GaussianRational
    lambda2: GaussianRational
    rows: tuple  # (2d-1) x (2d-2) nested tuples of GaussianRational

    @property
    def n_cols(self) -> int:
        return 2 * self.d - 2


def build_Md(d: int, lambda1: GaussianRational, lambda2: GaussianRational) -> BandedMatrix:
    """Assemble M_d and verify it column-by-column against apply_Ld.

    Raises GenericityError when some diagonal entry B_d - k vanishes
    (equivalently lambda3 lands in (1/(d-1))Z).
    """
    if not 3 <= d <= 6:
        raise ValueError(f"degree must lie in 3..6, got {d}")
    A = (d - 1) * (lambda2 - lambda1)
    B = (d - 1) * (lambda1 + lambda2)
    ncols = 2 * d - 2
    nrows = 2 * d - 1
    for k in range(1, ncols + 1):
        if (B - k).is_zero():
            raise GenericityError(
                f"B_{d} - {k} = 0 (lambda3 in (1/{d-1})Z); the triangular system is singular"
            )
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for k in range(ncols):
        if k >= 1:
            rows[k - 1][k] = GaussianRational(-k)
        rows[k][k] = A
        rows[k + 1][k] = B - (2 * d - 2 - k)
    # self-check each column against the direct computation
    for k in range(ncols):
        got = [c.constant_term() for c in apply_Ld(d, lambda1, lambda2, W**k).coeffs_in("w")]
        if got + [ZERO] * (nrows - len(got)) != [rows[i][k] for i in range(nrows)]:
            raise SolverError(f"M_{d} column {k} disagrees with L_{d}(w^{k})")
    return BandedMatrix(d, lambda1, lambda2, tuple(tuple(r) for r in rows))


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
