import dataclasses

import pytest

from holocert.gaussian import GaussianRational as gq
from holocert.mpoly import MPoly
from holocert.obstruction import (
    GenericityError,
    SolverError,
    apply_Ld,
    build_Md,
    functional_Fd,
    solve_Rd,
)

from conftest import random_generic_params

W = MPoly.var("w")


def test_M3_values_at_test_point(tp):
    # A_3 = -4+6i on the diagonal; with B_3 = 4+2i the subdiagonal holds B_3 - 4, ..., B_3 - 1
    M = build_Md(3, tp.lambda1, tp.lambda2)
    assert M.rows[0][0] == gq(-4, 6)
    assert [M.rows[k + 1][k] for k in range(M.n_cols)] == [gq(0, 2), gq(1, 2), gq(2, 2), gq(3, 2)]


def test_first_column_is_image_of_one(tp):
    # f = 1 has f' = 0, so L_d(1) = (B_d - (2d-2)) w + A_d ... only via s - r'
    for d in (3, 4, 5, 6):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        img = apply_Ld(d, tp.lambda1, tp.lambda2, MPoly.one())
        col = [row[0] for row in M.rows]
        expect = [c.constant_term() for c in img.coeffs_in("w")]
        assert col == expect + [gq(0)] * (len(M.rows) - len(expect))
        assert col[0] == (d - 1) * (tp.lambda2 - tp.lambda1)
        assert col[1] == (d - 1) * (tp.lambda1 + tp.lambda2) - (2 * d - 2)


def test_matrix_matches_bruteforce_oracle(tp, rng):
    # assemble the matrix by applying L_d to each basis monomial directly
    for p in [tp, random_generic_params(rng)]:
        for d in (3, 4, 5, 6):
            M = build_Md(d, p.lambda1, p.lambda2)
            for k in range(M.n_cols):
                img = apply_Ld(d, p.lambda1, p.lambda2, W**k).coeffs_in("w")
                for i in range(len(M.rows)):
                    expect = img[i].constant_term() if i < len(img) else gq(0)
                    assert M.rows[i][k] == expect


def test_planted_singular_diagonal():
    # lambda1 = 1, lambda2 = 0 gives B_3 = 2 so B_3 - 2 = 0
    with pytest.raises(GenericityError):
        build_Md(3, gq(1), gq(0))


def test_bad_degree_rejected(tp):
    with pytest.raises(ValueError):
        build_Md(2, tp.lambda1, tp.lambda2)
    with pytest.raises(ValueError):
        build_Md(7, tp.lambda1, tp.lambda2)


def test_solve_zero_gives_zero(tp):
    M = build_Md(4, tp.lambda1, tp.lambda2)
    assert solve_Rd(M, MPoly.zero()).is_zero()


def test_solve_roundtrip_on_basis_vector(tp):
    for d in (3, 5):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        P = apply_Ld(d, tp.lambda1, tp.lambda2, W)
        assert solve_Rd(M, P) == W


def test_solve_roundtrip_on_random_polys(tp, rng):
    from conftest import random_gaussian

    for d in (3, 4, 5, 6):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        coeffs = [random_gaussian(rng) for _ in range(2 * d - 2)]
        R = sum((MPoly.const(c) * W**k for k, c in enumerate(coeffs)), MPoly.zero())
        P = apply_Ld(d, tp.lambda1, tp.lambda2, R)
        got = solve_Rd(M, P)
        assert got == R
        assert functional_Fd(M, P, got).is_zero()


def test_solve_rejects_overdegree(tp):
    M = build_Md(3, tp.lambda1, tp.lambda2)
    with pytest.raises(ValueError):
        solve_Rd(M, W**5)


def test_Fd_constant_input(tp):
    # P = 1 is w-free, so R = 0 and F = L(0)(0) - 1 = -1
    for d in (3, 6):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        R = solve_Rd(M, MPoly.one())
        assert R.is_zero()
        assert functional_Fd(M, MPoly.one(), R) == MPoly.const(-1)


def test_Fd_detects_solver_corruption(tp):
    M = build_Md(3, tp.lambda1, tp.lambda2)
    P = apply_Ld(3, tp.lambda1, tp.lambda2, W)
    with pytest.raises(SolverError):
        functional_Fd(M, P, W + W**2)  # wrong preimage


@pytest.mark.parametrize("band", [0, 1])
def test_Fd_detects_a_corrupted_band(tp, band):
    # the solve reads every band from M.rows, so a wrong entry there (with
    # A_d intact) yields a wrong R_d, and the defect picks up a w term
    d, i = 4, 3
    M = build_Md(d, tp.lambda1, tp.lambda2)
    rows = [list(r) for r in M.rows]
    rows[i][i + band] += 1
    bad = dataclasses.replace(M, rows=tuple(tuple(r) for r in rows))
    assert bad.rows[0][0] == M.rows[0][0]
    P = apply_Ld(d, tp.lambda1, tp.lambda2, sum((W**k for k in range(2 * d - 2)), MPoly.zero()))
    with pytest.raises(SolverError):
        functional_Fd(bad, P, solve_Rd(bad, P))


def test_degree_bound_on_solution(tp, rng):
    # R_d never exceeds degree 2d-3 by construction of the solve
    from conftest import random_gaussian

    for d in (3, 4, 5, 6):
        M = build_Md(d, tp.lambda1, tp.lambda2)
        P = sum(
            (MPoly.const(random_gaussian(rng)) * W**k for k in range(2 * d - 1)),
            MPoly.zero(),
        )
        R = solve_Rd(M, P)
        assert R.degree("w") <= 2 * d - 3
        # defect is w-free even for arbitrary P
        F = functional_Fd(M, P, R)
        assert F.degree("w") <= 0
