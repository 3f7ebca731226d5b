"""Exact linear algebra over duck-typed coefficient rings.

Matrices are tuples of tuples.  Ring entries only need the arithmetic
dunders and equality against 0; field entries additionally need true
division.  This covers Fraction, UniPoly and BiPoly without any dispatch
machinery.  No solve here runs over the function field Q(x), and no
command builds a ``poly.RationalFunction``.
`poly_at_matrix` and `semisimple_part` work on rational matrices, so the
fiberwise checks need no number field.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .poly import BiPoly, UniPoly, _det_unipoly


def mat_shape(mat):
    return len(mat), len(mat[0]) if mat else 0


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise ValidationError("incompatible shapes for matrix product")
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_eq(a, b) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def char_poly(mat) -> BiPoly:
    """Characteristic polynomial det(tI - M) of a square matrix over Q[x],
    as one packed Bareiss determinant over Q[z] (Kronecker substitution).

    With w = n * deg M + 1, the ring map x -> z, t -> z^w sends tI - M to the
    matrix with diagonal z^w - m_ii and off-diagonal -m_ij, and det(tI - M)
    to that matrix's determinant.  The map is injective on polynomials of
    x-degree < w, and each t-coefficient of det(tI - M) has x-degree at most
    n * deg M, so block j of w coefficients of the image is the coefficient
    of t^j."""
    n, m = mat_shape(mat)
    if n != m:
        raise ValidationError("characteristic polynomial of a non-square matrix")
    rows = [[e if isinstance(e, UniPoly) else UniPoly.constant(e) for e in row]
            for row in mat]
    w = n * max([0] + [e.degree for row in rows for e in row]) + 1
    zw = UniPoly.monomial(w)
    det = _det_unipoly(
        [[zw - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(rows)]
    ).coeffs
    return BiPoly(UniPoly(det[k:k + w]) for k in range(0, n * w + 1, w))


def _row_echelon(mat):
    """In-place style row echelon over a field; returns (rows, pivots)."""
    rows = [list(row) for row in mat]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(m):
        pivot = None
        for r in range(rank, n):
            if not rows[r][col] == 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_row = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = inv_row
        for r in range(n):
            if r != rank and not rows[r][col] == 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], inv_row)]
        pivots.append(col)
        rank += 1
        if rank == n:
            break
    return rows, pivots


def mat_rank(mat) -> int:
    if not mat:
        return 0
    _, pivots = _row_echelon(mat)
    return len(pivots)


def kernel_basis(mat, one):
    """Basis of the right kernel of a matrix over a field.

    ``one`` is the multiplicative identity of the entry type; free variables
    are set to it, giving a deterministic reduced basis.
    """
    n, m = mat_shape(mat)
    zero = one - one
    if n == 0:
        return [
            tuple(one if i == j else zero for i in range(m)) for j in range(m)
        ]
    rows, pivots = _row_echelon(mat)
    pivot_set = set(pivots)
    free = [j for j in range(m) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [zero] * m
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def solve_right(mat, rhs_cols, one):
    """Solve M X = B over a field for X; returns None when inconsistent.

    ``rhs_cols`` is a matrix whose columns are the right-hand sides."""
    n, m = mat_shape(mat)
    nb, k = mat_shape(rhs_cols)
    if nb != n:
        raise ValidationError("right-hand side has wrong height")
    zero = one - one
    aug = [list(mat[i]) + list(rhs_cols[i]) for i in range(n)]
    rows, pivots = _row_echelon(aug)
    pivots = [p for p in pivots if p < m]
    for row in rows:
        if all(row[j] == 0 for j in range(m)) and any(
            not row[m + j] == 0 for j in range(k)
        ):
            return None
    sol = [[zero] * k for _ in range(m)]
    for r, p in enumerate(pivots):
        for j in range(k):
            sol[p][j] = rows[r][m + j]
    return tuple(tuple(row) for row in sol)


def poly_at_matrix(p: UniPoly, mat):
    """p(M) for a polynomial p over Q and a square rational matrix M, by
    Horner's rule."""
    n = len(mat)
    out = tuple(
        tuple(p.leading() if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    for c in reversed(p.coeffs[:-1]):
        out = mat_mul(out, mat)
        out = tuple(
            tuple(e + c if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(out)
        )
    return out


def semisimple_part(mat, q: UniPoly):
    """The semisimple part S of the Jordan-Chevalley decomposition of a square
    rational matrix M, for a squarefree q over Q that vanishes at every
    eigenvalue of M.  Newton's iteration S <- S - q(S) q'(S)^-1 from S = M
    (Couty, Esterle and Zarouf 2011).

    Every iterate is a polynomial in M, and S - M is nilpotent, so S has the
    eigenvalues of M and q'(S) is invertible (q is squarefree).  After k steps
    q(S) is a multiple of q(M)^(2^k), which vanishes once 2^k >= n because
    q(M) is nilpotent.  So S ends with q(S) = 0: semisimple, a polynomial in
    M, and with M - S nilpotent."""
    n = len(mat)
    semisimple = mat
    derivative = q.derivative()
    for _ in range(n.bit_length() + 1):
        value = poly_at_matrix(q, semisimple)
        if mat_is_zero(value):
            return semisimple
        # q(S) and q'(S) commute, so q'(S) X = q(S) gives the step
        step = solve_right(poly_at_matrix(derivative, semisimple), value, Fraction(1))
        if step is None:
            break
        semisimple = tuple(
            tuple(s - d for s, d in zip(rs, rd)) for rs, rd in zip(semisimple, step)
        )
    raise ValidationError("the matrix has an eigenvalue that is not a root of q")
