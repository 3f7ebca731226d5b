"""Exact linear algebra over duck-typed coefficient rings.

Matrices are tuples of tuples.  Ring entries only need the arithmetic
dunders and equality against 0; field entries additionally need true
division.  This covers Fraction, UniPoly, BiPoly and NumberFieldElement
without any dispatch machinery.  No solve here runs over the function field
Q(x): ``poly.RationalFunction`` now serves only ``poly.bipoly_gcd_t``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .numfield import NumberFieldElement
from .poly import BiPoly, UniPoly


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


def mat_pow(a, n: int):
    size, size2 = mat_shape(a)
    if size != size2:
        raise ValidationError("matrix power requires a square matrix")
    if n == 0:
        raise ValidationError("mat_pow needs n >= 1 (no canonical one element)")
    result = a
    for _ in range(n - 1):
        result = mat_mul(result, a)
    return result


def char_poly(mat) -> BiPoly:
    """Characteristic polynomial det(tI - M) of a square matrix over Q[x],
    by the Faddeev-LeVerrier recursion (division by integers only)."""
    n, m = mat_shape(mat)
    if n != m:
        raise ValidationError("characteristic polynomial of a non-square matrix")
    rows = tuple(
        tuple(e if isinstance(e, UniPoly) else UniPoly.constant(e) for e in row)
        for row in mat
    )
    if n == 0:
        return BiPoly.one()
    coeffs = [UniPoly.one()]
    acc = rows
    for k in range(1, n + 1):
        tr = UniPoly.zero()
        for i in range(n):
            tr = tr + acc[i][i]
        ck = tr * Fraction(-1, k)
        coeffs.append(ck)
        if k == n:
            break
        shifted = tuple(
            tuple(acc[i][j] + (ck if i == j else UniPoly.zero()) for j in range(n))
            for i in range(n)
        )
        acc = mat_mul(rows, shifted)
    # coeffs[k] multiplies t^(n-k)
    return BiPoly(tuple(reversed(coeffs)))


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


def lift_matrix(mat, field):
    """Coerce a rational matrix into a number field."""
    out = []
    for row in mat:
        new_row = []
        for e in row:
            if isinstance(e, NumberFieldElement):
                if e.field != field:
                    raise ValidationError("mixed number fields in one matrix")
                new_row.append(e)
            else:
                new_row.append(field.element(e))
        out.append(tuple(new_row))
    return tuple(out)


def generalized_eigenspace(mat, y):
    """Basis of ker((M - y I)^r) over the field of y.

    Rational matrices are lifted into y's number field; an empty basis means
    y is not an eigenvalue.
    """
    n, m = mat_shape(mat)
    if n != m:
        raise ValidationError("generalized eigenspace of a non-square matrix")
    if isinstance(y, NumberFieldElement):
        field = y.field
        lifted = lift_matrix(mat, field)
        one = field.one()
        yel = y
    else:
        lifted = tuple(
            tuple(Fraction(e) if isinstance(e, int) else e for e in row)
            for row in mat
        )
        one = Fraction(1)
        yel = Fraction(y) if isinstance(y, int) else y
    shifted = tuple(
        tuple(lifted[i][j] - (yel if i == j else yel - yel) for j in range(n))
        for i in range(n)
    )
    power = mat_pow(shifted, n) if n >= 1 else shifted
    return kernel_basis(power, one)


def nilpotency_test(mat) -> bool:
    """True iff M^r = 0 with r the matrix dimension."""
    n, m = mat_shape(mat)
    if n != m:
        raise ValidationError("nilpotency test on a non-square matrix")
    if n == 0:
        return True
    return mat_is_zero(mat_pow(mat, n))
