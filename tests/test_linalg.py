import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from heckehiggs import linalg
from heckehiggs.linalg import (
    char_poly,
    kernel_basis,
    mat_eq,
    mat_is_zero,
    mat_mul,
    poly_at_matrix,
    semisimple_part,
    solve_right,
)
from heckehiggs.errors import ValidationError
from heckehiggs.numfield import NumberField
from heckehiggs.factor import factor_rationals
from heckehiggs.poly import BiPoly, UniPoly, parse_bipoly
from oracles import cofactor_char_poly, generalized_eigenspace, nilpotency_test

X = UniPoly.variable()
F = Fraction


def random_unipoly_matrix(rng, n, max_deg):
    return tuple(
        tuple(
            UniPoly([F(rng.randint(-3, 3)) for _ in range(rng.randint(0, max_deg) + 1)])
            for _ in range(n)
        )
        for _ in range(n)
    )


def _entry(rng, degree, den=1, lead=None):
    """A polynomial of exact degree `degree`, coefficients over `den`."""
    if lead is None:
        lead = rng.choice([-3, -2, -1, 1, 2, 3])
    return UniPoly([F(rng.randint(-3, 3), den) for _ in range(degree)] + [F(lead, den)])


def _square(n, entry):
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def _top_degree(rng, n):
    """Degree-3 diagonal over degree-2 off-diagonal entries: the t^0
    coefficient of chi has x-degree exactly 3n = w - 1, the top of a block."""
    return _square(n, lambda i, j: _entry(rng, 3 if i == j else 2))


def _edge_cases():
    """Matrices at the edges of char_poly's Kronecker packing, by name."""
    rng = random.Random(7)
    return {
        "rational-rows": [
            _square(4, lambda i, j: _entry(rng, rng.randint(0, 2), den=(2, 3, 5, 7)[i]))
            for _ in range(3)
        ],
        "degree-3-n5": [random_unipoly_matrix(rng, 5, 3), _top_degree(rng, 5)],
        "degree-3-n6": [random_unipoly_matrix(rng, 6, 3), _top_degree(rng, 6)],
        "1x1": [((_entry(rng, 2, den=3),),), ((UniPoly.zero(),),)],
        "constant": [
            _square(4, lambda i, j: UniPoly.constant(F(rng.randint(-5, 5), rng.randint(1, 4))))
        ],
        "negative-leading": [
            _square(3, lambda i, j: _entry(rng, rng.randint(0, 3), lead=-rng.randint(1, 5)))
        ],
    }


EDGE_CASES = _edge_cases()

unipoly_entries = st.one_of(
    st.just(UniPoly.zero()),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), max_size=4).map(
        UniPoly
    ),
)


@st.composite
def unipoly_matrices(draw):
    n = draw(st.integers(1, 4))
    return tuple(tuple(draw(st.lists(unipoly_entries, min_size=n, max_size=n))) for _ in range(n))


class TestCharPoly:
    def test_weighted_swap(self):
        mat = ((UniPoly.zero(), UniPoly.one()), (X, UniPoly.zero()))
        assert char_poly(mat) == parse_bipoly("t^2 - x")

    def test_zero_matrix(self):
        z = UniPoly.zero()
        assert char_poly(((z, z, z),) * 3) == parse_bipoly("t^3")

    def test_diagonal(self):
        mat = ((X, UniPoly.zero()), (UniPoly.zero(), X + 1))
        assert char_poly(mat) == parse_bipoly("t - x") * parse_bipoly("t - x - 1")

    def test_empty_matrix(self):
        assert char_poly(()) == BiPoly.one()

    @pytest.mark.parametrize("case", [1, 2, 3, 4, *EDGE_CASES])
    def test_matches_cofactor_oracle(self, case):
        if case in EDGE_CASES:
            mats = EDGE_CASES[case]
        else:
            rng = random.Random(10 + case)
            mats = [random_unipoly_matrix(rng, case, 2) for _ in range(5)]
        for mat in mats:
            assert char_poly(mat) == cofactor_char_poly(mat)

    @given(unipoly_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_oracle_on_drawn_matrices(self, mat):
        assert char_poly(mat) == cofactor_char_poly(mat)

    def test_is_one_packed_determinant(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(linalg, "_det_unipoly", counting("_det_unipoly", linalg._det_unipoly))
        monkeypatch.setattr(linalg, "mat_mul", counting("mat_mul", linalg.mat_mul))
        mat = random_unipoly_matrix(random.Random(5), 4, 2)
        assert char_poly(mat) == cofactor_char_poly(mat)
        assert counts == Counter({"_det_unipoly": 1})

    @pytest.mark.parametrize("case", [2, 3, 4, *EDGE_CASES])
    def test_cayley_hamilton(self, case):
        if case in EDGE_CASES:
            mats = EDGE_CASES[case]
        else:
            mats = [random_unipoly_matrix(random.Random(20 + case), case, 2)]
        for mat in mats:
            n = len(mat)
            cp = char_poly(mat)
            bimat = tuple(tuple(BiPoly.from_unipoly(e) for e in row) for row in mat)
            zero = BiPoly.zero()
            acc = tuple(tuple(zero for _ in range(n)) for _ in range(n))
            # Horner in the matrix argument
            for k in range(cp.t_degree, -1, -1):
                acc = mat_mul(acc, bimat)
                c = BiPoly.from_unipoly(cp.tcoeff(k))
                acc = tuple(
                    tuple(acc[i][j] + (c if i == j else zero) for j in range(n))
                    for i in range(n)
                )
            assert mat_is_zero(acc)

    def test_principal_minor_identity(self):
        # coefficient of t^(r-k) is (-1)^k * sum of principal k x k minors
        rng = random.Random(3)
        for n in (2, 3, 4):
            mat = random_unipoly_matrix(rng, n, 1)
            cp = char_poly(mat)
            from itertools import combinations

            for k in range(1, n + 1):
                total = UniPoly.zero()
                for subset in combinations(range(n), k):
                    sub = [[mat[i][j] for j in subset] for i in subset]
                    total = total + _poly_det(sub)
                expected = total if k % 2 == 0 else -total
                assert cp.tcoeff(n - k) == expected


def _poly_det(m):
    if len(m) == 1:
        return m[0][0]
    total = UniPoly.zero()
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


class TestGeneralizedEigenspace:
    def test_nilpotent_full_space(self):
        mat = ((F(0), F(1)), (F(0), F(0)))
        assert len(generalized_eigenspace(mat, F(0))) == 2

    def test_diagonal(self):
        mat = ((F(1), F(0)), (F(0), F(2)))
        basis = generalized_eigenspace(mat, F(1))
        assert basis == [(F(1), F(0))]

    def test_swap_matrix(self):
        mat = ((F(0), F(1)), (F(1), F(0)))
        basis = generalized_eigenspace(mat, F(1))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == v[1] != 0

    def test_not_an_eigenvalue(self):
        mat = ((F(1), F(0)), (F(0), F(1)))
        assert generalized_eigenspace(mat, F(5)) == []

    def test_dimensions_sum_to_rank(self):
        rng = random.Random(11)
        for n in (2, 3):
            for _ in range(8):
                mat = tuple(
                    tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
                )
                poly_mat = tuple(tuple(UniPoly.constant(e) for e in row) for row in mat)
                cp = char_poly(poly_mat)
                spec = UniPoly(tuple(c.coeff(0) for c in cp.tcoeffs))
                _, factors = factor_rationals(spec)
                total = 0
                for minimal, mult in factors:
                    field = NumberField(minimal, trusted=True)
                    basis = generalized_eigenspace(mat, field.generator())
                    total += len(basis) * minimal.degree
                assert total == n


class TestSemisimplePart:
    def test_poly_at_matrix_is_cayley_hamilton(self):
        mat = ((F(1), F(2), F(0)), (F(-1), F(0), F(3)), (F(2), F(1), F(1)))
        chi = char_poly(tuple(tuple(UniPoly.constant(e) for e in row) for row in mat))
        spec = UniPoly(tuple(c.coeff(0) for c in chi.tcoeffs))
        assert mat_is_zero(poly_at_matrix(spec, mat))
        assert poly_at_matrix(UniPoly((3,)), mat) == tuple(
            tuple(F(3) if i == j else F(0) for j in range(3)) for i in range(3)
        )

    def test_quadratic_jordan_block(self):
        # [[C, I], [0, C]] with C the companion of t^2 - 2: S = diag(C, C)
        mat = (
            (F(0), F(2), F(1), F(0)),
            (F(1), F(0), F(0), F(1)),
            (F(0), F(0), F(0), F(2)),
            (F(0), F(0), F(1), F(0)),
        )
        expected = (
            (F(0), F(2), F(0), F(0)),
            (F(1), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(2)),
            (F(0), F(0), F(1), F(0)),
        )
        assert semisimple_part(mat, UniPoly((-2, 0, 1))) == expected

    def test_semisimple_matrix_is_its_own_part(self):
        mat = ((F(0), F(2)), (F(1), F(0)))
        assert semisimple_part(mat, UniPoly((-2, 0, 1))) == mat

    def test_decomposition_of_random_matrices(self):
        # conjugates of Jordan matrices with repeated eigenvalues 0, 1, 2
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(2, 5)
            jordan = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                jordan[i][i] = F(rng.choice((0, 1, 2)))
                if i and jordan[i][i] == jordan[i - 1][i - 1]:
                    jordan[i - 1][i] = F(rng.randint(0, 1))
            lower = [[F(int(i == j)) if j >= i else F(rng.randint(-1, 1)) for j in range(n)]
                     for i in range(n)]
            p = mat_mul(lower, tuple(zip(*lower)))
            identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
            mat = mat_mul(mat_mul(p, jordan), solve_right(p, identity, F(1)))
            q = UniPoly((0, 1)) * UniPoly((-1, 1)) * UniPoly((-2, 1))
            s = semisimple_part(mat, q)
            assert mat_is_zero(poly_at_matrix(q, s))
            assert mat_eq(mat_mul(s, mat), mat_mul(mat, s))
            nilpotent = tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(mat, s))
            assert nilpotency_test(nilpotent)

    def test_eigenvalue_off_q_is_refused(self):
        # 0 is no root of t^2 - 2, and q'(0) = 0 stops the step
        with pytest.raises(ValidationError):
            semisimple_part(((F(0), F(0)), (F(0), F(0))), UniPoly((-2, 0, 1)))


class TestNilpotency:
    def test_upper_triangular(self):
        assert nilpotency_test(((F(0), F(1)), (F(0), F(0))))

    def test_identity(self):
        assert not nilpotency_test(((F(1), F(0)), (F(0), F(1))))

    def test_rank_one_square_zero(self):
        assert nilpotency_test(((F(1), F(-1)), (F(1), F(-1))))


class TestSolvers:
    def test_kernel_of_rank_one(self):
        mat = ((F(1), F(2), F(3)),)
        basis = kernel_basis(mat, F(1))
        assert len(basis) == 2
        for v in basis:
            assert sum(c * x for c, x in zip(mat[0], v)) == 0

    def test_solve_right_consistency(self):
        a = ((F(1), F(1)), (F(0), F(1)))
        b = ((F(3),), (F(2),))
        x = solve_right(a, b, F(1))
        assert mat_eq(mat_mul(a, x), b)

    def test_solve_right_inconsistent(self):
        a = ((F(0), F(1)), (F(0), F(0)))
        b = ((F(0),), (F(1),))
        assert solve_right(a, b, F(1)) is None
