import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from xorgames import intlinalg
from xorgames.decider import incidence_matrix
from xorgames.games import generate_random_game
from xorgames.intlinalg import (
    IntMatrix,
    SmithDecomposition,
    _check_decomposition,
    integer_kernel_basis,
    smith_normal_form,
    solve_mod2_over_rationals,
)


def _identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def det(m: IntMatrix) -> Fraction:
    """Fraction Gaussian elimination; plenty for the sizes tested here."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.data]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            d = -d
        d *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                t = a[r][col] * inv
                a[r] = [x - t * y for x, y in zip(a[r], a[col])]
    return d


def random_matrix(rng, max_dim=12, bound=9) -> IntMatrix:
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def dense_matrix(seed) -> IntMatrix:
    rng = random.Random(seed)
    rows, cols = rng.randrange(6, 13), rng.randrange(6, 13)
    return IntMatrix.from_rows(
        [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
    )


def incidence_transpose(*args) -> IntMatrix:
    return incidence_matrix(generate_random_game(*args)).transpose()


# sha256 of repr((U, D, V)) as the original elimination produced them. Every
# witness, phase table and certificate byte derives from these transforms,
# so a faster elimination must reproduce them bit for bit, not merely give
# another valid decomposition.
GOLDEN_SNF = [
    (lambda: dense_matrix(1), "e391c4c673b9369095cd7107629c5f509b968d6fb515c0e806ea721c7887f5ce"),
    (lambda: dense_matrix(2), "e55ccf9840b7902b99e323ec8a67ce5103ee0aabb275784ff4af1d9db6368174"),
    (lambda: dense_matrix(3), "b75e137201a8ce89477ff60db4cdf2c4a08b5f824b37459d8f9b1bdb25c81b82"),
    (lambda: dense_matrix(4), "0ac2135cffa31f78ecc195ac4f0fdf9a3669080636c65de00c4f4007ebfa978e"),
    (lambda: incidence_transpose(4, 10, 40, 0), "44e84db8426ff94c8831bd43174ad8ae92184a974b22e805ab84d4b4ebb8c92e"),
    (lambda: incidence_transpose(3, 12, 60, 1), "daac74e3435ee7c92f9eb7bee7191e6823daeec9c18fc1827b68b5b626e34269"),
]


@pytest.mark.parametrize("make, expected", GOLDEN_SNF)
def test_snf_transforms_are_bit_identical(make, expected):
    dec = smith_normal_form(make())
    got = repr((dec.u.data, dec.d.data, dec.v.data)).encode()
    assert hashlib.sha256(got).hexdigest() == expected


def _bump(m: IntMatrix, i: int, j: int) -> IntMatrix:
    rows = [list(row) for row in m.data]
    rows[i][j] += 1
    return IntMatrix.from_rows(rows)


# Nonsingular, so U·A and A·V have no zero row or column: changing any one
# entry of U, V or D must change one side of U·A·V == D.
CHECKED = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
POSITIONS = [(i, j) for i in range(3) for j in range(3)]


@pytest.mark.parametrize("i, j", POSITIONS)
def test_check_rejects_a_changed_transform_entry(i, j):
    dec = smith_normal_form(CHECKED)
    assert dec.diagonal == (2, 6, 12)
    for bad in (
        SmithDecomposition(u=_bump(dec.u, i, j), d=dec.d, v=dec.v),
        SmithDecomposition(u=dec.u, d=dec.d, v=_bump(dec.v, i, j)),
    ):
        with pytest.raises(AssertionError, match="U\\*A\\*V == D"):
            _check_decomposition(CHECKED, bad)


@pytest.mark.parametrize("i, j", [(i, j) for i, j in POSITIONS if i != j])
def test_check_rejects_an_off_diagonal_entry_of_d(i, j):
    dec = smith_normal_form(CHECKED)
    bad = SmithDecomposition(u=dec.u, d=_bump(dec.d, i, j), v=dec.v)
    with pytest.raises(AssertionError):
        _check_decomposition(CHECKED, bad)


def test_check_keeps_the_chain_and_sign_conditions():
    # Both decompositions satisfy U·A·V == D exactly; only the shape of D
    # is wrong.
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    ident = _identity(2)
    with pytest.raises(AssertionError, match="divisibility"):
        _check_decomposition(a, SmithDecomposition(u=ident, d=a, v=ident))
    neg = IntMatrix.from_rows([[-1, 0], [0, 1]])
    dec = smith_normal_form(a)
    flipped = SmithDecomposition(u=neg.mul(dec.u), d=neg.mul(dec.d), v=dec.v)
    with pytest.raises(AssertionError, match="negative"):
        _check_decomposition(a, flipped)


def test_kernel_check_rejects_any_corrupted_vector(monkeypatch):
    # Kernel of [1 1 1 1] has three basis vectors (columns 1..3 of V); a
    # wrong last vector must be caught as surely as a wrong first one.
    a = IntMatrix.from_rows([[1, 1, 1, 1]])
    good = smith_normal_form(a)
    assert len(integer_kernel_basis(a)) == 3
    for col in (1, 2, 3):
        bad = SmithDecomposition(u=good.u, d=good.d, v=_bump(good.v, 0, col))
        monkeypatch.setattr(intlinalg, "smith_normal_form", lambda m, bad=bad: bad)
        with pytest.raises(AssertionError, match="a·v = 0"):
            integer_kernel_basis(a)


def _sympy_factors(a: IntMatrix):
    # sympy is a test-only reference; without it only these two tests skip.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    return tuple(abs(int(x)) for x in invariant_factors(sympy.Matrix(a.data)))


def test_snf_diagonal_matches_sympy_on_random_matrices():
    rng = random.Random(61)
    for _ in range(150):
        a = random_matrix(rng, max_dim=8, bound=20)
        assert smith_normal_form(a).diagonal == _sympy_factors(a), a


def test_snf_diagonal_matches_sympy_on_incidence_matrices():
    for seed in range(12):
        players = 3 + seed % 2
        b = incidence_matrix(generate_random_game(players, 4 + seed % 5, 6 + 2 * seed, seed))
        for a in (b, b.transpose()):
            assert smith_normal_form(a).diagonal == _sympy_factors(a), (seed, a)


def test_snf_zero_matrix():
    zeros = IntMatrix.from_rows([[0, 0]] * 3)
    dec = smith_normal_form(zeros)
    assert dec.d == zeros
    assert dec.u == _identity(3)
    assert dec.v == _identity(2)


def test_snf_identity():
    dec = smith_normal_form(_identity(4))
    assert dec.d == _identity(4)


def test_snf_invariant_factors():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    dec = smith_normal_form(a)
    assert dec.diagonal == (1, 6)
    assert dec.u.mul(a).mul(dec.v) == dec.d


def test_snf_random_decomposition_identity():
    rng = random.Random(41)
    for _ in range(200):
        a = random_matrix(rng, max_dim=6)
        dec = smith_normal_form(a)
        assert dec.u.mul(a).mul(dec.v) == dec.d
        assert abs(det(dec.u)) == 1
        assert abs(det(dec.v)) == 1
        diag = dec.diagonal
        for x, y in zip(diag, diag[1:]):
            assert (x == 0) <= (y == 0)
            if x:
                assert y % x == 0


def test_snf_matches_determinantal_divisors():
    # Independent oracle: the product of the first k invariant factors
    # equals the gcd of all k x k minors.
    from itertools import combinations
    from math import gcd

    def minor_gcd(a: IntMatrix, k: int) -> int:
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows(
                    [[a.data[i][j] for j in cols] for i in rows]
                )
                g = gcd(g, int(det(sub)))
        return g

    rng = random.Random(59)
    for _ in range(60):
        a = random_matrix(rng, max_dim=4, bound=6)
        diag = smith_normal_form(a).diagonal
        prod = 1
        for k in range(1, min(a.rows, a.cols) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minor_gcd(a, k)


def test_kernel_basis_examples():
    basis = integer_kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    assert basis[0] in ((1, -1), (-1, 1))
    assert integer_kernel_basis(_identity(3)) == []


def test_kernel_basis_against_bounded_enumeration():
    # Every small-coordinate kernel vector must be an integer combination of
    # the returned basis: solve the combination over the rationals and check
    # integrality.
    rng = random.Random(43)
    for _ in range(40):
        a = random_matrix(rng, max_dim=3, bound=2)
        basis = integer_kernel_basis(a)
        for vec in product(range(-3, 4), repeat=a.cols):
            if a.mulvec(vec) != (0,) * a.rows:
                continue
            assert _in_lattice(vec, basis), (a, vec, basis)


def _in_lattice(vec, basis) -> bool:
    if not basis:
        return all(x == 0 for x in vec)
    rows = [[Fraction(x) for x in b] for b in basis]
    target = [Fraction(x) for x in vec]
    coeffs = []
    # basis vectors are echelon-izable; solve by least-squares-free Gaussian
    # elimination on the stacked system.
    cols = len(vec)
    mat = [[rows[i][j] for i in range(len(rows))] for j in range(cols)]
    rhs = list(target)
    pivot_rows = []
    col = 0
    for var in range(len(rows)):
        row = next(
            (r for r in range(cols) if mat[r][var] and r not in pivot_rows), None
        )
        if row is None:
            coeffs.append(None)
            continue
        pivot_rows.append(row)
        inv = 1 / mat[row][var]
        for r in range(cols):
            if r != row and mat[r][var]:
                t = mat[r][var] * inv
                for v2 in range(len(rows)):
                    mat[r][v2] -= t * mat[row][v2]
                rhs[r] -= t * rhs[row]
        coeffs.append((row, inv))
    solution = [Fraction(0)] * len(rows)
    for var, info in enumerate(coeffs):
        if info is not None:
            row, inv = info
            solution[var] = rhs[row] * inv
    residual = [
        sum(solution[i] * rows[i][j] for i in range(len(rows))) - target[j]
        for j in range(cols)
    ]
    if any(residual):
        return False
    return all(c.denominator == 1 for c in solution)


def test_mod2_single_equation():
    out = solve_mod2_over_rationals(IntMatrix.from_rows([[1, 1, 1]]), [1])
    assert out.solution is not None and out.obstruction is None


def test_mod2_contradictory_rows():
    out = solve_mod2_over_rationals(IntMatrix.from_rows([[1, 0], [1, 0]]), [0, 1])
    assert out.solution is None
    assert out.obstruction in ((1, -1), (-1, 1))


def test_mod2_needs_half_integers():
    # Incidence of {(1,1,1|1),(1,2,2|0),(2,1,2|0),(2,2,1|0)}: solvable over
    # the rationals with denominator 2, unsolvable over GF(2) alone.
    b = IntMatrix.from_rows(
        [
            [1, 0, 1, 0, 1, 0],
            [1, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1],
            [0, 1, 0, 1, 1, 0],
        ]
    )
    out = solve_mod2_over_rationals(b, [1, 0, 0, 0])
    assert out.solution is not None
    assert max(x.denominator for x in out.solution) == 2
    assert integer_kernel_basis(b.transpose()) == []


def test_mod2_solution_reduced_range():
    rng = random.Random(47)
    for _ in range(100):
        b = random_matrix(rng, max_dim=5, bound=3)
        s = [rng.randrange(2) for _ in range(b.rows)]
        out = solve_mod2_over_rationals(b, s)
        if out.solution is not None:
            assert all(0 <= x < 2 for x in out.solution)


def test_mod2_alternative_exclusivity():
    # The solver asserts its own branch exactly; here we cross-check against
    # the independent kernel route: an obstruction exists iff some kernel
    # vector of the transpose has odd pairing with s.
    rng = random.Random(53)
    for _ in range(500):
        b = random_matrix(rng, max_dim=5, bound=2)
        s = [rng.randrange(2) for _ in range(b.rows)]
        out = solve_mod2_over_rationals(b, s)
        kernel = integer_kernel_basis(b.transpose())
        kernel_odd = any(
            sum(u * x for u, x in zip(vec, s)) % 2 == 1 for vec in kernel
        )
        assert (out.obstruction is not None) == kernel_odd
        assert (out.solution is None) == kernel_odd


def test_mod2_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_mod2_over_rationals(IntMatrix.from_rows([[1, 1]]), [1, 0])


def naive_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix(
        tuple(
            tuple(sum(a.data[i][k] * b.data[k][j] for k in range(a.cols)) for j in range(b.cols))
            for i in range(a.rows)
        )
    )


def sparse_random(rng, rows, cols, zero_frac, bits):
    return IntMatrix.from_rows(
        [
            [0 if rng.random() < zero_frac else rng.choice((-1, 1)) * rng.getrandbits(bits)
             for _ in range(cols)]
            for _ in range(rows)
        ]
    )


@pytest.mark.parametrize("zero_frac,bits", [(0.0, 6), (0.5, 6), (0.92, 6), (0.97, 300), (0.3, 300)])
def test_mul_matches_naive_product(zero_frac, bits):
    rng = random.Random(int(zero_frac * 100) + bits)
    for _ in range(25):
        n, k, p = (rng.randrange(1, 14) for _ in range(3))
        a = sparse_random(rng, n, k, zero_frac, bits)
        b = sparse_random(rng, k, p, zero_frac, bits)
        assert a.mul(b) == naive_product(a, b)


def test_mul_with_zero_rows_columns_and_empty_shapes():
    rng = random.Random(83)
    a = sparse_random(rng, 5, 4, 0.3, 40)
    b = sparse_random(rng, 4, 6, 0.3, 40)
    zero_row = IntMatrix(a.data[:2] + ((0,) * 4,) + a.data[3:])
    zero_col = IntMatrix(tuple(row[:2] + (0,) + row[3:] for row in b.data))
    for x, y in ((zero_row, b), (a, zero_col), (IntMatrix.from_rows([[0] * 4] * 5), b)):
        assert x.mul(y) == naive_product(x, y)
    n_by_0 = IntMatrix(((),) * 3)
    assert n_by_0.mul(IntMatrix(())) == IntMatrix(((),) * 3)
    assert a.mul(IntMatrix(((),) * 4)) == IntMatrix(((),) * 5)
    assert IntMatrix(()).mul(IntMatrix(())) == IntMatrix(())
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.mul(a)
    with pytest.raises(ValueError, match="dimension mismatch"):
        IntMatrix(()).mul(b)


def dense_zero_free_directions(phi, kernel):
    """Reference: every kernel vector as a dense Fraction row, each reduced
    against the earlier rows in order. The solver's output must not depend
    on which reduction runs."""
    phi = list(phi)
    rows = [[Fraction(x) for x in vec] for vec in kernel]
    pivots = []
    for row in rows:
        for prev_pivot, prev_row in pivots:
            if row[prev_pivot]:
                t = row[prev_pivot] / prev_row[prev_pivot]
                row[:] = [x - t * y for x, y in zip(row, prev_row)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((lead, row))
    for pivot, row in pivots:
        if phi[pivot]:
            t = phi[pivot] / row[pivot]
            phi = [x - t * y for x, y in zip(phi, row)]
    return phi


def planted_incidence(rng, players, alphabet, num_clauses):
    """Incidence matrix and parities of clauses drawn under a planted
    half-integer phase table, so the solution may need denominator 2.
    Question 0 has phase 0 for everyone, so some clause is always drawable."""
    phi = [[Fraction(rng.randrange(4), 2) if q else Fraction(0) for q in range(alphabet)]
           for _ in range(players)]
    rows, parities = [], []
    while len(rows) < num_clauses:
        qs = [rng.randrange(alphabet) for _ in range(players)]
        total = sum(phi[a][q] for a, q in enumerate(qs))
        if total.denominator == 1:
            row = [0] * (players * alphabet)
            for a, q in enumerate(qs):
                row[a * alphabet + q] = 1
            rows.append(row)
            parities.append(total.numerator % 2)
    return IntMatrix.from_rows(rows), parities


def test_mod2_solution_matches_dense_reduction(monkeypatch):
    rng = random.Random(89)
    cases = [planted_incidence(rng, rng.randrange(2, 5), rng.randrange(1, 7), rng.randrange(1, 15))
             for _ in range(80)]
    # One clause over a large alphabet: almost every column is a free direction.
    cases += [planted_incidence(rng, 3, 60, 1), planted_incidence(rng, 2, 90, 2)]
    cases += [(random_matrix(rng, max_dim=6, bound=3), None) for _ in range(60)]
    half_integral = 0
    for b, s in cases:
        s = s if s is not None else [rng.randrange(2) for _ in range(b.rows)]
        sparse = solve_mod2_over_rationals(b, s)
        with monkeypatch.context() as m:
            m.setattr(intlinalg, "_zero_free_directions", dense_zero_free_directions)
            assert solve_mod2_over_rationals(b, s) == sparse
        if sparse.solution and any(x.denominator != 1 for x in sparse.solution):
            half_integral += 1
    assert half_integral >= 10
