import hashlib
import operator
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest

from xorgames import intlinalg
from xorgames.decider import incidence_matrix
from xorgames.games import generate_random_game, parse_text
from xorgames.intlinalg import (
    ColumnOperations,
    IntMatrix,
    RowOperations,
    SmithDecomposition,
    _best_step,
    _check_decomposition,
    congruent_mod2,
    l1_descent,
    parity_kernel_basis,
    smith_normal_form,
    solve_mod2_over_rationals,
)

from helpers import DenseMatrix, integer_kernel_basis, matrix, odd_kernel_basis


def _identity(n: int) -> DenseMatrix:
    return DenseMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


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
    return matrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def dense_matrix(seed) -> IntMatrix:
    rng = random.Random(seed)
    rows, cols = rng.randrange(6, 13), rng.randrange(6, 13)
    return matrix(
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


def _bump(m, i: int, j: int) -> DenseMatrix:
    """m, a matrix or an operation log, as a dense matrix with entry (i, j)
    one larger."""
    rows = [list(row) for row in m.data]
    rows[i][j] += 1
    return DenseMatrix(tuple(map(tuple, rows)))


# Nonsingular, so U·A and A·V have no zero row or column: changing any one
# entry of U, V or D must change one side of U·A·V == D.
CHECKED = matrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
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


def test_check_rejects_a_d_that_is_not_diagonal():
    # Identity logs make U·A·V == D hold with D = A, so only the diagonal
    # check can reject this D.
    a = matrix([[1, 1], [0, 1]])
    dec = SmithDecomposition(u=RowOperations(2, []), d=a, v=ColumnOperations(2, []))
    with pytest.raises(AssertionError, match="D not diagonal"):
        _check_decomposition(a, dec)


def test_check_keeps_the_chain_and_sign_conditions():
    # Both decompositions satisfy U·A·V == D exactly; only the shape of D
    # is wrong.
    a = matrix([[2, 0], [0, 3]])
    ident = _identity(2)
    with pytest.raises(AssertionError, match="divisibility"):
        _check_decomposition(a, SmithDecomposition(u=ident, d=a, v=ident))
    neg = matrix([[-1, 0], [0, 1]])
    dec = smith_normal_form(a)
    flipped = SmithDecomposition(u=neg.mul(dec.u), d=neg.mul(dec.d), v=dec.v)
    with pytest.raises(AssertionError, match="negative"):
        _check_decomposition(a, flipped)


def test_kernel_check_rejects_any_corrupted_vector(monkeypatch):
    # Kernel of [1 1 1 1] has three basis vectors (columns 1..3 of V); a
    # wrong last vector must be caught as surely as a wrong first one.
    a = matrix([[1, 1, 1, 1]])
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
    zeros = matrix([[0, 0]] * 3)
    dec = smith_normal_form(zeros)
    assert dec.d == zeros
    assert dec.u.data == _identity(3).data
    assert dec.v.data == _identity(2).data


def test_snf_identity():
    dec = smith_normal_form(_identity(4))
    assert dec.d == _identity(4)


def test_snf_invariant_factors():
    a = matrix([[2, 0], [0, 3]])
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
                sub = matrix(
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
    basis = integer_kernel_basis(matrix([[1, 1]]))
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
        for vec in basis:
            # Columns of a unimodular V: primitive, up to the sign fixed here.
            assert reduce(gcd, vec) == 1
            assert next(x for x in vec if x) > 0
        for vec in product(range(-3, 4), repeat=a.cols):
            if DenseMatrix(a.data).mulvec(vec) != (0,) * a.rows:
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
    out = solve_mod2_over_rationals(matrix([[1, 1, 1]]), [1])
    assert out is not None


def test_mod2_contradictory_rows():
    out = solve_mod2_over_rationals(matrix([[1, 0], [1, 0]]), [0, 1])
    assert out is None


def test_mod2_needs_half_integers():
    # Incidence of {(1,1,1|1),(1,2,2|0),(2,1,2|0),(2,2,1|0)}: solvable over
    # the rationals with denominator 2, unsolvable over GF(2) alone.
    b = matrix(
        [
            [1, 0, 1, 0, 1, 0],
            [1, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1],
            [0, 1, 0, 1, 1, 0],
        ]
    )
    out = solve_mod2_over_rationals(b, [1, 0, 0, 0])
    assert out is not None
    assert max(x.denominator for x in out) == 2
    assert integer_kernel_basis(b.transpose()) == []


def test_mod2_solution_reduced_range():
    rng = random.Random(47)
    for _ in range(100):
        b = random_matrix(rng, max_dim=5, bound=3)
        s = [rng.randrange(2) for _ in range(b.rows)]
        out = solve_mod2_over_rationals(b, s)
        if out is not None:
            assert all(0 <= x < 2 for x in out)


def test_mod2_alternative_exclusivity():
    # The solver checks its solution exactly; here we cross-check its None
    # against the independent kernel route: no solution exists iff some
    # kernel vector of the transpose has odd pairing with s.
    rng = random.Random(53)
    for _ in range(500):
        b = random_matrix(rng, max_dim=5, bound=2)
        s = [rng.randrange(2) for _ in range(b.rows)]
        out = solve_mod2_over_rationals(b, s)
        kernel = integer_kernel_basis(b.transpose())
        kernel_odd = any(
            sum(u * x for u, x in zip(vec, s)) % 2 == 1 for vec in kernel
        )
        assert (out is None) == kernel_odd


def test_mod2_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_mod2_over_rationals(matrix([[1, 1]]), [1, 0])


def naive_product(a: IntMatrix, b: IntMatrix) -> DenseMatrix:
    return DenseMatrix(
        tuple(
            tuple(sum(a.data[i][k] * b.data[k][j] for k in range(a.cols)) for j in range(b.cols))
            for i in range(a.rows)
        )
    )


def sparse_random(rng, rows, cols, zero_frac, bits):
    return matrix(
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
    for x, y in ((zero_row, b), (a, zero_col), (matrix([[0] * 4] * 5), b)):
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
    rows = [[Fraction(vec.get(k, 0)) for k in range(len(phi))] for vec in kernel]
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
    return matrix(rows), parities


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
        if sparse and any(x.denominator != 1 for x in sparse):
            half_integral += 1
    assert half_integral >= 10


def _elementary(op, n: int) -> IntMatrix:
    """The n×n matrix of one logged row operation, built entry by entry."""
    kind, t, arg = op
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "swap":
        rows[t], rows[arg] = rows[arg], rows[t]
    elif kind == "sub":
        for i, q in arg:
            rows[i][t] = -q
    elif kind == "fold":
        rows[t][arg] = 1
    else:
        assert kind == "flip"
        rows[t][t] = -1
    return matrix(rows)


def _log_shapes():
    """The matrices the row-operation tests decompose: seeded random shapes,
    a fold ([[2, 0], [0, 3]]: the unit pivot 2 does not divide 3), and the
    shapes with no rows or no columns."""
    rng = random.Random(97)
    cases = [random_matrix(rng, max_dim=8, bound=rng.choice((2, 9, 40))) for _ in range(200)]
    cases += [matrix([[2, 0], [0, 3]]), matrix([[0, 0]] * 3)]
    cases += [IntMatrix(()), IntMatrix(((),) * 3)]
    return rng, cases


def test_row_operations_match_the_dense_transform():
    rng, cases = _log_shapes()
    kinds = set()
    for a in cases:
        u = smith_normal_form(a).u
        assert isinstance(u, RowOperations)
        kinds.update(op[0] for op in u.log)
        # data is the log multiplied out, one elementary matrix at a time.
        dense = _identity(a.rows)
        for op in u.log:
            dense = naive_product(_elementary(op, a.rows), dense)
        assert u.data == dense.data
        assert (u.rows, u.cols) == (a.rows, a.rows)
        for cols in (0, 1, rng.randrange(2, 7)):
            b = sparse_random(rng, a.rows, cols, 0.4, 70) if a.rows else IntMatrix(())
            assert u.mul(b) == dense.mul(b)
        vec = tuple(rng.randint(-9, 9) for _ in range(a.rows))
        assert u.mulvec(vec) == dense.mulvec(vec)
    assert kinds == {"swap", "sub", "fold", "flip"}


def test_row_operations_reject_mismatched_shapes():
    u = smith_normal_form(CHECKED).u
    with pytest.raises(ValueError, match="dimension mismatch"):
        u.mul(matrix([[1, 2]] * 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        u.mulvec((1, 2))


# Nonsingular, and its elimination logs every kind of row operation.
EVERY_KIND = matrix([[-2, -4, -4], [-1, -1, -2], [-2, 0, 1]])


def _corrupted_logs(log):
    """Each multiplier changed by one, each swap dropped, each sign flip
    dropped: one corruption per log."""
    for pos, (kind, t, arg) in enumerate(log):
        if kind == "sub":
            for k, (i, q) in enumerate(arg):
                subs = arg[:k] + [(i, q + 1)] + arg[k + 1:]
                yield log[:pos] + [(kind, t, subs)] + log[pos + 1:]
        elif kind in ("swap", "flip"):
            yield log[:pos] + log[pos + 1:]


def test_check_rejects_a_corrupted_row_operation_log():
    dec = smith_normal_form(EVERY_KIND)
    assert {op[0] for op in dec.u.log} == {"swap", "sub", "fold", "flip"}
    bad_logs = list(_corrupted_logs(dec.u.log))
    assert len(bad_logs) >= 8
    for log in bad_logs:
        bad = SmithDecomposition(u=RowOperations(3, log), d=dec.d, v=dec.v)
        with pytest.raises(AssertionError, match="U\\*A\\*V == D"):
            _check_decomposition(EVERY_KIND, bad)


def _column_elementary(op, n: int) -> IntMatrix:
    """The n×n matrix of one logged column operation, built entry by entry."""
    kind, t, arg = op
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "swap":
        rows[t], rows[arg] = rows[arg], rows[t]
    else:
        assert kind == "sub"
        for j, q in arg:
            rows[t][j] = -q
    return matrix(rows)


def test_column_operations_match_the_dense_transform():
    # An IntMatrix cannot have zero rows and three columns (its width is
    # read off its first row), so the empty shapes are the 0×0 and 3×0
    # matrices of _log_shapes and the empty selection of columns.
    rng, cases = _log_shapes()
    kinds = set()
    for a in cases:
        v = smith_normal_form(a).v
        assert isinstance(v, ColumnOperations)
        kinds.update(op[0] for op in v.log)
        # data is the log multiplied out, one elementary matrix at a time.
        dense = _identity(a.cols)
        for op in v.log:
            dense = naive_product(dense, _column_elementary(op, a.cols))
        assert v.data == dense.data
        assert (v.rows, v.cols) == (a.cols, a.cols)
        # a·V, and sᵀ·V for a 0/1 row s.
        parity = IntMatrix((tuple(rng.randrange(2) for _ in range(a.cols)),))
        assert parity.mul(v) == naive_product(parity, dense)
        for rows in (1, rng.randrange(2, 7)):
            x = sparse_random(rng, rows, a.cols, 0.4, 70) if a.cols else IntMatrix(((),) * rows)
            assert x.mul(v) == naive_product(x, dense)
        # A random vector, the zero vector and every unit vector: V·x
        # replays x as a one-column block whose zero rows stay None.
        vecs = [tuple(rng.randint(-9, 9) for _ in range(a.cols)), (0,) * a.cols]
        vecs += [tuple(int(i == j) for i in range(a.cols)) for j in range(a.cols)]
        for vec in vecs:
            assert v.mulvec(vec) == dense.mulvec(vec)
        shuffled = rng.sample(range(a.cols), rng.randrange(a.cols + 1))
        for js in (range(a.cols), shuffled, shuffled[::-1], []):
            assert list(v.columns(js)) == list(dense.columns(js))
    assert kinds == {"swap", "sub"}


def test_kernel_columns_are_read_one_at_a_time():
    # One clause over an alphabet of 300: b is 1 × 900 and its phase solve
    # reads 899 kernel columns of 900 entries, almost all of them unit
    # vectors. Building them all at once, with their unit rows as lists,
    # takes 12.6 MiB; read one at a time, the solve needs under 1 MiB.
    b = incidence_matrix(parse_text("1 1 300 0"))
    tracemalloc.start()
    try:
        phi = solve_mod2_over_rationals(b, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi == (Fraction(0),) * b.cols
    assert peak < 3 * 2**20


def test_column_operations_reject_mismatched_shapes():
    v = smith_normal_form(CHECKED).v
    with pytest.raises(ValueError, match="dimension mismatch"):
        matrix([[1, 2]] * 2).mul(v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        v.mulvec((1, 2))


def test_check_rejects_a_corrupted_column_operation_log():
    dec = smith_normal_form(CHECKED)
    assert {op[0] for op in dec.v.log} == {"swap", "sub"}
    bad_logs = list(_corrupted_logs(dec.v.log))
    assert len(bad_logs) >= 5
    for log in bad_logs:
        bad = SmithDecomposition(u=dec.u, d=dec.d, v=ColumnOperations(3, log))
        with pytest.raises(AssertionError, match="U\\*A\\*V == D"):
            _check_decomposition(CHECKED, bad)


def _odd_by_filtering(a: IntMatrix, s):
    """Reference: the whole kernel basis, kept where it pairs oddly with s."""
    return [vec for vec in integer_kernel_basis(a) if sum(z * x for z, x in zip(vec, s)) % 2]


def test_odd_kernel_basis_matches_filtering_the_whole_basis():
    shapes = [
        (players, n, m, seed)
        for seed in range(8)
        for players in (2, 3, 4)
        for n, m in ((2, 3), (3, 9), (4, 16), (5, 25))
    ]
    shapes += [(4, 40, 300, seed) for seed in range(4)]
    outcomes = set()
    for shape in shapes:
        game = generate_random_game(*shape)
        a = incidence_matrix(game).transpose()
        s = [c.parity for c in game.clauses]
        expected = _odd_by_filtering(a, s)
        assert odd_kernel_basis(a, s) == expected, shape
        outcomes.add(bool(expected))
    assert outcomes == {True, False}


def test_even_kernel_basis_matches_filtering_the_whole_basis(monkeypatch):
    # The even vectors are built on request, from the decomposition that
    # gave the odd ones: no second Smith form.
    calls = []
    original = intlinalg.smith_normal_form

    def counted(m):
        calls.append(m)
        return original(m)

    both = 0
    for seed in range(6):
        game = generate_random_game(3, 8, 40, seed)
        a = incidence_matrix(game).transpose()
        s = [c.parity for c in game.clauses]
        calls.clear()
        monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
        odd, even = parity_kernel_basis(a, s)
        built = even()
        monkeypatch.undo()
        assert len(calls) == 1
        whole = integer_kernel_basis(a)
        assert odd == [v for v in whole if sum(map(operator.mul, v, s)) % 2]
        assert built == [v for v in whole if not sum(map(operator.mul, v, s)) % 2]
        both += bool(odd and built)
    assert both >= 3


def test_an_empty_side_of_the_kernel_replays_no_column_operations(monkeypatch):
    # Each game's kernel is the one vector ±(1, -1) over its two clauses,
    # column 1 of V after the rank-1 image: odd in the pair and even in the
    # repeated clause. The empty side comes back without a replay of the V
    # log.
    replays = []
    original = ColumnOperations.columns

    def recorded(self, js):
        js = list(js)
        replays.append(js)
        return original(self, js)

    monkeypatch.setattr(ColumnOperations, "columns", recorded)
    for text, odd_side in (("1 1 1 0\n1 1 1 1", True), ("1 1 1 0\n1 1 1 0", False)):
        game = parse_text(text)
        a = incidence_matrix(game).transpose()
        replays.clear()
        odd, even = parity_kernel_basis(a, [c.parity for c in game.clauses])
        built = even()
        assert len(odd if odd_side else built) == 1
        assert not (built if odd_side else odd)
        assert replays == [[1]]


def _is_nearest_best_step(xs, ds, t) -> bool:
    """Whether t minimises the convex f(t) = Σ|x + t·d| over the integers,
    nearest to 0 among the minimisers: neither neighbour is lower, and the
    neighbour towards 0 is higher."""
    def f(u):
        return sum(abs(x + u * d) for x, d in zip(xs, ds))

    if f(t - 1) < f(t) or f(t + 1) < f(t):
        return False
    return t == 0 or f(t - (1 if t > 0 else -1)) > f(t)


def test_best_step_is_the_nearest_integer_minimiser():
    rng = random.Random(263)
    steps = set()
    for _ in range(400):
        width = rng.randrange(1, 7)
        scale = rng.choice((5, 40, 10**9))
        xs = [rng.randint(-scale, scale) for _ in range(width)]
        ds = [rng.randint(-4, 4) for _ in range(width)]
        t = _best_step(xs, ds)
        assert _is_nearest_best_step(xs, ds, t), (xs, ds, t)
        steps.add((t > 0) - (t < 0))
    assert steps == {-1, 0, 1}


def test_l1_descent_stops_where_no_direction_lowers_the_norm():
    rng = random.Random(269)
    for _ in range(200):
        width = rng.randrange(2, 8)
        count = rng.randrange(1, 4)
        directions = [tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(count)]
        z = tuple(rng.randint(-30, 30) for _ in range(width))
        out = l1_descent(z, directions)
        assert sum(map(abs, out)) <= sum(map(abs, z))
        for d in directions:
            assert _best_step(out, d) == 0
    assert l1_descent((5, 3), [(1, 1)]) == (2, 0)
    assert l1_descent((7, -4, 1), [(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)
    assert l1_descent((1, 1), []) == (1, 1)


def _fraction_congruent(coeffs, values, target) -> bool:
    """Reference: the sum in Fraction arithmetic."""
    total = sum((c * Fraction(x) for c, x in zip(coeffs, values)), Fraction(0))
    return (total - target) % 2 == 0


def test_integer_congruence_matches_fractions():
    rng = random.Random(101)
    denominators = (1, 2, 3, 4, 6, 7, 12, 2**61 - 1, 10**30)
    outcomes = set()
    for _ in range(600):
        width = rng.randrange(0, 6)
        coeffs = [rng.randint(-3, 3) for _ in range(width)]
        values = [Fraction(rng.randint(-40, 40), rng.choice(denominators)) for _ in range(width)]
        if width and coeffs[-1] and rng.random() < 0.6:
            # Close the sum to an integer, so both outcomes occur.
            rest = sum((c * x for c, x in zip(coeffs, values[:-1])), Fraction(0))
            values[-1] = (rng.randint(-5, 5) - rest) / coeffs[-1]
        target = rng.randrange(2)
        terms = [(c * x.numerator, x.denominator) for c, x in zip(coeffs, values) if c]
        expected = _fraction_congruent(coeffs, values, target)
        assert congruent_mod2(terms, target) == expected, (coeffs, values, target)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_solver_check_rejects_a_wrong_phase_vector(monkeypatch):
    # The final b·phi = s (mod 2) check is the integer one: a phase vector
    # off by 1/3 in one coordinate must fail it.
    b = matrix([[1, 0, 1, 0, 1, 0], [1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0]])
    good = solve_mod2_over_rationals(b, [1, 0, 0, 0])
    shifted = (good[0] + Fraction(1, 3),) + good[1:]
    monkeypatch.setattr(intlinalg, "_zero_free_directions", lambda phi, kernel: shifted)
    with pytest.raises(AssertionError, match="b·phi = s"):
        solve_mod2_over_rationals(b, [1, 0, 0, 0])
