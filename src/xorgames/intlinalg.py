"""Exact integer and rational linear algebra.

The package takes from here `smith_normal_form`; `parity_kernel_basis`,
the integer kernel vectors that pair oddly with a parity vector (the
witnesses `decide` chooses from) and, on request, those that pair evenly;
`l1_descent`, which shortens a vector in ℓ1 by integer steps along given
directions (a refutation's witness along the even kernel vectors);
and `solve_mod2_over_rationals`, the canonical rational solution of
b·φ ≡ s (mod 2) (the phase table), checked row by row with
`merp.congruent_mod2`, the exact parity test that `verify` applies too.

Arbitrary-precision integers and Fractions only; no floating point
anywhere in this module. Smith normal form is computed with explicit
elementary row/column operations. Neither transform comes out as a matrix:
U is the log of the row operations (`RowOperations`) and V the log of the
column operations (`ColumnOperations`). Each log is replayed only onto what
it multiplies: U onto A·V in the self-check and onto the right-hand side in
the phase solve; V forward onto the rows of A in the self-check and onto a
parity row, backward onto the phase solve's ψ and onto the unit vectors of
just the kernel columns a caller reads. The decomposition identity is
rechecked before returning. Desk-scale sizes (a few hundred rows/columns)
are the target.

The elimination is tuned without changing its result: the pivot is still
the first entry of smallest absolute value in row-major order and the
sequence of elementary operations is fixed, so U, D and V come out the same
entry for entry. The speed comes from skipping work that cannot change
anything: pivot scans stop at the first unit, all column operations of one
pivot share a single pass over the rows, row operations touch only the
nonzero entries of the pivot row, neither transform is formed as a matrix,
and products multiply only pairs of nonzero entries, skipping the zeros of
both operands (the 0/1 incidence matrices this package decomposes are
sparse, and so is A·V). Each operation is written once: the elimination
applies it through the function that the forward replays of U and V run,
and V·x and the kernel columns share one backward replay of V.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, cycle, repeat

from .merp import congruent_mod2


@dataclass(frozen=True)
class IntMatrix:
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.data}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data))) if self.data else IntMatrix(())

    def mul(self, other: "IntMatrix | ColumnOperations") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if isinstance(other, ColumnOperations):
            return other.premul(self)
        n = other.cols
        # Each row of the right operand is read once, as its nonzero column
        # indices and values; only products of two nonzero entries are formed.
        sparse = [
            (tuple(compress(range(n), orow)), tuple(compress(orow, orow)))
            for orow in other.data
        ]
        out = []
        for row in self.data:
            acc = [0] * n
            for a, (ks, ys) in compress(zip(row, sparse), row):
                for k, y in zip(ks, ys):
                    acc[k] += a * y
            out.append(tuple(acc))
        return IntMatrix(tuple(out))


def _swap_rows(rows, t, i):
    rows[t], rows[i] = rows[i], rows[t]


def _sub_rows(rows, t, pairs):
    """R_i -= q·R_t for each (i, q), touching only the nonzero entries of R_t."""
    nonzeros = [(k, x) for k, x in enumerate(rows[t]) if x]
    for i, q in pairs:
        ri = rows[i]
        for k, y in nonzeros:
            ri[k] -= q * y


def _fold_row(rows, t, f):
    rows[t] = [x + y for x, y in zip(rows[t], rows[f])]


def _flip_row(rows, t, _):
    rows[t] = [-x for x in rows[t]]


def _swap_columns(rows, t, j):
    for r in rows:
        r[t], r[j] = r[j], r[t]


def _sub_columns(rows, t, pairs):
    """C_j -= q·C_t for each (j, q), all in one pass over the rows; a row
    that is zero in column t is left alone."""
    for r in rows:
        x = r[t]
        if x:
            for j, q in pairs:
                r[j] -= q * x


class _OperationLog:
    """A square matrix kept as the log of the elementary operations that
    turn the identity into it, in the order they were applied. Multiplying
    by it replays the log on the other operand, which never forms the matrix
    itself. `_apply` maps each kind of operation to the one function that
    applies it to a list of rows in place."""

    __slots__ = ("rows", "log", "_data")

    def __init__(self, size: int, log):
        self.rows = size
        self.log = log
        self._data = None

    @property
    def cols(self) -> int:
        return self.rows

    def _record(self, rows: list[list[int]], kind: str, t: int, arg):
        """Append one operation to the log and apply it to the rows."""
        self.log.append((kind, t, arg))
        self._apply[kind](rows, t, arg)

    def _replay(self, rows: list[list[int]]) -> list[list[int]]:
        """Apply the log to the rows in place and return them."""
        for kind, t, arg in self.log:
            self._apply[kind](rows, t, arg)
        return rows

    def _replayed_on(self, other: IntMatrix, size: int) -> IntMatrix:
        """The log replayed on a copy of other's rows; size is the dimension
        of other that this matrix meets."""
        if size != self.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(map(tuple, self._replay([list(row) for row in other.data]))))

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The matrix itself: the log replayed on the identity, once. Only
        tests and tracing read it."""
        if self._data is None:
            self._data = tuple(map(tuple, self._replay(_identity_rows(self.rows))))
        return self._data


class RowOperations(_OperationLog):
    """U as the log of its row operations:

    ("swap", t, i)              swap rows t and i
    ("sub", t, [(i, q), ...])   R_i -= q·R_t for each pair (i > t)
    ("fold", t, f)              R_t += R_f
    ("flip", t, None)           R_t = -R_t

    The elimination applies each kind through the one function that U·X
    and U·x run again, forward, on the rows of X and on x.
    """

    __slots__ = ()
    _apply = {"swap": _swap_rows, "sub": _sub_rows, "fold": _fold_row, "flip": _flip_row}

    def mul(self, other: IntMatrix) -> IntMatrix:
        return self._replayed_on(other, other.rows)

    def mulvec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(row[0] for row in self._replay([[x] for x in v]))


class ColumnOperations(_OperationLog):
    """V as the log of its column operations:

    ("swap", t, j)              swap columns t and j
    ("sub", t, [(j, q), ...])   C_j -= q·C_t for each pair (j > t)

    V is the identity times one elementary matrix per operation, so X·V
    replays the log forward on the columns of X, through the functions the
    elimination applied, and V·x and V's columns replay it backward, both
    through `_replay_backward`. `IntMatrix.mul` hands a ColumnOperations
    operand to `premul`.
    """

    __slots__ = ()
    _apply = {"swap": _swap_columns, "sub": _sub_columns}

    def premul(self, other: IntMatrix) -> IntMatrix:
        """other·V."""
        return self._replayed_on(other, other.cols)

    def _replay_backward(self, rows: list, width: int) -> list:
        """V times a block of `width` columns: the log replayed backward on
        the block's rows, in place, each C_j −= q·C_t becoming
        R_t −= q·R_j. A row of the block is None while it is zero, the index
        c while it is the block's c-th unit vector, and a list once it is
        anything else, so an operation whose source row is a unit changes
        one entry, not a whole row."""
        for kind, t, arg in reversed(self.log):
            if kind == "swap":
                rows[t], rows[arg] = rows[arg], rows[t]
                continue
            # R_t -= q·R_j for each pair: one entry per unit source, and all
            # list sources summed into R_t in a single pass.
            target = rows[t]
            qs, sources = [], []
            for j, q in arg:
                source = rows[j]
                if source is None:
                    continue
                if not isinstance(target, list):
                    target = _unit_row(target, width)
                if isinstance(source, list):
                    qs.append(q)
                    sources.append(source)
                else:
                    target[source] -= q
            if sources:
                target = [x - sum(map(operator.mul, qs, ys)) for x, ys in zip(target, zip(*sources))]
            rows[t] = target
        return rows

    def mulvec(self, v):
        """V·v: v as a one-column block, each nonzero entry a list row."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        rows = self._replay_backward([[x] if x else None for x in v], 1)
        return tuple(row[0] if row else 0 for row in rows)

    def columns(self, js) -> Iterator[dict[int, int]]:
        """Columns js of V, in the order given and one at a time, each as the
        {row: entry} dict of its nonzero entries: V times the block of unit
        vectors e_j. Zero and unit rows are never built: a column is read
        off the list rows, plus a 1 where its unit row is."""
        js = list(js)
        width = len(js)
        rows: list = [None] * self.rows
        for c, j in enumerate(js):
            rows[j] = c
        self._replay_backward(rows, width)
        # Each unit vector sits in one row at most: a swap moves it and an
        # operation on its row turns that row into a list.
        unit_row = {c: t for t, c in enumerate(rows) if type(c) is int}
        positions = [t for t, row in enumerate(rows) if isinstance(row, list)]
        block = [rows[t] for t in positions]
        # zip transposes the list rows lazily, one column per step; with no
        # list rows, every column is its unit row alone.
        for c, col in enumerate(zip(*block) if block else [()] * width):
            entries = dict(compress(zip(positions, col), col))
            t = unit_row.get(c)
            if t is not None:
                entries[t] = 1
            yield entries


@dataclass(frozen=True)
class SmithDecomposition:
    """U·A·V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    U and V are the `RowOperations` and `ColumnOperations` logs of the
    elimination that `smith_normal_form` ran.
    """

    u: RowOperations
    d: IntMatrix
    v: ColumnOperations

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.data[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _find_pivot(m, t, rows, cols):
    """First entry of smallest absolute value in the lower-right block,
    scanning row-major. A unit is returned as soon as it is seen: nothing
    smaller can follow it."""
    best = None
    best_abs = 0
    for i in range(t, rows):
        row = m[i]
        if not any(row):
            continue
        for j in range(t, cols):
            x = row[j]
            if x:
                ax = abs(x)
                if ax == 1:
                    return i, j
                if best is None or ax < best_abs:
                    best, best_abs = (i, j), ax
    return best


def _unit_row(c, width: int) -> list[int]:
    """A row of a block that `ColumnOperations._replay_backward` replays on,
    as a list: zero when c is None, else the c-th unit vector."""
    row = [0] * width
    if c is not None:
        row[c] = 1
    return row


def _identity_rows(n: int) -> list[list[int]]:
    """The n×n identity as mutable rows, which a transform's log replays on
    to give the transform itself."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _quotients(entries, p):
    """In one pass over (index, entry) pairs: the (index, entry // p) pairs
    of the nonzero quotients, and whether any entry leaves a remainder."""
    ops, dirty = [], False
    for k, x in entries:
        if x:
            q, rem = divmod(x, p)
            if q:
                ops.append((k, q))
            dirty = dirty or rem != 0
    return ops, dirty


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.data]
    u = RowOperations(rows, [])
    v = ColumnOperations(cols, [])

    for t in range(min(rows, cols)):
        pivot = _find_pivot(m, t, rows, cols)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                u._record(m, "swap", t, i)
            if j != t:
                v._record(m, "swap", t, j)
            p = m[t][t]
            # R_i -= q * R_t for every row below the pivot, then C_j -= q * C_t
            # for every column right of it. Neither changes row t, so every
            # quotient comes from the pivot row and column as they are now.
            subs, row_rest = _quotients(((i, m[i][t]) for i in range(t + 1, rows)), p)
            if subs:
                u._record(m, "sub", t, subs)
            ops, col_rest = _quotients(enumerate(m[t][t + 1:], t + 1), p)
            if ops:
                v._record(m, "sub", t, ops)
            if not (row_rest or col_rest):
                if p == 1 or p == -1:
                    break  # a unit divides the rest of the submatrix
                # Pivot must divide the rest of the submatrix for the chain.
                fixup = next(
                    (
                        i
                        for i in range(t + 1, rows)
                        if any(m[i][j] % p for j in range(t + 1, cols))
                    ),
                    None,
                )
                if fixup is None:
                    break
                # Fold the offending row into row t, then reduce again.
                u._record(m, "fold", t, fixup)
            pivot = _find_pivot(m, t, rows, cols)

    for t in range(min(rows, cols)):
        if m[t][t] < 0:
            u._record(m, "flip", t, None)

    dec = SmithDecomposition(u=u, d=IntMatrix(tuple(map(tuple, m))), v=v)
    _check_decomposition(a, dec)
    return dec


def _check_decomposition(a: IntMatrix, dec: SmithDecomposition):
    # U·(A·V) is the same exact product as (U·A)·V; taking the sparse A
    # first keeps the intermediate sparse too. A V kept as column operations
    # is replayed forward on the rows of A, a U kept as row operations on
    # A·V. Every entry of the product is still compared with D.
    prod = dec.u.mul(a.mul(dec.v))
    if prod != dec.d:
        raise AssertionError("Smith decomposition identity U*A*V == D failed")
    diag = dec.diagonal
    for i, row in enumerate(dec.d.data):
        if any(row[:i]) or any(row[i + 1:]):
            raise AssertionError("D not diagonal")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
    for i, x in enumerate(diag):
        if x < 0:
            raise AssertionError("negative invariant factor")


def _sign_normalised(vec):
    """vec with its first nonzero entry made positive. A column of V needs no
    division by its gcd: V is built from column swaps and integer column
    additions only, so det V = ±1, and the gcd of any column divides it."""
    lead = next((x for x in vec if x), 0)
    return vec if lead >= 0 else tuple(-x for x in vec)


def _kernel_vectors(a: IntMatrix, dec: SmithDecomposition, positions) -> list[tuple[int, ...]]:
    """Kernel basis vectors at the given positions: column rank + p of V for
    each p, sign-normalised, each checked against a·v = 0."""
    if not positions:  # a replay of the V log would build no column
        return []
    r = dec.rank
    n = dec.v.rows
    basis = [
        _sign_normalised(tuple(map(col.get, range(n), repeat(0))))
        for col in dec.v.columns([r + p for p in positions])
    ]
    # One product a·K with the basis vectors as the columns of K checks
    # a·v = 0 exactly for every vector at once.
    if any(map(any, a.mul(IntMatrix(tuple(zip(*basis)))).data)):
        raise AssertionError("kernel vector fails a·v = 0")
    return basis


def parity_kernel_basis(
    a: IntMatrix, s
) -> tuple[list[tuple[int, ...]], Callable[[], list[tuple[int, ...]]]]:
    """The basis vectors of the lattice { z : a·z = 0 }, split by how they
    pair with s. The basis is one vector per free column, columns rank,
    rank + 1, ... of V, and the parities of all of them come from the one
    row sᵀ·V. The odd vectors are built at once and returned in basis
    order, together with a function that builds the even ones, in basis
    order, from the same decomposition when it is called: only a caller
    that reads the even vectors pays for them."""
    dec = smith_normal_form(a)
    parities = IntMatrix((tuple(s),)).mul(dec.v).data[0][dec.rank:]
    positions: tuple[list[int], list[int]] = ([], [])
    for p, x in enumerate(parities):
        positions[x % 2].append(p)

    def basis(parity: int) -> list[tuple[int, ...]]:
        vectors = _kernel_vectors(a, dec, positions[parity])
        if any(sum(map(operator.mul, vec, s)) % 2 != parity for vec in vectors):
            raise AssertionError("kernel vector pairs with s against its parity")
        return vectors

    return basis(1), partial(basis, 0)


def _best_step(xs, ds) -> int:
    """The integer t that lowers Σ|x + t·d| over the pairs of xs and ds the
    most, nearest to 0 among equals, or 0 when no step lowers it. The sum
    is convex and piecewise linear in t, so its forward difference only
    rises: the best step along the falling side is the first t whose next
    unit step no longer falls, found by doubling t and then halving the
    bracket, in O(log |t|) evaluations."""

    def cost(t: int) -> int:
        return sum(map(abs, map(operator.add, xs, map(operator.mul, ds, repeat(t)))))

    here = sum(map(abs, xs))
    sign = next((u for u in (1, -1) if cost(u) < here), 0)
    if not sign:
        return 0

    def flat_past(t: int) -> bool:
        return cost(sign * (t + 1)) >= cost(sign * t)

    low, high = 0, 1  # not flat_past(low): the first unit step falls
    while not flat_past(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if flat_past(mid):
            high = mid
        else:
            low = mid
    return sign * high


def l1_descent(z, directions) -> tuple[int, ...]:
    """z moved along the directions, by integer steps, until no step along
    any one of them lowers ‖z‖₁. The directions are taken in turn, cycling
    in the order given, and each step is the one that lowers ‖z‖₁ the most
    (`_best_step`); the descent stops once every direction has been tried
    since the last step. Each step lowers the integer ‖z‖₁, so it ends.
    Only the entries in a direction's support are read or written, and
    the result is z plus an integer combination of the directions."""
    z = list(z)
    sparse = [(tuple(compress(range(len(d)), d)), tuple(compress(d, d))) for d in directions]
    since_step = 0
    for idx, ds in cycle(sparse):
        if since_step == len(sparse):
            break
        xs = list(map(z.__getitem__, idx))
        t = _best_step(xs, ds)
        if t:
            for i, x, d in zip(idx, xs, ds):
                z[i] = x + t * d
            since_step = 1  # this direction has just been tried
        else:
            since_step += 1
    return tuple(z)


def _zero_free_directions(phi, kernel):
    """Subtract rational multiples of kernel vectors so the solution is zero
    on the kernel's leading coordinates; leaves b·phi untouched.

    The kernel vectors arrive one at a time, each as the {coordinate: entry}
    dict of its nonzero entries, and are brought to echelon form keyed by
    leading coordinate, each row held as such a dict of Fractions. The set of
    leading coordinates of a subspace does not depend on its basis, and phi
    is the one solution that is zero on all of them, so the result does not
    depend on the basis or the order of reduction either.
    """
    echelon = {}
    for vec in kernel:
        row = {k: Fraction(x) for k, x in vec.items()}
        while row:
            lead = min(row)
            prev = echelon.get(lead)
            if prev is None:
                echelon[lead] = row
                break
            t = row[lead] / prev[lead]
            for k, y in prev.items():
                x = row.get(k, 0) - t * y
                if x:
                    row[k] = x
                else:
                    del row[k]
    phi = list(phi)
    # Ascending leads: a row is zero before its lead, so clearing phi at one
    # lead never disturbs the smaller leads already cleared.
    for lead in sorted(echelon):
        if phi[lead]:
            row = echelon[lead]
            t = phi[lead] / row[lead]
            for k, y in row.items():
                phi[k] -= t * y
    return phi


def solve_mod2_over_rationals(b: IntMatrix, s) -> tuple[Fraction, ...] | None:
    """Rational phi with b·phi = s (mod 2) componentwise, entries reduced
    into [0, 2), or None when no rational solution exists.

    Via the Smith decomposition U·b·V = D: a zero row i of D forces
    (U·s)_i to be even, else there is no solution; otherwise
    back-substitute psi_i = (U·s)_i / d_i and take phi = V·psi. The free
    directions (the rational kernel of b) are zeroed out of phi so the
    returned solution is the canonical one.
    """
    s = tuple(int(x) for x in s)
    if len(s) != b.rows:
        raise ValueError(f"rhs length {len(s)} != rows {b.rows}")
    dec = smith_normal_form(b)
    us = dec.u.mulvec(s)
    r = dec.rank
    if any(us[i] % 2 for i in range(r, b.rows)):
        return None
    # psi_i = (U·s)_i mod 2d_i over d_i, written over the common denominator
    # d_{r-1} (every d_i divides it), so phi = V·psi is one integer sum per
    # entry divided by that denominator.
    diag = dec.diagonal
    denom = diag[r - 1] if r else 1
    psi = [us[i] % (2 * diag[i]) * (denom // diag[i]) for i in range(r)]
    psi += [0] * (b.cols - r)
    phi = [Fraction(x, denom) for x in dec.v.mulvec(psi)]
    phi = _zero_free_directions(phi, dec.v.columns(range(r, b.cols)))
    phi = tuple(x % 2 for x in phi)
    parts = [(x.numerator, x.denominator) for x in phi]
    for row, target in zip(b.data, s):
        terms = [(c * n, d) for c, (n, d) in zip(row, parts) if c]
        if not congruent_mod2(terms, target):
            raise AssertionError("solution fails b·phi = s (mod 2)")
    return phi
