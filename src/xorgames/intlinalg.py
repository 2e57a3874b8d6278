"""Exact integer and rational linear algebra.

Dense arbitrary-precision arithmetic only; no floating point anywhere in this
module. Smith normal form is computed with explicit elementary row/column
operations so the unimodular transforms come out alongside the diagonal, and
the decomposition identity is rechecked before returning. Desk-scale sizes
(a few hundred rows/columns) are the target.

The elimination is tuned without changing its result: the pivot is still
the first entry of smallest absolute value in row-major order and the
sequence of elementary operations is fixed, so U, D and V come out the same
entry for entry. The speed comes from skipping work that cannot change
anything: pivot scans stop at the first unit, all column operations of one
pivot share a single pass over the rows, row operations touch only the
nonzero entries of the pivot row, and products multiply only pairs of
nonzero entries, skipping the zeros of both operands (the 0/1 incidence
matrices this package decomposes are sparse, and so is A·V).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import gcd


@dataclass(frozen=True)
class IntMatrix:
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.data}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data))) if self.data else IntMatrix(())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
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

    def mulvec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        # Only the nonzero entries of each row are multiplied out.
        return tuple(
            sum(map(operator.mul, compress(row, row), compress(v, row)))
            for row in self.data
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """U·A·V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

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


def _nonzeros(row):
    return [(k, x) for k, x in enumerate(row) if x]


def _identity_rows(n: int) -> list[list[int]]:
    """The n×n identity as mutable rows: the starting U or V."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.data]
    u = _identity_rows(rows)
    v = _identity_rows(cols)

    for t in range(min(rows, cols)):
        pivot = _find_pivot(m, t, rows, cols)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                m[t], m[i] = m[i], m[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for r in m:
                    r[t], r[j] = r[j], r[t]
                for r in v:
                    r[t], r[j] = r[j], r[t]
            mt, ut = m[t], u[t]
            p = mt[t]
            dirty = False
            # R_i -= q * R_t for every row below, mirrored in U, touching
            # only the nonzero entries of the pivot rows.
            mt_nz, ut_nz = _nonzeros(mt), _nonzeros(ut)
            for i in range(t + 1, rows):
                mi = m[i]
                if mi[t]:
                    q = mi[t] // p
                    if q:
                        for k, y in mt_nz:
                            mi[k] -= q * y
                        ui = u[i]
                        for k, y in ut_nz:
                            ui[k] -= q * y
                    dirty = dirty or mi[t] != 0
            # C_j -= q * C_t for every column right of the pivot, mirrored in
            # V. These operations never change column t, so every quotient
            # comes from the pivot row as it is now and all of them can be
            # applied in one pass over the rows.
            ops = []
            for j in range(t + 1, cols):
                if mt[j]:
                    q, rem = divmod(mt[j], p)
                    if q:
                        ops.append((j, q))
                    dirty = dirty or rem != 0
            if ops:
                for r in (*m, *v):
                    x = r[t]
                    if x:
                        for j, q in ops:
                            r[j] -= q * x
            if not dirty:
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
                m[t] = [x + y for x, y in zip(m[t], m[fixup])]
                u[t] = [x + y for x, y in zip(u[t], u[fixup])]
            pivot = _find_pivot(m, t, rows, cols)

    for t in range(min(rows, cols)):
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]

    dec = SmithDecomposition(
        u=IntMatrix(tuple(map(tuple, u))),
        d=IntMatrix(tuple(map(tuple, m))),
        v=IntMatrix(tuple(map(tuple, v))),
    )
    _check_decomposition(a, dec)
    return dec


def _check_decomposition(a: IntMatrix, dec: SmithDecomposition):
    # U·(A·V) is the same exact product as (U·A)·V; taking the sparse A
    # first keeps the intermediate sparse too, and mul skips the zeros of
    # both operands. Every entry of the product is still compared with D.
    prod = dec.u.mul(a.mul(dec.v))
    if prod != dec.d:
        raise AssertionError("Smith decomposition identity U*A*V == D failed")
    diag = dec.diagonal
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j and dec.d.data[i][j] != 0:
                raise AssertionError("D not diagonal")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
    for i, x in enumerate(diag):
        if x < 0:
            raise AssertionError("negative invariant factor")


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g > 1:
        vec = tuple(x // g for x in vec)
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def _kernel_columns(dec: SmithDecomposition):
    """Columns rank, rank+1, ... of V, which span the kernel, read in one
    pass over the transpose of V."""
    return islice(zip(*dec.v.data), dec.rank, None)


def integer_kernel_basis(a: IntMatrix):
    """Basis of the lattice { z : a·z = 0 }, one vector per free column."""
    dec = smith_normal_form(a)
    basis = [_primitive(col) for col in _kernel_columns(dec)]
    # One product a·K with the basis vectors as the columns of K checks
    # a·v = 0 exactly for every vector at once.
    if basis and any(map(any, a.mul(IntMatrix(tuple(zip(*basis)))).data)):
        raise AssertionError("kernel vector fails a·v = 0")
    return basis


@dataclass(frozen=True)
class Mod2Outcome:
    """Exactly one of solution / obstruction is set.

    solution: rational phi with b·phi = s componentwise modulo 2 (the
    difference is an even integer vector), entries reduced into [0, 2).
    obstruction: primitive integer u with u·b = 0 exactly and u·s odd.
    """

    solution: tuple[Fraction, ...] | None = None
    obstruction: tuple[int, ...] | None = None


def _zero_free_directions(phi, kernel):
    """Subtract rational multiples of kernel vectors so the solution is zero
    on the kernel's leading coordinates; leaves b·phi untouched.

    The kernel is brought to echelon form keyed by leading coordinate, each
    row held as a {column: Fraction} dict of its nonzero entries. The set of
    leading coordinates of a subspace does not depend on its basis, and phi
    is the one solution that is zero on all of them, so the result does not
    depend on the basis or the order of reduction either.
    """
    echelon = {}
    for vec in kernel:
        row = dict(zip(compress(range(len(vec)), vec), map(Fraction, compress(vec, vec))))
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


def solve_mod2_over_rationals(b: IntMatrix, s) -> Mod2Outcome:
    """Solve b·phi = s (mod 2) over the rationals, or certify impossibility.

    Via the Smith decomposition U·b·V = D: a zero row i of D forces
    (U·s)_i to be even, else row i of U is the obstruction; otherwise
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
    for i in range(r, b.rows):
        if us[i] % 2 == 1:
            u = _primitive(dec.u.data[i])
            if b.transpose().mulvec(u) != (0,) * b.cols:
                raise AssertionError("obstruction fails u·b = 0")
            return Mod2Outcome(obstruction=u)
    # psi_i = (U·s)_i mod 2d_i over d_i, written over the common denominator
    # d_{r-1} (every d_i divides it), so phi = V·psi is one integer sum per
    # entry divided by that denominator.
    diag = dec.diagonal
    denom = diag[r - 1] if r else 1
    # psi is zero past the rank, so only the first r columns of V enter.
    psi = [us[i] % (2 * diag[i]) * (denom // diag[i]) for i in range(r)]
    phi = [Fraction(sum(map(operator.mul, vrow, psi)), denom) for vrow in dec.v.data]
    phi = _zero_free_directions(phi, _kernel_columns(dec))
    phi = tuple(x % 2 for x in phi)
    for lhs, rhs in zip(b.mulvec(phi), s):
        diff = lhs - rhs
        if diff.denominator != 1 or diff.numerator % 2 != 0:
            raise AssertionError("solution fails b·phi = s (mod 2)")
    return Mod2Outcome(solution=phi)
