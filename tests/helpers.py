"""Helpers the tests share that are not part of the library: they read its
results, and no program path calls them.

Dense references for what the library keeps sparse or as logs:
- `DenseMatrix`, an `IntMatrix` with the matrix-vector product and the
  column reads that the library has only on its operation logs, so a test
  can hand `_check_decomposition` and `_kernel_vectors` a transform with a
  changed entry;
- `integer_kernel_basis`, the whole kernel basis, of which `decide` builds
  only the odd vectors, and `odd_kernel_basis`, those odd vectors alone;
- `reference_simulate_merp_value`, the general sparse state-vector
  simulator, with one observable per table entry.

Besides them: `matrix` (an `IntMatrix` from nested rows), `identity_word`,
the closed-form `analytic_merp_value`, the canonical form `canon_letters`
and the breadth-first `bounded_sigma_search`.
"""

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum

from xorgames import intlinalg
from xorgames.intlinalg import IntMatrix
from xorgames.merp import StrategyValue, _matmul, merp_observable, verify_merp_symbolic
from xorgames.words import GroupWord, multiply, reduce_clause_word


def matrix(rows) -> IntMatrix:
    """An IntMatrix from any nested sequence of integer rows."""
    return IntMatrix(tuple(tuple(row) for row in rows))


class DenseMatrix(IntMatrix):
    """An IntMatrix that also offers `mulvec` and `columns`, and that equals
    any IntMatrix with the same entries."""

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def mulvec(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.data)

    def columns(self, js):
        """Columns js, in the order given, each as the {row: entry} dict of
        its nonzero entries, as `ColumnOperations.columns` yields them."""
        for j in js:
            yield {i: row[j] for i, row in enumerate(self.data) if row[j]}


def integer_kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice { z : a·z = 0 }, one vector per free column,
    each checked against a·z = 0 by the library. `smith_normal_form` is
    looked up when called, so a test can patch it."""
    dec = intlinalg.smith_normal_form(a)
    return intlinalg._kernel_vectors(a, dec, range(a.cols - dec.rank))


def odd_kernel_basis(a: IntMatrix, s) -> list[tuple[int, ...]]:
    """The odd vectors of `parity_kernel_basis`, without the even ones."""
    return intlinalg.parity_kernel_basis(a, s)[0]


def identity_word(players: int) -> GroupWord:
    return GroupWord(((),) * players)


def analytic_merp_value(game, strat) -> float:
    """Closed form: 1/2 + (1/2m) * sum_j (-1)^s_j cos(pi * phase sum)."""
    total = 0.0
    for c in game.clauses:
        phase_sum = sum(strat.phi[a][q] for a, q in enumerate(c.questions))
        total += ((-1) ** c.parity) * math.cos(math.pi * float(phase_sum % 2))
    return 0.5 + total / (2 * game.num_clauses)


def _reference_single_qubit(op, psi, qubit: int, k: int):
    """op on one qubit (0 = most significant bit) of a sparse {index: amplitude}."""
    mask = 1 << (k - 1 - qubit)
    out = {}
    for index, amp in psi.items():
        bit = 1 if index & mask else 0
        for row, target in ((0, index & ~mask), (1, index | mask)):
            if op[row][bit]:  # a zero entry adds no amplitude
                out[target] = out.get(target, 0j) + op[row][bit] * amp
    return out


def reference_simulate_merp_value(game, strat) -> StrategyValue:
    """The general sparse state-vector reference: each clause applies
    every player's full 2x2 observable, one built per table entry, to a
    {basis index: amplitude} dict and takes the overlap with the GHZ state.
    It assumes nothing about the observables' shape, and the library's
    two-branch `simulate_merp_value` must equal it bit for bit."""
    k = game.players
    if strat.players != k or any(len(row) < game.alphabet for row in strat.phi):
        raise ValueError("strategy dimensions do not match the game")
    ops = [[merp_observable(float(x % 2) * math.pi / 2) for x in row] for row in strat.phi]
    psi = {0: 1 / math.sqrt(2) + 0j, (1 << k) - 1: 1 / math.sqrt(2) + 0j}
    total = 0.0
    for c in game.clauses:
        vec = psi
        for a, q in enumerate(c.questions):
            vec = _reference_single_qubit(ops[a][q], vec, a, k)
        overlap = sum(amp.conjugate() * vec.get(i, 0j) for i, amp in psi.items())
        total += ((-1) ** c.parity) * overlap.real
    value = 0.5 + total / (2 * game.num_clauses)
    return StrategyValue(value=value, exact_perfect=verify_merp_symbolic(game, strat))


def observables_pairwise_commute(thetas, tol: float = 1e-12) -> bool:
    """Check M(t1)M(t2)M(t3)M(t4) == M(t3)M(t4)M(t1)M(t2) numerically.

    Holds for every angle tuple: products of two conjugated-X observables
    commute with each other, which is what lets a shared-phase strategy
    satisfy the quotient relations the decider works in.
    """
    m1, m2, m3, m4 = (merp_observable(t) for t in thetas)
    lhs = _matmul(_matmul(_matmul(m1, m2), m3), m4)
    rhs = _matmul(_matmul(_matmul(m3, m4), m1), m2)
    return all(abs(x - y) <= tol for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr))


def commutator_entry_letters(entry) -> tuple[int, ...]:
    """The one-player word conj . [pair1, pair2] . conj^-1 that an entry of
    `decompose_pair_commutators` stands for."""
    a, b = entry.pair1
    c, d = entry.pair2
    return entry.conj + (a, b, c, d, b, a, d, c) + entry.conj[::-1]


def canon_letters(letters) -> tuple[int, ...]:
    """Canonical representative of a one-player word up to pair-commutation.

    Split into odd/even position sublists (position 1 is odd), cancel each
    letter's minority occurrences across the two sublists, sort both, and
    interleave odd-first. Positions-preserving transpositions and free
    cancellation both leave the result unchanged; for words of length >= 3
    it is a complete invariant of the quotient by the pair-commutator
    subgroup. It is empty exactly when `words.is_parity_trivial` holds,
    which the tests check against it.
    """
    odd = [letters[i] for i in range(0, len(letters), 2)]
    even = [letters[i] for i in range(1, len(letters), 2)]
    odd_count, even_count = Counter(odd), Counter(even)
    odd_kept, even_kept = [], []
    for v in sorted(set(odd) | set(even)):
        drop = min(odd_count[v], even_count[v])
        odd_kept.extend([v] * (odd_count[v] - drop))
        even_kept.extend([v] * (even_count[v] - drop))
    out = []
    for i in range(max(len(odd_kept), len(even_kept))):
        if i < len(odd_kept):
            out.append(odd_kept[i])
        if i < len(even_kept):
            out.append(even_kept[i])
    return tuple(out)


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class SigmaSearchResult:
    status: SearchStatus
    word: tuple[int, ...] | None = None


def bounded_sigma_search(game, max_len: int, cap: int = 10**6) -> SigmaSearchResult:
    """Breadth-first search over clause products, deduplicated by normal
    form, for an explicit product equal to the sign element.

    FOUND comes with a shortest witness; NOT_FOUND is conclusive only up to
    max_len; CAP_EXCEEDED reports that the visited set outgrew `cap` before
    the depth limit was exhausted. It reuses the library's normal form
    (`GroupWord`, `multiply`) and searches independently only over which
    clause products to form.
    """
    identity = identity_word(game.players)
    target = GroupWord.sign(game.players)
    gens = [reduce_clause_word(game, (i,)) for i in range(game.num_clauses)]
    parent: dict[GroupWord, tuple[GroupWord, int] | None] = {identity: None}

    def backtrack(state) -> tuple[int, ...]:
        indices = []
        while parent[state] is not None:
            state, i = parent[state]
            indices.append(i)
        return tuple(reversed(indices))

    frontier = deque([(identity, 0)])
    while frontier:
        state, depth = frontier.popleft()
        if depth >= max_len:
            continue
        for i, g in enumerate(gens):
            nxt = multiply(state, g)
            if nxt in parent:
                continue
            parent[nxt] = (state, i)
            if nxt == target:
                return SigmaSearchResult(SearchStatus.FOUND, backtrack(nxt))
            if len(parent) > cap:
                return SigmaSearchResult(SearchStatus.CAP_EXCEEDED)
            frontier.append((nxt, depth + 1))
    return SigmaSearchResult(SearchStatus.NOT_FOUND)
