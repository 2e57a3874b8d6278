"""Brute-force ground truth at desk scale.

Exact classical values by Gray-code enumeration of all +-1 assignments,
GF(2) solvability of the clause system, and a breadth-first search for an
explicit clause product equal to the sign element. These are the independent
cross-checks the property suites lean on; nothing here shares code with the
polynomial-time paths it validates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .games import Game
from .words import GroupWord, clause_to_word, multiply


@dataclass(frozen=True)
class ClassicalResult:
    """Exact optimum over deterministic strategies.

    value = satisfied/m for the returned assignment and no assignment does
    better; assignment[player][question] is +-1. Ties break toward the
    lexicographically smallest bit pattern (player-major, +1 first).
    """

    value: Fraction
    assignment: tuple[tuple[int, ...], ...]


def classical_value(game: Game) -> ClassicalResult:
    n_vars = game.players * game.alphabet
    if n_vars > 24:
        raise ValueError(f"2^{n_vars} assignments is beyond the brute-force cap")
    m = game.num_clauses
    clause_vars = [
        [a * game.alphabet + q for a, q in enumerate(c.questions)]
        for c in game.clauses
    ]
    clauses_of_var = [[] for _ in range(n_vars)]
    for i, vs in enumerate(clause_vars):
        for v in vs:
            clauses_of_var[v].append(i)

    # Gray-code walk: one variable flip per step, satisfaction updated
    # incrementally. sat[i] starts at the all-(+1) assignment.
    sat = [1 - c.parity for c in game.clauses]
    count = sum(sat)
    bits = 0  # bit v set means variable v answers -1
    lex_key = 0  # bits mirrored so that smaller means lexicographically first
    best_count, best_bits, best_key = count, bits, lex_key
    for step in range(1, 1 << n_vars):
        v = (step & -step).bit_length() - 1
        bits ^= 1 << v
        lex_key ^= 1 << (n_vars - 1 - v)
        for i in clauses_of_var[v]:
            if sat[i]:
                sat[i] = 0
                count -= 1
            else:
                sat[i] = 1
                count += 1
        if count > best_count or (count == best_count and lex_key < best_key):
            best_count, best_bits, best_key = count, bits, lex_key
    assignment = tuple(
        tuple(
            -1 if best_bits >> (a * game.alphabet + q) & 1 else 1
            for q in range(game.alphabet)
        )
        for a in range(game.players)
    )
    return ClassicalResult(value=Fraction(best_count, m), assignment=assignment)


def gf2_solve(game: Game) -> tuple[int, ...] | None:
    """Gaussian elimination over GF(2): a 0/1 assignment (player-major bit
    per (player, question), free variables zero) solving every clause
    exactly, or None. Classical value is 1 iff this succeeds."""
    n = game.players * game.alphabet
    rows = []
    for c in game.clauses:
        mask = 0
        for a, q in enumerate(c.questions):
            mask |= 1 << (a * game.alphabet + q)
        rows.append((mask, c.parity))
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        for p in sorted(pivots, reverse=True):
            if mask >> p & 1:
                pmask, prhs = pivots[p]
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs == 1:
                return None
            continue
        pivots[mask.bit_length() - 1] = (mask, rhs)
    bits = [0] * n
    for p in sorted(pivots):  # other variables in a pivot row all sit below p
        mask, rhs = pivots[p]
        acc = rhs
        for v in range(p):
            if mask >> v & 1:
                acc ^= bits[v]
        bits[p] = acc
    for mask, rhs in rows:
        acc = 0
        for v in range(n):
            if mask >> v & 1:
                acc ^= bits[v]
        if acc != rhs:
            raise AssertionError("GF(2) solution fails the clause system")
    return tuple(bits)


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class SigmaSearchResult:
    status: SearchStatus
    word: tuple[int, ...] | None = None


def bounded_sigma_search(game: Game, max_len: int, cap: int = 10**6) -> SigmaSearchResult:
    """Breadth-first search over clause products, deduplicated by normal
    form, for an explicit product equal to the sign element.

    FOUND comes with a shortest witness; NOT_FOUND is conclusive only up to
    max_len; CAP_EXCEEDED reports that the visited set outgrew `cap` before
    the depth limit was exhausted.
    """
    identity = GroupWord.identity(game.players)
    target = GroupWord.sign(game.players)
    gens = [clause_to_word(game, i) for i in range(game.num_clauses)]
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
