"""Brute-force ground truth at desk scale.

Exact classical values by Gray-code enumeration of all +-1 assignments
(`classical_value`, behind the `classical` subcommand), and GF(2)
solvability of the clause system (`gf2_solve`, also `decide`'s test for
classical perfectness). Neither shares code with the polynomial-time paths
the tests check against them: the integer decider, the phase solver and
the refutation.

Both work on Python ints used as bitsets. `classical_value` keeps, for each
variable, the set of clauses it sits in, so a Gray-code step is one XOR into
the set of satisfied clauses and one popcount. `gf2_solve` keeps each clause
as a mask with bit a*alphabet+q for player a's question q, reduces each row
by its top bit against the pivots found so far, and reads every clause back
by the parity of a masked popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Game


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
    # An assignment is a key whose bit n_vars-1-v is set when variable v
    # answers -1, so that a smaller key is lexicographically first.
    # flips[j]: the clauses of the variable at key bit j, as a clause bitset.
    flips = [0] * n_vars
    for i, c in enumerate(game.clauses):
        for a, q in enumerate(c.questions):
            flips[n_vars - 1 - a * game.alphabet - q] |= 1 << i
    # Gray-code walk over keys, one variable flip per step: bit i of sat is
    # set iff clause i is satisfied, starting at the all-(+1) assignment.
    sat = sum(1 << i for i, c in enumerate(game.clauses) if c.parity == 0)
    best_count, best_key = sat.bit_count(), 0
    for step in range(1, 1 << n_vars):
        sat ^= flips[(step & -step).bit_length() - 1]
        count = sat.bit_count()
        if count >= best_count:
            key = step ^ step >> 1
            if count > best_count or key < best_key:
                best_count, best_key = count, key
    signs = [-1 if b == "1" else 1 for b in f"{best_key:0{n_vars}b}"]
    assignment = tuple(
        tuple(signs[a * game.alphabet:(a + 1) * game.alphabet]) for a in range(game.players)
    )
    return ClassicalResult(value=Fraction(best_count, game.num_clauses), assignment=assignment)


def gf2_solve(game: Game) -> tuple[int, ...] | None:
    """Gaussian elimination over GF(2): a 0/1 assignment (player-major bit
    per (player, question), free variables zero) solving every clause
    exactly, or None. Classical value is 1 iff this succeeds."""
    rows = [
        (sum(1 << a * game.alphabet + q for a, q in enumerate(c.questions)), c.parity)
        for c in game.clauses
    ]
    # Each row is reduced by its top bit until that bit is not yet a pivot.
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        while mask and (p := mask.bit_length() - 1) in pivots:
            mask ^= pivots[p][0]
            rhs ^= pivots[p][1]
        if mask:
            pivots[p] = (mask, rhs)
        elif rhs:
            return None
    x = 0  # bit v is variable v's value
    for p in sorted(pivots):  # other variables in a pivot row all sit below p
        mask, rhs = pivots[p]
        x |= (rhs ^ ((mask & x).bit_count() & 1)) << p
    if any(((mask & x).bit_count() & 1) != rhs for mask, rhs in rows):
        raise AssertionError("GF(2) solution fails the clause system")
    return tuple(map(int, reversed(f"{x:0{game.players * game.alphabet}b}")))
