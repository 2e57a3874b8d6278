"""Brute-force ground truth at desk scale.

Exact classical values by Gray-code enumeration of all +-1 assignments
(`classical_value`, behind the `classical` subcommand), and GF(2)
solvability of the clause system (`gf2_solve`, also `decide`'s test for
classical perfectness). Neither shares code with the polynomial-time paths
the tests check against them: the integer decider, the phase solver and
the refutation.
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
