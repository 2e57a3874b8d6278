"""Exact arithmetic in the game group.

The group has one involutive generator per (player, question), generators of
distinct players commuting, plus a central involution ("the sign") standing in
for -1. It is a direct product of per-player free products of order-two
groups with the order-two sign, so a complete normal form is one reduced
letter sequence per player together with the sign bit; equality of normal
forms is equality in the group.

Letters are 0-based question indices. A clause maps to the word with one
letter per player and the clause's parity as the sign bit. A product of
clauses (a clause word) is a plain tuple of 0-based clause indices, so that
membership in the clause subgroup stays manifest: clauses are involutions,
so its inverse is the reversed tuple and products are concatenations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .games import Game


def reduce_letters(letters) -> tuple[int, ...]:
    """Free reduction of a one-player word: adjacent equal letters cancel."""
    out = []
    for x in letters:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """Normal form: reduced per-player letter sequences plus the sign bit."""

    per_player: tuple[tuple[int, ...], ...]
    sigma: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "per_player", tuple(reduce_letters(seq) for seq in self.per_player)
        )
        object.__setattr__(self, "sigma", self.sigma & 1)

    @classmethod
    def identity(cls, players: int) -> "GroupWord":
        return cls(tuple(() for _ in range(players)), 0)

    @classmethod
    def sign(cls, players: int) -> "GroupWord":
        return cls(tuple(() for _ in range(players)), 1)

    @property
    def players(self) -> int:
        return len(self.per_player)

    def length(self) -> int:
        return sum(len(seq) for seq in self.per_player)


def multiply(a: GroupWord, b: GroupWord) -> GroupWord:
    if a.players != b.players:
        raise ValueError(f"player count mismatch: {a.players} vs {b.players}")
    return GroupWord(
        tuple(x + y for x, y in zip(a.per_player, b.per_player)),
        a.sigma ^ b.sigma,
    )


def inverse(w: GroupWord) -> GroupWord:
    # Letters and the sign are involutions, so inverting reverses sequences.
    return GroupWord(tuple(seq[::-1] for seq in w.per_player), w.sigma)


def clause_to_word(game: Game, i: int) -> GroupWord:
    if not 0 <= i < game.num_clauses:
        raise IndexError(f"clause index {i} out of range")
    c = game.clauses[i]
    return GroupWord(tuple((q,) for q in c.questions), c.parity)


def commutator(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return (*a, *b, *a[::-1], *b[::-1])


def reduce_clause_word(game: Game, cw: tuple[int, ...]) -> GroupWord:
    """Multiply the referenced clauses out to a normal form: each player's
    column of questions streams through one free reduction, and the sign is
    the parity of the clause parities."""
    if cw:
        low, high = min(cw), max(cw)
        if low < 0 or high >= game.num_clauses:
            raise IndexError(f"clause index {low if low < 0 else high} out of range")
    clauses = game.clauses
    columns = [tuple(c.questions[a] for c in clauses) for a in range(game.players)]
    parities = tuple(c.parity for c in clauses)
    return GroupWord(
        tuple(reduce_letters(map(column.__getitem__, cw)) for column in columns),
        sum(map(parities.__getitem__, cw)),
    )


def canon_letters(letters) -> tuple[int, ...]:
    """Canonical representative of a one-player word up to pair-commutation.

    Split into odd/even position sublists (position 1 is odd), cancel each
    letter's minority occurrences across the two sublists, sort both, and
    interleave odd-first. Positions-preserving transpositions and free
    cancellation both leave the result unchanged; for words of length >= 3
    it is a complete invariant of the quotient by the pair-commutator
    subgroup.
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


def is_parity_trivial(letters) -> bool:
    """True iff the one-player word cancels to nothing up to pair-commutation.

    For even-length words this is exactly membership in the pair-commutator
    subgroup: every letter occurs equally often at odd and even positions.
    """
    return not canon_letters(letters)

