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
so its inverse is the reversed tuple and products are concatenations, and
adjacent equal indices cancel. `reduce_clause_word` uses the last fact: it
cancels the clause indices first and only then reduces each player's column.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .games import Game


def reduce_letters(letters) -> tuple[int, ...]:
    """Free reduction of a one-player word: adjacent equal letters cancel.

    `letters` may be any iterable. The stack's top is kept in a local, over
    a sentinel bottom that equals no letter."""
    out = [None]
    push, pop = out.append, out.pop
    top = None
    for x in letters:
        if x == top:
            pop()
            top = out[-1]
        else:
            push(x)
            top = x
    del out[0]
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
    def sign(cls, players: int) -> "GroupWord":
        return cls(tuple(() for _ in range(players)), 1)

    @property
    def players(self) -> int:
        return len(self.per_player)


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


def commutator(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return (*a, *b, *a[::-1], *b[::-1])


def reduce_clause_word(game: Game, cw: Sequence[int]) -> GroupWord:
    """Multiply the referenced clauses out to a normal form.

    Every index is range-checked first, over the whole word, so a bad index
    raises IndexError even where it would cancel against its neighbour.
    Clauses are involutions, so adjacent equal clause indices then cancel
    (each player's letter cancels and the two parities sum to an even
    number); each player's column of the shortened word streams through
    one free reduction, in GroupWord, and the sign is the parity of the
    clause parities.
    """
    if cw:
        low, high = min(cw), max(cw)
        if low < 0 or high >= game.num_clauses:
            raise IndexError(f"clause index {low if low < 0 else high} out of range")
    cw = reduce_letters(cw)
    # itemgetter gathers at C speed, but returns a bare item for one index
    # and takes no zero-index form.
    gather = itemgetter(*cw) if len(cw) > 1 else lambda seq: tuple(seq[i] for i in cw)
    clauses = game.clauses
    columns = [tuple(c.questions[a] for c in clauses) for a in range(game.players)]
    parities = tuple(c.parity for c in clauses)
    return GroupWord(tuple(map(gather, columns)), sum(gather(parities)))


def is_parity_trivial(letters) -> bool:
    """True iff the one-player word cancels to nothing up to pair-commutation.

    For even-length words this is exactly membership in the pair-commutator
    subgroup: every letter occurs equally often at odd and even positions.
    """
    return Counter(letters[0::2]) == Counter(letters[1::2])


def abelianizes_to_sign(word: GroupWord) -> bool:
    """True iff a clause word with this normal form equals the sign element
    once pair-commutators are quotiented away: the sign bit is set and every
    player's letters are parity-trivial.

    Exact on the normal form `reduce_clause_word` returns, because each of
    its reductions cancels two adjacent entries, which sit at opposite
    parities: every letter's signed count stays what it was in the clause
    word. An odd clause word leaves each player an odd word, so it fails."""
    return word.sigma == 1 and all(map(is_parity_trivial, word.per_player))
