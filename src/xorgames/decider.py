"""Polynomial-time decision: can an even product of clauses equal the sign
element once pair-commutators are quotiented away?

The quotient of the even game group by the pair-commutator subgroup is free
abelian per player (the zero-sum sublattice of Z^alphabet) times the sign
bit, so a product of clauses reaches the sign element there iff an integer
vector z over the clauses balances every (player, question) incidence
exactly while hitting an odd parity total. The decision reduces to an
integer kernel computation on the incidence matrix.

For 3-player games a positive answer is equivalent to the game having no
perfect commuting-operator strategy; for other player counts it only rules
out perfect strategies of the shared-phase form, so callers must treat the
verdict as inconclusive.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .games import Game
from .intlinalg import IntMatrix, integer_kernel_basis


@dataclass(frozen=True)
class AbelianVector:
    """Image of an even clause word: per-player exponent vectors + sign bit.

    Each per-player vector sums to zero (even words land in the zero-sum
    sublattice). Position t of the clause sequence contributes (-1)^t with
    t = 1 carrying the minus sign.
    """

    per_player: tuple[tuple[int, ...], ...]
    sigma: int

    def is_sign(self) -> bool:
        return self.sigma == 1 and all(
            all(x == 0 for x in vec) for vec in self.per_player
        )


@dataclass(frozen=True)
class DecisionOutcome:
    """member: the sign element is reachable in the abelian quotient.

    When member is true, obstruction_z balances every (player, question)
    incidence (sum of z over the clauses asking it is zero) and has odd
    parity against the clause parity bits.
    """

    member: bool
    obstruction_z: tuple[int, ...] | None = None


def abelianize_clause_word(game: Game, cw: tuple[int, ...]) -> AbelianVector:
    if len(cw) % 2 != 0:
        raise ValueError("only even clause words have an abelian image")
    vecs = [[0] * game.alphabet for _ in range(game.players)]
    sigma = 0
    for t, i in enumerate(cw, start=1):
        c = game.clauses[i]
        sign = -1 if t % 2 == 1 else 1
        for a, q in enumerate(c.questions):
            vecs[a][q] += sign
        sigma ^= c.parity
    return AbelianVector(tuple(tuple(v) for v in vecs), sigma)


def incidence_matrix(game: Game) -> IntMatrix:
    """m x (players*alphabet) matrix; entry 1 iff the clause asks that
    question of that player. Columns are player-major."""
    rows = []
    for c in game.clauses:
        row = [0] * (game.players * game.alphabet)
        for a, q in enumerate(c.questions):
            row[a * game.alphabet + q] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def decide(game: Game) -> DecisionOutcome:
    """Search the integer kernel of the transposed incidence matrix for a
    vector with odd parity functional.

    Among the odd basis vectors the one with smallest entry sum (then
    fewest nonzeros, then basis order) is returned: witness words expand
    each unit of the vector into a clause pair, so this keeps certificates
    short while staying deterministic.
    """
    kernel = integer_kernel_basis(incidence_matrix(game).transpose())
    parities = tuple(c.parity for c in game.clauses)
    best = None
    for pos, vec in enumerate(kernel):
        if sum(z * s for z, s in zip(vec, parities)) % 2 == 0:
            continue
        key = (sum(abs(z) for z in vec), sum(1 for z in vec if z), pos)
        if best is None or key < best[0]:
            best = (key, vec)
    if best is None:
        return DecisionOutcome(member=False)
    return DecisionOutcome(member=True, obstruction_z=best[1])


def check_obstruction(game: Game, z) -> bool:
    """Exact validity of a claimed witness: balanced incidences, odd parity."""
    z = tuple(int(x) for x in z)
    if len(z) != game.num_clauses:
        return False
    # Bᵀz one clause at a time: clause i adds z_i to each (player, question)
    # slot it asks, and every slot must come to zero.
    totals = defaultdict(int)
    for zi, c in zip(z, game.clauses):
        if zi:
            for slot in enumerate(c.questions):
                totals[slot] += zi
    if any(totals.values()):
        return False
    return sum(zi * c.parity for zi, c in zip(z, game.clauses)) % 2 == 1


def witness_clause_word(game: Game, z) -> tuple[int, ...]:
    """Expand a witness vector into an explicit even clause sequence whose
    abelian image is exactly the sign element's: the product over i >= 2 of
    the pair (clause 1, clause i) repeated z_i times, reversed when z_i < 0.
    """
    if not check_obstruction(game, z):
        raise ValueError("vector violates the witness invariant")
    indices = []
    for i in range(1, game.num_clauses):
        zi = int(z[i])
        indices += ((0, i) if zi > 0 else (i, 0)) * abs(zi)
    word = tuple(indices)
    if not abelianize_clause_word(game, word).is_sign():
        raise AssertionError("witness word does not abelianize to the sign element")
    return word
