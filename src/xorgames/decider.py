"""Polynomial-time decision: can an even product of clauses equal the sign
element once pair-commutators are quotiented away?

The quotient of the even game group by the pair-commutator subgroup is free
abelian per player (the zero-sum sublattice of Z^alphabet) times the sign
bit, so a product of clauses reaches the sign element there iff an integer
vector z over the clauses balances every (player, question) incidence
exactly while hitting an odd parity total. The decision reduces to an
integer kernel computation on the incidence matrix. The signed clause
counts of a clause word are such a vector, so the same test on a word is
`words.abelianizes_to_sign` on its normal form; `witness_clause_word`
checks its expansion of z that way.

For 3-player games a positive answer is equivalent to the game having no
perfect commuting-operator strategy; for other player counts it only rules
out perfect strategies of the shared-phase form, so callers must treat the
verdict as inconclusive.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

from .games import Game
from .intlinalg import IntMatrix, l1_descent, parity_kernel_basis
from .words import abelianizes_to_sign, reduce_clause_word


@dataclass(frozen=True)
class DecisionOutcome:
    """member: the sign element is reachable in the abelian quotient.

    When member is true, obstruction_z balances every (player, question)
    incidence (sum of z over the clauses asking it is zero) and has odd
    parity against the clause parity bits. odd_basis holds the odd kernel
    basis vectors it was chosen from, and even_basis builds the even ones
    of the same basis when called; `short_witness` reads both.
    """

    member: bool
    obstruction_z: tuple[int, ...] | None = None
    odd_basis: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
    even_basis: Callable[[], list[tuple[int, ...]]] | None = field(
        default=None, compare=False, repr=False
    )

    def short_witness(self) -> tuple[int, ...]:
        """obstruction_z shortened in ℓ1: moved by integer steps along each
        even basis vector and each odd one doubled (`l1_descent`), so it
        stays in the kernel and stays odd. A refutation word grows much
        faster than ‖z‖₁. No witness has ‖z‖₁ below 2, since a lone ±1
        leaves its clause's questions unbalanced, so such a z is returned
        as it is and the even vectors are never built."""
        z = self.obstruction_z
        if sum(map(abs, z)) == 2:
            return z
        doubled = [tuple(map((2).__mul__, vec)) for vec in self.odd_basis]
        return l1_descent(z, self.even_basis() + doubled)


def incidence_matrix(game: Game) -> IntMatrix:
    """m x (players*alphabet) matrix; entry 1 iff the clause asks that
    question of that player. Columns are player-major."""
    width = game.players * game.alphabet
    rows = []
    for c in game.clauses:
        row = [0] * width
        for a, q in enumerate(c.questions):
            row[a * game.alphabet + q] = 1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


# The last completed decision, as at most one (game, outcome) pair: `refute`
# decides the component that `cli.cmd_decide` has just decided.
_last_decision: list[tuple[Game, DecisionOutcome]] = []


def decide(game: Game) -> DecisionOutcome:
    """Search the integer kernel of the transposed incidence matrix for a
    vector with odd parity functional.

    Among the odd basis vectors the one with smallest entry sum (then
    fewest nonzeros, then basis order) is returned: witness words expand
    each unit of the vector into a clause pair, so this keeps certificates
    short while staying deterministic. Only the odd vectors are built; the
    even ones are built only if `short_witness` is called.

    A game equal to the one of the last completed call gets that call's
    outcome back, without a second Smith form. Any other game first drops
    the stored outcome, so at most one decomposition is kept alive, and a
    call that raises stores nothing.
    """
    if _last_decision and (_last_decision[0][0] is game or _last_decision[0][0] == game):
        return _last_decision[0][1]
    _last_decision.clear()
    parities = tuple(c.parity for c in game.clauses)
    odd, even = parity_kernel_basis(incidence_matrix(game).transpose(), parities)
    if not odd:
        outcome = DecisionOutcome(member=False)
    else:
        vec = min(odd, key=lambda v: (sum(map(abs, v)), len(v) - v.count(0)))
        outcome = DecisionOutcome(
            member=True, obstruction_z=vec, odd_basis=tuple(odd), even_basis=even
        )
    _last_decision.append((game, outcome))
    return outcome


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
    if not abelianizes_to_sign(reduce_clause_word(game, word)):
        raise AssertionError("witness word does not abelianize to the sign element")
    return word
