"""Constructive refutations: from an abelian witness to an explicit clause
sequence whose exact product is the sign element.

The pipeline mirrors the existence proof it implements. Starting from the
witness word (which equals the sign element only up to pair-commutators),
right inverses of the player projections clear players 1 and 2 exactly; the
residue on player 3 then lies in the pair-commutator subgroup, is decomposed
into conjugated pair commutators by transposition recording, and is cancelled
against a word assembled from commutators of the two pair right inverses,
with gadget words inserted so that the two assemblies agree on every player.
Every stage is an exact group identity, checked before proceeding; clause
words are carried as index sequences throughout so membership in the clause
subgroup is manifest, and group reduction is used only for checks and the
final verification.

Everything here requires a connected 3-player game; the driver `refute`
handles decomposition and index mapping for general instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decider import abelianize_clause_word, check_obstruction, decide, witness_clause_word
from .games import Game
from .graphs import PairGraph, build_hypergraph, decompose_components, gadget_word
from .words import (
    GroupWord, commutator, inverse, is_parity_trivial, multiply, reduce_clause_word, reduce_letters,
)

# Clause-word length beyond which construction aborts.
DEFAULT_CAP = 10**6


class PipelineError(RuntimeError):
    """An exact intermediate identity failed; indicates a bug, not bad input."""


class WordLengthCapExceeded(PipelineError):
    def __init__(self, stage: str, length: int, cap: int):
        super().__init__(f"{stage}: clause word length {length} exceeds cap {cap}")
        self.stage = stage
        self.length = length
        self.cap = cap


@dataclass(frozen=True)
class RefutationCertificate:
    """z: the abelian witness; sigma_word: clause indices whose product is
    exactly the sign element (checked before the certificate is built)."""

    z: tuple[int, ...]
    sigma_word: tuple[int, ...]


@dataclass(frozen=True)
class CommutatorEntry:
    """conj . [pair1, pair2] . conj^-1 on one player's letters; conj even."""

    conj: tuple[int, ...]
    pair1: tuple[int, int]
    pair2: tuple[int, int]


def decompose_pair_commutators(letters, budget: int | None = None) -> list[CommutatorEntry]:
    """Write an even parity-trivial one-player word as an exact product of
    conjugated pair commutators.

    Bubble-sorts the odd-position and even-position sublists; each swap of
    letters two apart is an exact multiplication by one conjugated pair
    commutator, recorded on the left of the word when the prefix is even and
    on the right when the suffix is (one of the two always holds). The
    sorted word interleaves two equal sorted multisets and cancels freely,
    so the recorded entries multiply back to the input exactly.

    The entry list holds a conjugator copy per swap, up to cubic in the word
    length; `budget` caps the total recorded letters and aborts with the
    word-length diagnostic instead of exhausting memory.
    """
    work = list(letters)
    if len(work) % 2 != 0 or not is_parity_trivial(work):
        raise ValueError("decomposition needs an even parity-trivial word")
    left: list[CommutatorEntry] = []
    right: list[CommutatorEntry] = []
    n = len(work)
    spent = 0
    for start in (0, 1):
        changed = True
        while changed:
            changed = False
            for j in range(start, n - 2, 2):
                if work[j] <= work[j + 2]:
                    continue
                a, b, c = work[j], work[j + 1], work[j + 2]
                if b != a and b != c:
                    entry = CommutatorEntry(
                        conj=tuple(work[:j]) if j % 2 == 0 else tuple(reversed(work[j + 3:])),
                        pair1=(a, b),
                        pair2=(c, b),
                    )
                    spent += 2 * len(entry.conj) + 8
                    if budget is not None and spent > budget:
                        raise WordLengthCapExceeded(
                            "commutator decomposition", spent, budget
                        )
                    if j % 2 == 0:
                        left.append(entry)
                    else:
                        right.append(entry)  # reversed below: newest leftmost
                work[j], work[j + 2] = c, a
                changed = True
    right.reverse()
    if reduce_letters(work):
        raise AssertionError("sorted word failed to cancel; input not parity-trivial?")
    return left + right


def _alternate(images, letters) -> tuple[int, ...]:
    """Extend a letter table to even words the way every right inverse here
    does: the pair x.y maps to images[x] . images[y]^-1, and clause words
    invert by reversal. A letter missing from the table raises KeyError."""
    if len(letters) % 2 != 0:
        raise ValueError("right inverses are defined on even words")
    out = []
    for t, q in enumerate(letters):
        out += images[q][::-1] if t % 2 else images[q]
    return tuple(out)


class Homomorphisms:
    """Right-inverse tables for one connected 3-player game, built once and
    keyed by the questions the game asks.

    simple[a][q] is the smallest clause asking q of player a.
    paths[(alpha, beta)][q] is the spanning-tree path word of (alpha, q) in
    the pair graph pair[(alpha, beta)]; gadget[beta][q] is the gadget map's
    clause word for player-3 question q (tree path, then gadget word), and
    residue[beta][q] its player-3 residue.
    """

    def __init__(self, game: Game):
        if game.players != 3:
            raise ValueError("the refutation pipeline is specific to 3 players")
        if not build_hypergraph(game).is_connected():
            raise ValueError("pipeline requires a connected clause hypergraph")
        self.game = game
        self.simple: list[list[int | None]] = [
            [None] * game.alphabet for _ in range(3)
        ]
        for i, c in enumerate(game.clauses):
            for a, q in enumerate(c.questions):
                if self.simple[a][q] is None:
                    self.simple[a][q] = i
        asked = [sorted({c.questions[a] for c in game.clauses}) for a in range(3)]
        self.pair = {(a, b): PairGraph(game, a, b) for a, b in ((1, 0), (2, 0), (2, 1))}
        self.paths = {
            (a, b): {q: pg.path_word((a, q)) for q in asked[a]}
            for (a, b), pg in self.pair.items()
        }
        self.gadget = {
            beta: {
                q: self.paths[(2, beta)][q] + gadget_word(game, self.pair[(2, beta)], q)
                for q in asked[2]
            }
            for beta in (0, 1)
        }
        self.residue = {
            beta: {
                q: reduce_letters(game.clauses[i].questions[2] for i in word)
                for q, word in table.items()
            }
            for beta, table in self.gadget.items()
        }

    def phi_simple(self, player: int, letters) -> tuple[int, ...]:
        indices = []
        for q in letters:
            i = self.simple[player][q] if 0 <= q < self.game.alphabet else None
            if i is None:
                raise ValueError(f"question {q + 1} never asked of player {player + 1}")
            indices.append(i)
        return tuple(indices)

    def phi_pair(self, alpha: int, beta: int, letters) -> tuple[int, ...]:
        """Right inverse of the alpha projection that kills the image in
        beta whenever some clause product does: path out, inverse path back."""
        return _alternate(self.paths[(alpha, beta)], letters)

    def f_map(self, beta: int, letters) -> tuple[int, ...]:
        """Gadget-upgraded pair right inverse of the player-3 projection."""
        return _alternate(self.gadget[beta], letters)

    def compose_f(self, letters) -> tuple[int, ...]:
        """Player-3 residue of both gadget maps in sequence. Every clause
        asks player 3 exactly one question, so the residue of an f_map word
        is the alternating product of its letters' residues; each of those
        has odd length, so the intermediate word stays even."""
        y = reduce_letters(_alternate(self.residue[0], letters))
        return reduce_letters(_alternate(self.residue[1], y))

    def preprocess(self, w: tuple[int, ...]) -> tuple[tuple[int, ...], GroupWord]:
        """Clear players 1 and 2 exactly, preserving the abelian image.
        Returns the new clause word and its normal form."""
        if not abelianize_clause_word(self.game, w).is_sign():
            raise ValueError("preprocess input must abelianize to the sign element")
        red = reduce_clause_word(self.game, w)
        h = w + self.phi_simple(0, red.per_player[0][::-1])
        red_h = reduce_clause_word(self.game, h)
        w2 = h + self.phi_pair(1, 0, red_h.per_player[1][::-1])
        red2 = reduce_clause_word(self.game, w2)
        if red2.per_player[0] or red2.per_player[1]:
            raise PipelineError("preprocess failed to clear players 1 and 2")
        if not abelianize_clause_word(self.game, w2).is_sign():
            raise PipelineError("preprocess broke the abelian image")
        return w2, red2


def construct_sigma_word(
    game: Game, z, cap: int = DEFAULT_CAP
) -> RefutationCertificate:
    """Run the full pipeline on a connected 3-player game with witness z."""
    hom = Homomorphisms(game)

    def guard(stage: str, cw):
        if len(cw) > cap:
            raise WordLengthCapExceeded(stage, len(cw), cap)
        return cw

    w, red = hom.preprocess(witness_clause_word(game, z))
    guard("preprocess", w)

    y1 = red.per_player[2]
    if not is_parity_trivial(y1):
        raise PipelineError("player-3 residue not parity-trivial after preprocess")
    entries = decompose_pair_commutators(y1, budget=cap)

    # `red` stays the normal form of `w`: normal forms are unique, so the
    # product of the forms of w and of an appended piece is the form of both.
    for beta, stage in enumerate(("first gadget stage", "second gadget stage")):
        y = red.per_player[2]
        if beta and not is_parity_trivial(y):  # y1 was checked above
            raise PipelineError("player-3 residue escaped the commutator subgroup")
        piece = hom.phi_pair(2, beta, y)[::-1] + hom.f_map(beta, y)
        w = guard(stage, w + piece)
        red = multiply(red, reduce_clause_word(game, piece))
        if red.per_player[0] or red.per_player[1]:
            raise PipelineError(f"players 1, 2 reappeared after the {stage}")

    pieces: list[int] = []
    for entry in entries:
        fu = hom.compose_f(entry.conj)
        fp = hom.compose_f(entry.pair1)
        fq = hom.compose_f(entry.pair2)
        pieces += hom.phi_simple(2, fu)
        pieces += commutator(hom.phi_pair(2, 0, fp), hom.phi_pair(2, 1, fq))
        pieces += hom.phi_simple(2, fu[::-1])
        guard("commutator assembly", pieces)
    w4 = tuple(pieces)

    red4 = reduce_clause_word(game, w4)
    if red4.per_player[0] or red4.per_player[1] or red4.sigma:
        raise PipelineError("assembled commutator word leaks outside player 3")
    if red4.per_player[2] != red.per_player[2]:
        raise PipelineError("assembled word does not match the player-3 residue")

    final = guard("final word", w + w4[::-1])
    if multiply(red, inverse(red4)) != GroupWord.sign(3):
        raise PipelineError("final clause word does not reduce to the sign element")
    return RefutationCertificate(z=tuple(int(x) for x in z), sigma_word=final)


def refute(game: Game, cap: int = DEFAULT_CAP) -> RefutationCertificate:
    """Locate a refutable component, run the pipeline there, and map the
    certificate back to the original clause indices."""
    if game.players != 3:
        raise ValueError("constructive refutations are specific to 3 players")
    for comp in decompose_components(game):
        outcome = decide(comp.game)
        if not outcome.member:
            continue
        local = construct_sigma_word(comp.game, outcome.obstruction_z, cap=cap)
        z, sigma_word = comp.lift(game.num_clauses, local.z, local.sigma_word)
        reduced = reduce_clause_word(game, sigma_word)
        if reduced != GroupWord.sign(3) or not check_obstruction(game, z):
            raise PipelineError("certificate failed re-verification on the full game")
        return RefutationCertificate(z=z, sigma_word=sigma_word)
    raise ValueError("game has no parity refutation; nothing to construct")
