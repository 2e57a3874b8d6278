"""Constructive refutations: from an abelian witness to an explicit clause
sequence whose exact product is the sign element.

The pipeline mirrors the existence proof it implements. Starting from the
witness word (which equals the sign element only up to pair-commutators),
right inverses of the player projections clear players 1 and 2 exactly; the
residue on player 3 then lies in the pair-commutator subgroup, is decomposed
into conjugated pair commutators by transposition recording (each closest
pair of equal letters at opposite parities is swapped together and
cancelled), and is cancelled against a word assembled from commutators of
the two pair right inverses, with gadget words inserted so that the two
assemblies agree on every player. Every stage is an exact group identity,
checked before proceeding: a failed check is a bug and raises
AssertionError, while a word outgrowing the cap is a construction limit and
raises WordLengthCapExceeded. The witness word, preprocess's clearing
word, each decomposition entry, each gadget-stage piece and each assembly
entry are priced against the cap before they are built. Whether a word
equals the sign element up to pair-commutators is read off its normal form
(`words.abelianizes_to_sign`), on the witness word and on preprocess's
input and output. Clause words are carried as index sequences
throughout so membership in the clause subgroup is manifest. Each letter of
the assembled word is reduced once: a stage reduces only the piece it
appends and multiplies that normal form onto the one it carries. The
certificate is the assembled word with adjacent equal clauses cancelled,
which is exact because clauses are involutions.

Everything here requires a connected 3-player game; the driver `refute`
handles decomposition and index mapping for general instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .decider import decide, witness_clause_word
from .games import Game
from .graphs import PairGraph, build_hypergraph, decompose_components, gadget_words
from .words import (
    GroupWord, abelianizes_to_sign, commutator, inverse, is_parity_trivial, multiply,
    reduce_clause_word, reduce_letters,
)

# Clause-word length beyond which construction aborts.
DEFAULT_CAP = 10**6


class WordLengthCapExceeded(RuntimeError):
    """A construction stage outgrew the clause-word cap: a limit, not a bug."""

    def __init__(self, stage: str, length: int, cap: int):
        super().__init__(f"{stage}: clause word length {length} exceeds cap {cap}")
        self.stage = stage
        self.length = length
        self.cap = cap


def _check_cap(stage: str, length: int, cap: int):
    """Every cap test of the pipeline: abort the stage once its clause-word
    length exceeds the cap."""
    if length > cap:
        raise WordLengthCapExceeded(stage, length, cap)


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


def decompose_pair_commutators(letters, budget: int) -> list[CommutatorEntry]:
    """Write an even parity-trivial one-player word as an exact product of
    conjugated pair commutators.

    Repeatedly takes the closest pair of equal letters at opposite-parity
    positions (ties go to the leftmost pair), moves its right letter left by
    swaps of letters two apart until the pair is adjacent, and deletes the
    pair, a free cancellation. Each swap is an exact multiplication by one
    conjugated pair commutator, recorded on the left of the word when the
    prefix is even and on the right when the suffix is (one of the two
    always holds). Because the pair is closest, no letter between its ends
    equals its neighbour or the moved letter, so no swap's middle letter
    equals either end, where the swap would be exact without an entry.
    When the word is empty, the recorded entries multiply back to the input
    exactly.

    Each entry holds a conjugator copy as long as the word, and a pair far
    apart takes a swap per two letters between them, so the recorded
    letters can still grow as the cube of the word length; `budget` caps
    them, pricing each entry before its conjugator is copied, and aborts
    with the word-length diagnostic instead of exhausting memory.
    """
    work = list(letters)
    if len(work) % 2 != 0 or not is_parity_trivial(work):
        raise ValueError("decomposition needs an even parity-trivial word")
    left: list[CommutatorEntry] = []
    right: list[CommutatorEntry] = []
    spent = 0
    while work:
        # One pass keeps the last position of each letter at each parity
        # (`mine` is position p's parity); the closest partner of position p
        # is the last one at the other parity.
        mine: dict[int, int] = {}
        other: dict[int, int] = {}
        i = j = None
        gap = len(work)
        for p, x in enumerate(work):
            k = other.get(x)
            if k is not None and p - k < gap:
                i, j, gap = k, p, p - k
                if gap == 1:
                    break
            mine[x] = p
            mine, other = other, mine
        if j is None:
            raise AssertionError("parity-trivial word has no pair to cancel")
        for p in range(j, i + 1, -2):
            a, b, c = work[p - 2], work[p - 1], work[p]
            even_prefix = p % 2 == 0
            # Priced before the conjugator is copied: the prefix before the
            # three letters, or the suffix after them.
            spent += 2 * (p - 2 if even_prefix else len(work) - p - 1) + 8
            _check_cap("commutator decomposition", spent, budget)
            entry = CommutatorEntry(
                conj=tuple(work[:p - 2]) if even_prefix else tuple(reversed(work[p + 1:])),
                pair1=(a, b),
                pair2=(c, b),
            )
            if even_prefix:
                left.append(entry)
            else:
                right.append(entry)  # reversed below: newest leftmost
            work[p - 2], work[p] = c, a
        del work[i:i + 2]
    right.reverse()
    return left + right


def _priced(images, letters) -> int:
    """The length of `_alternate(images, letters)`, without building it."""
    return sum(map(len, map(images.__getitem__, letters)))


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
        self.simple: list[dict[int, int]] = [{}, {}, {}]
        for i, c in enumerate(game.clauses):
            for table, q in zip(self.simple, c.questions):
                table.setdefault(q, i)
        asked = [sorted(table) for table in self.simple]
        self.pair = {(a, b): PairGraph(game, a, b) for a, b in ((1, 0), (2, 0), (2, 1))}
        self.paths = {
            (a, b): {q: pg.path_word((a, q)) for q in asked[a]}
            for (a, b), pg in self.pair.items()
        }
        self.gadget = {
            beta: {
                q: self.paths[(2, beta)][q] + word
                for q, word in gadget_words(game, self.pair[(2, beta)], asked[2]).items()
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
        """Right inverse of the player projection, letter by letter. A
        question the player is never asked raises KeyError."""
        return tuple(map(self.simple[player].__getitem__, letters))

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

    def preprocess(
        self, w: tuple[int, ...], cap: int = DEFAULT_CAP
    ) -> tuple[tuple[int, ...], GroupWord]:
        """Clear players 1 and 2 exactly, preserving the abelian image.
        Returns the new clause word and its normal form.

        The word for player 1 has one clause per letter, so it is no longer
        than w. The word for player 2 has one path word per letter, so it
        can be far longer: its length is priced first, and the whole word
        is checked against the cap before that part is built."""
        red = reduce_clause_word(self.game, w)
        if not abelianizes_to_sign(red):
            raise ValueError("preprocess input must abelianize to the sign element")
        clear1 = self.phi_simple(0, red.per_player[0][::-1])
        red = multiply(red, reduce_clause_word(self.game, clear1))
        letters = red.per_player[1][::-1]
        _check_cap("preprocess", len(w) + len(clear1) + _priced(self.paths[(1, 0)], letters), cap)
        clear2 = self.phi_pair(1, 0, letters)
        red = multiply(red, reduce_clause_word(self.game, clear2))
        w += clear1 + clear2
        if red.per_player[0] or red.per_player[1]:
            raise AssertionError("preprocess failed to clear players 1 and 2")
        if not abelianizes_to_sign(red):
            raise AssertionError("preprocess broke the abelian image")
        return w, red


def construct_sigma_word(
    game: Game, z, cap: int = DEFAULT_CAP
) -> RefutationCertificate:
    """Run the full pipeline on a connected 3-player game with witness z."""
    hom = Homomorphisms(game)

    # The witness word holds 2|z_i| clauses for each i >= 2: its length is
    # priced before it is built, since z can have entries in the millions.
    _check_cap("witness word", 2 * sum(abs(int(x)) for x in z[1:]), cap)
    w, red = hom.preprocess(witness_clause_word(game, z), cap)

    # preprocess checked that the player-3 residue is parity-trivial.
    entries = decompose_pair_commutators(red.per_player[2], budget=cap)

    # `red` stays the normal form of `w`: normal forms are unique, so the
    # product of the forms of w and of an appended piece is the form of both.
    for beta, stage in enumerate(("first gadget stage", "second gadget stage")):
        y = red.per_player[2]
        if beta and not is_parity_trivial(y):  # preprocess checked the first
            raise AssertionError("player-3 residue escaped the commutator subgroup")
        # Priced before it is built: a tree path and a gadget-map word per letter.
        size = _priced(hom.paths[(2, beta)], y) + _priced(hom.gadget[beta], y)
        _check_cap(stage, len(w) + size, cap)
        piece = hom.phi_pair(2, beta, y)[::-1] + hom.f_map(beta, y)
        w += piece
        red = multiply(red, reduce_clause_word(game, piece))
        if red.per_player[0] or red.per_player[1]:
            raise AssertionError(f"players 1, 2 reappeared after the {stage}")

    # Entries are popped as they are assembled, so each conjugator copy is
    # freed once used.
    pieces: list[int] = []
    entries.reverse()
    while entries:
        entry = entries.pop()
        fu = hom.compose_f(entry.conj)
        fp = hom.compose_f(entry.pair1)
        fq = hom.compose_f(entry.pair2)
        # Priced before it is built: one clause per letter of fu, each way,
        # and a commutator [a, b] holds a and b twice.
        size = 2 * len(fu) + 2 * (_priced(hom.paths[(2, 0)], fp) + _priced(hom.paths[(2, 1)], fq))
        _check_cap("commutator assembly", len(pieces) + size, cap)
        pieces += hom.phi_simple(2, fu)
        pieces += commutator(hom.phi_pair(2, 0, fp), hom.phi_pair(2, 1, fq))
        pieces += hom.phi_simple(2, fu[::-1])

    red4 = reduce_clause_word(game, pieces)
    if red4.per_player[0] or red4.per_player[1] or red4.sigma:
        raise AssertionError("assembled commutator word leaks outside player 3")
    if red4.per_player[2] != red.per_player[2]:
        raise AssertionError("assembled word does not match the player-3 residue")

    # final = w . pieces^-1 with adjacent equal clauses cancelled: clauses
    # are involutions, so the cancelled word is the same group element.
    final = reduce_letters(chain(w, reversed(pieces)))
    _check_cap("final word", len(final), cap)
    del pieces
    if multiply(red, inverse(red4)) != GroupWord.sign(3):
        raise AssertionError("final clause word does not reduce to the sign element")
    return RefutationCertificate(z=tuple(int(x) for x in z), sigma_word=final)


def refute(game: Game, cap: int = DEFAULT_CAP) -> RefutationCertificate:
    """Locate a refutable component, run the pipeline there on its witness
    shortened in ℓ1 (`DecisionOutcome.short_witness`), and map the
    certificate back to the original clause indices.

    The pipeline checks the certificate exactly on the component. The lift
    relabels each player's questions injectively and pads z with zeros,
    which preserves free reduction, the parity sum and every incidence
    total, so the lifted certificate is checked too."""
    if game.players != 3:
        raise ValueError("constructive refutations are specific to 3 players")
    for comp in decompose_components(game):
        outcome = decide(comp.game)
        if not outcome.member:
            continue
        local = construct_sigma_word(comp.game, outcome.short_witness(), cap=cap)
        return RefutationCertificate(*comp.lift(game.num_clauses, local.z, local.sigma_word))
    raise ValueError("game has no parity refutation; nothing to construct")
