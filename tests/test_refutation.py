import dataclasses
import random

import pytest

from xorgames import refutation
from xorgames.decider import check_obstruction, decide, witness_clause_word
from xorgames.games import generate_random_game, make_game, parse_text
from xorgames.graphs import build_hypergraph, decompose_components
from xorgames.refutation import (
    DEFAULT_CAP,
    CommutatorEntry,
    Homomorphisms,
    construct_sigma_word,
    decompose_pair_commutators,
    refute,
    WordLengthCapExceeded,
)
from xorgames.words import (
    GroupWord, abelianizes_to_sign, is_parity_trivial, multiply, reduce_clause_word, reduce_letters,
)

from helpers import commutator_entry_letters, identity_word

PAIR = parse_text("1 1 1 0\n1 1 1 1")
GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")


def connected_games(rng, count, alphabet=3, max_clauses=6, member=None):
    """Seeded stream of connected 3-player games, optionally filtered by
    decider verdict."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 60000:
        attempts += 1
        game = generate_random_game(
            3, rng.randrange(1, alphabet + 1), rng.randrange(2, max_clauses + 1),
            seed=rng.randrange(10**9),
        )
        comps = decompose_components(game)
        if len(comps) != 1:
            continue
        game = comps[0].game  # compacted: every question asked
        if member is not None and decide(game).member != member:
            continue
        out.append(game)
    assert len(out) == count, f"only found {len(out)} games"
    return out


def _is_zero(word: GroupWord) -> bool:
    """Whether a normal form's abelian image is trivial: every player's
    letters parity-trivial, and no sign."""
    return word.sigma == 0 and all(map(is_parity_trivial, word.per_player))


def random_even_letters(rng, alphabet, max_pairs=3):
    return tuple(rng.randrange(alphabet) for _ in range(2 * rng.randrange(1, max_pairs + 1)))


# --- right inverses ------------------------------------------------------


def test_simple_right_inverse_law():
    rng = random.Random(127)
    for game in connected_games(rng, 40):
        hom = Homomorphisms(game)
        for alpha in range(3):
            letters = tuple(
                game.clauses[rng.randrange(game.num_clauses)].questions[alpha]
                for _ in range(rng.randrange(0, 5))
            )
            word = hom.phi_simple(alpha, letters)
            red = reduce_clause_word(game, word)
            assert red.per_player[alpha] == reduce_letters(letters)


def test_simple_right_inverse_empty():
    hom = Homomorphisms(GHZ)
    assert len(hom.phi_simple(0, ())) == 0


def test_simple_right_inverse_unasked_question():
    hom = Homomorphisms(GHZ)
    for q in (7, -1):
        with pytest.raises(KeyError):
            hom.phi_simple(0, (q,))
    padded = parse_text("# alphabet: 2\n1 1 1 0\n1 1 1 1")
    with pytest.raises(KeyError):
        Homomorphisms(padded).phi_simple(0, (1,))


def test_simple_right_inverse_preserves_commutator_subgroup():
    # Commutators of even pairs map to clause words whose abelian image
    # vanishes entirely (the image stays in the commutator subgroup).
    rng = random.Random(131)
    for game in connected_games(rng, 30):
        hom = Homomorphisms(game)
        for alpha in range(3):
            asked = sorted({c.questions[alpha] for c in game.clauses})
            u = tuple(rng.choice(asked) for _ in range(2))
            v = tuple(rng.choice(asked) for _ in range(2))
            letters = u + v + tuple(reversed(u)) + tuple(reversed(v))
            assert is_parity_trivial(letters)  # commutators of even pairs
            word = hom.phi_simple(alpha, letters)
            assert _is_zero(reduce_clause_word(game, word))


def test_pair_right_inverse_a1():
    rng = random.Random(137)
    checked = 0
    for game in connected_games(rng, 60):
        hom = Homomorphisms(game)
        for alpha, beta in ((1, 0), (2, 0), (2, 1)):
            asked = sorted({c.questions[alpha] for c in game.clauses})
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 4)))
            word = hom.phi_pair(alpha, beta, letters)
            red = reduce_clause_word(game, word)
            assert red.per_player[alpha] == reduce_letters(letters)
            checked += 1
    assert checked >= 150


def test_pair_right_inverse_kills_squares():
    hom = Homomorphisms(GHZ)
    word = hom.phi_pair(2, 0, (1, 1))
    assert reduce_clause_word(GHZ, word) == identity_word(3)


def test_pair_right_inverse_a2():
    # Hypothesis: v is the alpha part of an even clause product that cancels
    # on beta. Build such products from clause pairs agreeing on beta.
    rng = random.Random(139)
    checked = 0
    for game in connected_games(rng, 120):
        hom = Homomorphisms(game)
        for alpha, beta in ((1, 0), (2, 0), (2, 1)):
            pairs = [
                (i, j)
                for i in range(game.num_clauses)
                for j in range(game.num_clauses)
                if i != j
                and game.clauses[i].questions[beta] == game.clauses[j].questions[beta]
            ]
            if not pairs:
                continue
            indices = []
            for _ in range(rng.randrange(1, 3)):
                indices.extend(rng.choice(pairs))
            h = tuple(indices)
            red_h = reduce_clause_word(game, h)
            assert red_h.per_player[beta] == ()
            v = red_h.per_player[alpha]
            word = hom.phi_pair(alpha, beta, v)
            red = reduce_clause_word(game, word)
            assert red.per_player[beta] == ()
            checked += 1
    assert checked >= 100


def test_pair_right_inverse_rejects_odd_words():
    hom = Homomorphisms(GHZ)
    with pytest.raises(ValueError):
        hom.phi_pair(2, 0, (1,))
    with pytest.raises(ValueError):
        hom.f_map(0, (1,))


# --- preprocessing -------------------------------------------------------


def test_preprocess_pair_game():
    hom = Homomorphisms(PAIR)
    w = witness_clause_word(PAIR, (1, -1))
    out, red = hom.preprocess(w)
    assert red == reduce_clause_word(PAIR, out)
    assert red.per_player[0] == () and red.per_player[1] == ()
    assert abelianizes_to_sign(reduce_clause_word(PAIR, out))


def test_preprocess_random_member_games():
    rng = random.Random(149)
    for game in connected_games(rng, 25, member=True):
        hom = Homomorphisms(game)
        w = witness_clause_word(game, decide(game).obstruction_z)
        out, red = hom.preprocess(w)
        assert red == reduce_clause_word(game, out)
        assert red.per_player[0] == () and red.per_player[1] == ()
        assert abelianizes_to_sign(reduce_clause_word(game, out))
        assert len(out) % 2 == 0
        # the player-3 residue lands in the commutator subgroup
        assert is_parity_trivial(red.per_player[2])


def test_preprocess_prices_its_clearing_word_before_building_it(monkeypatch):
    # With the cap one below the word preprocess returns, it aborts with
    # that word's length and builds no word for player 2.
    checked = 0
    games = [comp.game for seed in range(30)
             for comp in decompose_components(generate_random_game(3, 6, 30, seed))]
    for game in filter(lambda g: decide(g).member, games):
        hom = Homomorphisms(game)
        w = witness_clause_word(game, decide(game).obstruction_z)
        out, _ = hom.preprocess(w)
        assert hom.preprocess(w, cap=len(out))[0] == out
        built = []
        monkeypatch.setattr(hom, "phi_pair", lambda *args: built.append(args))
        with pytest.raises(WordLengthCapExceeded) as err:
            hom.preprocess(w, cap=len(out) - 1)
        assert (err.value.stage, err.value.length) == ("preprocess", len(out))
        assert built == []
        monkeypatch.undo()
        player1 = reduce_clause_word(game, w).per_player[0]
        checked += len(out) > len(w) + len(player1)  # player 2 needed clearing
    assert checked >= 4


def test_preprocess_rejects_wrong_abelianization():
    # Not the sign element up to pair-commutators: the identity, a word with
    # the sign bit whose questions do not balance, and an odd word.
    hom = Homomorphisms(GHZ)
    for w in ((0, 0), (0, 1), (0,)):
        with pytest.raises(ValueError, match="^preprocess input must abelianize to the sign element$"):
            hom.preprocess(w)


# --- gadget maps ---------------------------------------------------------


def test_gadget_map_kills_squares():
    rng = random.Random(151)
    for game in connected_games(rng, 15):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        q = rng.choice(asked)
        for beta in (0, 1):
            word = hom.f_map(beta, (q, q))
            assert reduce_clause_word(game, word) == identity_word(3)


def test_gadget_map_b1():
    # If the plain pair inverse of v cancels on beta then so does f's image.
    rng = random.Random(157)
    checked = 0
    for game in connected_games(rng, 80):
        hom = Homomorphisms(game)
        for beta in (0, 1):
            pg = hom.pair[(2, beta)]
            asked = sorted({c.questions[2] for c in game.clauses})
            by_comp = {}
            for q in asked:
                by_comp.setdefault(pg.component_id[(2, q)], []).append(q)
            groups = [qs for qs in by_comp.values() if qs]
            letters = []
            for _ in range(rng.randrange(1, 3)):
                qs = rng.choice(groups)
                letters.extend((rng.choice(qs), rng.choice(qs)))
            letters = tuple(letters)
            base = reduce_clause_word(game, hom.phi_pair(2, beta, letters))
            if base.per_player[beta]:
                continue
            image = reduce_clause_word(game, hom.f_map(beta, letters))
            assert image.per_player[beta] == ()
            checked += 1
    assert checked >= 80


def test_gadget_map_b2():
    # On the other player of {1, 2} the gadget map agrees with the plain
    # pair right inverse.
    rng = random.Random(163)
    checked = 0
    for game in connected_games(rng, 60):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        for beta in (0, 1):
            alpha_other = 1 - beta
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 3)))
            lhs = reduce_clause_word(game, hom.f_map(beta, letters))
            rhs = reduce_clause_word(game, hom.phi_pair(2, beta, letters))
            assert lhs.per_player[alpha_other] == rhs.per_player[alpha_other]
            checked += 1
    assert checked >= 100


def test_gadget_map_b3():
    # The beta image of the pair inverse of f's player-3 residue vanishes.
    rng = random.Random(167)
    checked = 0
    for game in connected_games(rng, 60):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        for beta in (0, 1):
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 3)))
            residue = reduce_clause_word(game, hom.f_map(beta, letters)).per_player[2]
            word = hom.phi_pair(2, beta, residue)
            red = reduce_clause_word(game, word)
            assert red.per_player[beta] == ()
            checked += 1
    assert checked >= 100


def test_gadget_map_b4():
    # Chaining through the other pair inverse sees f as the plain inverse.
    rng = random.Random(173)
    checked = 0
    for game in connected_games(rng, 60):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        for beta in (0, 1):
            alpha_other = 1 - beta
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 3)))
            residue = reduce_clause_word(game, hom.f_map(beta, letters)).per_player[2]
            lhs = reduce_clause_word(game, hom.phi_pair(2, alpha_other, residue))
            rhs = reduce_clause_word(game, hom.phi_pair(2, alpha_other, letters))
            assert lhs.per_player[alpha_other] == rhs.per_player[alpha_other]
            checked += 1
    assert checked >= 100


def test_gadget_map_stays_in_commutator_subgroup():
    # Parity-trivial input -> image has vanishing abelianization and no sign.
    rng = random.Random(179)
    checked = 0
    for game in connected_games(rng, 40):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        u = tuple(rng.choice(asked) for _ in range(2))
        v = tuple(rng.choice(asked) for _ in range(2))
        letters = u + v + tuple(reversed(u)) + tuple(reversed(v))
        assert is_parity_trivial(letters)  # commutators of even pairs
        for beta in (0, 1):
            word = hom.f_map(beta, letters)
            assert _is_zero(reduce_clause_word(game, word))
            assert reduce_clause_word(game, word).sigma == 0
            checked += 1
    assert checked >= 30


def whole_word_compose_f(game, hom, letters):
    """compose_f by definition: both gadget maps as whole clause words."""
    y = reduce_clause_word(game, hom.f_map(0, letters)).per_player[2]
    return reduce_clause_word(game, hom.f_map(1, y)).per_player[2]


def test_compose_f_matches_whole_word_definition():
    rng = random.Random(197)
    checked = 0
    for game in connected_games(rng, 60, alphabet=4, max_clauses=8):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        for _ in range(3):
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(4)))
            assert hom.compose_f(letters) == whole_word_compose_f(game, hom, letters)
            checked += 1
    assert checked >= 150


def test_compose_f_matches_on_commutator_entries():
    # The words the pipeline feeds it: conjugators and pairs of the
    # decomposed player-3 residue of a preprocessed witness word. Most small
    # residues cancel in few swaps, so it takes many games to reach the floor.
    rng = random.Random(199)
    conjugators = pairs = 0
    for game in connected_games(rng, 200, alphabet=5, max_clauses=15, member=True):
        hom = Homomorphisms(game)
        _, red = hom.preprocess(witness_clause_word(game, decide(game).obstruction_z))
        for entry in decompose_pair_commutators(red.per_player[2], budget=DEFAULT_CAP):
            for letters in (entry.conj, entry.pair1, entry.pair2):
                assert hom.compose_f(letters) == whole_word_compose_f(game, hom, letters)
            conjugators += bool(entry.conj)
            pairs += 2
    assert conjugators >= 50 and pairs >= 100


def test_gadget_map_rejects_unasked_questions_every_time():
    game = parse_text("1 1 1 0\n1 1 1 1\n2 2 1 0")  # question 2 never asked of player 3
    hom = Homomorphisms(game)
    for _ in range(2):
        with pytest.raises(KeyError):
            hom.compose_f((0, 1))
    assert hom.compose_f((0, 0)) == ()


def test_refutation_builds_the_hypergraph_once(monkeypatch):
    import xorgames.graphs
    import xorgames.refutation

    calls = []
    original = xorgames.graphs.build_hypergraph

    def counting(game):
        calls.append(game)
        return original(game)

    for module in (xorgames.graphs, xorgames.refutation):
        monkeypatch.setattr(module, "build_hypergraph", counting)
    rng = random.Random(211)
    for game in connected_games(rng, 5, alphabet=5, max_clauses=15, member=True):
        calls.clear()
        construct_sigma_word(game, decide(game).obstruction_z)
        assert calls == [game]


# --- commutator decomposition -------------------------------------------


def test_decompose_tiny_commutator():
    letters = (0, 1, 2, 0, 1, 2)  # [x0 x1, x2 x1]
    entries = decompose_pair_commutators(letters, budget=DEFAULT_CAP)
    prod = identity_word(1)
    for e in entries:
        prod = multiply(prod, GroupWord((commutator_entry_letters(e),)))
    assert prod == GroupWord((tuple(letters),))


def random_parity_trivial_word(rng, alphabet, max_half):
    """Two orderings of one random multiset, interleaved: every letter occurs
    equally often at odd and even positions. Lengths 0 and 2 included."""
    half = [rng.randrange(alphabet) for _ in range(rng.randrange(max_half + 1))]
    other = half[:]
    rng.shuffle(other)
    return tuple(x for pair in zip(half, other) for x in pair)


def test_decompose_remultiplies_exactly():
    rng = random.Random(181)
    lengths = set()
    for trial in range(600):
        # Small alphabets repeat letters often; larger ones give long swaps.
        letters = random_parity_trivial_word(rng, (2, 4, 9)[trial % 3], 12)
        assert is_parity_trivial(letters)
        lengths.add(len(letters))
        entries = decompose_pair_commutators(letters, budget=DEFAULT_CAP)
        prod = identity_word(1)
        for e in entries:
            assert len(e.conj) % 2 == 0
            # No entry for a swap whose middle letter equals either end:
            # such a swap is exact without one.
            (a, b), (c, d) = e.pair1, e.pair2
            assert b == d and b != a and b != c and a != c
            prod = multiply(prod, GroupWord((commutator_entry_letters(e),)))
        assert prod == GroupWord((letters,))
        assert decompose_pair_commutators(letters, budget=DEFAULT_CAP) == entries
    assert {0, 2} <= lengths and max(lengths) == 24


def test_decompose_cancels_the_closest_pair_first():
    # The adjacent (1, 1) cancels first, leaving (0, 2, 3, 0, 2, 3). Its three
    # closest pairs are all three apart; the leftmost, 0 at positions 0 and
    # 3, goes first: one swap over the middle letter 3, recorded on the
    # right because the prefix (0,) is odd. The rest cancels freely.
    entries = decompose_pair_commutators((0, 2, 3, 0, 1, 1, 2, 3), budget=DEFAULT_CAP)
    assert entries == [CommutatorEntry(conj=(3, 2), pair1=(2, 3), pair2=(0, 3))]


def test_decompose_rejects_nontrivial_input():
    with pytest.raises(ValueError):
        decompose_pair_commutators((0, 1), budget=DEFAULT_CAP)
    with pytest.raises(ValueError):
        decompose_pair_commutators((0, 1, 2), budget=DEFAULT_CAP)
    rng = random.Random(183)
    rejected = 0
    while rejected < 200:
        letters = tuple(rng.randrange(3) for _ in range(2 * rng.randrange(1, 6)))
        if is_parity_trivial(letters):
            continue
        with pytest.raises(ValueError):
            decompose_pair_commutators(letters, budget=DEFAULT_CAP)
        rejected += 1


def test_decompose_budget_aborts_with_the_cap_diagnostic():
    letters = (0, 1, 2, 0, 1, 2)  # one swap under a 2-letter conjugator: 12 letters
    assert len(decompose_pair_commutators(letters, budget=12)) == 1
    with pytest.raises(WordLengthCapExceeded) as err:
        decompose_pair_commutators(letters, budget=11)
    assert str(err.value) == "commutator decomposition: clause word length 12 exceeds cap 11"


def test_decompose_prices_each_entry_before_copying_its_conjugator(monkeypatch):
    # On gen -k 3 -n 20 -m 100 --seed 0 under cap 1000, the seventh entry,
    # with a 208-letter conjugator, would take the decomposition to 1,368
    # letters: the abort comes before that entry is built.
    built = []

    def counting(*args, **kwargs):
        built.append(CommutatorEntry(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(refutation, "CommutatorEntry", counting)
    with pytest.raises(WordLengthCapExceeded) as err:
        refute(generate_random_game(3, 20, 100, seed=0), cap=1000)
    assert str(err.value) == "commutator decomposition: clause word length 1368 exceeds cap 1000"
    assert len(built) == 6


def test_decompose_empty():
    assert decompose_pair_commutators((), budget=DEFAULT_CAP) == []


# --- full pipeline -------------------------------------------------------


def test_construct_sigma_word_pair_game():
    cert = construct_sigma_word(PAIR, (1, -1))
    assert reduce_clause_word(PAIR, cert.sigma_word) == GroupWord.sign(3)


def test_construct_sigma_word_fuzz():
    rng = random.Random(191)
    games = connected_games(rng, 60, alphabet=3, max_clauses=6, member=True)
    lengths = []
    for game in games:
        z = decide(game).obstruction_z
        cert = construct_sigma_word(game, z)
        assert reduce_clause_word(game, cert.sigma_word) == GroupWord.sign(3)
        assert abelianizes_to_sign(reduce_clause_word(game, cert.sigma_word))
        assert len(cert.sigma_word) % 2 == 0
        lengths.append(len(cert.sigma_word))
    assert max(lengths) >= 2


def test_construct_respects_cap():
    rng = random.Random(193)
    game = connected_games(rng, 1, alphabet=3, max_clauses=6, member=True)[0]
    z = decide(game).obstruction_z
    with pytest.raises(WordLengthCapExceeded):
        construct_sigma_word(game, z, cap=1)


def test_cap_aborts_cleanly_on_large_instances():
    # A 200-clause instance that certifies under the default cap, with 7,022
    # clauses, aborts under a smaller one: the pipeline fails fast with the
    # diagnostic instead of exhausting memory in the commutator decomposition.
    game = generate_random_game(3, 40, 200, seed=1)
    cert = refute(game)
    assert len(cert.sigma_word) == 7022
    assert reduce_clause_word(game, cert.sigma_word) == GroupWord.sign(3)
    with pytest.raises(WordLengthCapExceeded) as err:
        refute(game, cap=5000)
    assert (err.value.stage, err.value.cap) == ("commutator decomposition", 5000)
    assert err.value.length > 5000


def test_witness_word_is_priced_before_it_is_built(monkeypatch):
    # The smallest odd Smith basis vector of this 400-clause game has
    # entries in the millions, and shortened in ℓ1 it still prices the
    # witness word at 1,649,810 clauses, which would take seconds to build
    # and reduce. The cap stops it unbuilt.
    game = generate_random_game(3, 80, 400, seed=0)

    def unbuilt(game, z):
        raise AssertionError("the witness word was built")

    monkeypatch.setattr(refutation, "witness_clause_word", unbuilt)
    with pytest.raises(WordLengthCapExceeded) as err:
        refute(game)
    assert (err.value.stage, err.value.length, err.value.cap) == ("witness word", 1649810, DEFAULT_CAP)


def test_gadget_and_assembly_pieces_are_priced_before_they_are_built(monkeypatch):
    # Each gadget-stage piece and each commutator-assembly entry is checked
    # against the cap at the length its word will have once the piece is
    # appended, before the piece is built. The prices are the built lengths,
    # which `reduce_clause_word` sees: three preprocess words, the two
    # gadget pieces, then the whole assembly. A cap one below a price aborts
    # at that check with that length, and nothing more is built.
    events, reduced = [], []
    check_cap, reduce_word = refutation._check_cap, refutation.reduce_clause_word
    f_map, commutator = Homomorphisms.f_map, refutation.commutator

    def checking(stage, length, cap):
        events.append((stage, length))
        check_cap(stage, length, cap)

    def reducing(game, cw):
        reduced.append(len(cw))
        return reduce_word(game, cw)

    def building_gadget(self, beta, letters):
        events.append("gadget piece")
        return f_map(self, beta, letters)

    def building_entry(a, b):
        events.append("assembly entry")
        return commutator(a, b)

    monkeypatch.setattr(refutation, "_check_cap", checking)
    monkeypatch.setattr(refutation, "reduce_clause_word", reducing)
    monkeypatch.setattr(Homomorphisms, "f_map", building_gadget)
    monkeypatch.setattr(refutation, "commutator", building_entry)
    cases = (
        (16, 1, "first gadget stage"),
        (16, 1, "second gadget stage"),
        (12, 3, "commutator assembly"),
    )
    stages = {stage for _, _, stage in cases}
    for n, seed, stage in cases:
        game = decompose_components(generate_random_game(3, n, 5 * n, seed))[0].game
        z = decide(game).short_witness()
        events.clear()
        reduced.clear()
        construct_sigma_word(game, z)
        checks = [e for e in events if isinstance(e, tuple)]
        priced = dict(checks)  # the last check of each stage
        w = sum(reduced[:3])
        assert priced["first gadget stage"] == w + reduced[3]
        assert priced["second gadget stage"] == w + reduced[3] + reduced[4]
        assert priced.get("commutator assembly", 0) == reduced[5]
        # The last check of the stage, which exceeds every check before it.
        at = events.index((stage, priced[stage]))
        assert max(e[1] for e in events[:at] if isinstance(e, tuple)) < priced[stage]
        run = events[:at + 1]
        events.clear()
        with pytest.raises(WordLengthCapExceeded) as err:
            construct_sigma_word(game, z, cap=priced[stage] - 1)
        assert (err.value.stage, err.value.length) == (stage, priced[stage])
        assert events == run
        # Every piece checked before the failing one was built; that one was not.
        piece_checks = sum(1 for e in run if isinstance(e, tuple) and e[0] in stages)
        assert run.count("gadget piece") + run.count("assembly entry") == piece_checks - 1


def test_witness_word_price_is_its_length():
    rng = random.Random(197)
    for game in connected_games(rng, 20, member=True):
        z = decide(game).obstruction_z
        price = 2 * sum(map(abs, z[1:]))
        assert len(witness_clause_word(game, z)) == price
        with pytest.raises(WordLengthCapExceeded) as err:
            construct_sigma_word(game, z, cap=price - 1)
        assert (err.value.stage, err.value.length) == ("witness word", price)
        try:
            construct_sigma_word(game, z, cap=price)
        except WordLengthCapExceeded as e:
            assert e.stage != "witness word"


def _refutable_components(count):
    """Refutable components of generate_random_game(3, n, 5n, seed) for
    seed = 1, 2, ... with n from 4 to 10, until count are found."""
    out = []
    for seed in range(1, 10**4):
        n = 4 + seed % 7
        for comp in decompose_components(generate_random_game(3, n, 5 * n, seed)):
            if decide(comp.game).member:
                out.append(comp.game)
        if len(out) >= count:
            return out[:count]
    raise AssertionError(f"only found {len(out)} refutable components")


def test_short_witness_is_a_valid_odd_witness_no_longer_than_decides():
    shortened = kept = 0
    for game in _refutable_components(100):
        outcome = decide(game)
        z = outcome.short_witness()
        # Balanced at every (player, question) and odd against the parities.
        assert check_obstruction(game, z)
        before, after = sum(map(abs, outcome.obstruction_z)), sum(map(abs, z))
        assert after <= before
        assert z == outcome.short_witness() == decide(game).short_witness()
        if before == 2:
            # Already as short as a witness gets: kept, and the even basis
            # vectors are never built.
            unbuilt = dataclasses.replace(outcome, even_basis=None)
            assert unbuilt.short_witness() == z == outcome.obstruction_z
            kept += 1
        shortened += after < before
    assert kept >= 20 and shortened >= 10


def test_refutation_words_of_the_refute3_corpus_stay_short():
    # The benchmark's refute3 games: their sixteen words hold 21,400
    # clauses from decide's witnesses and 7,036 from the shortened ones.
    total = 0
    for n in (12, 16, 20, 24):
        for seed in range(4):
            game = generate_random_game(3, n, 5 * n, seed)
            cert = refute(game)
            assert reduce_clause_word(game, cert.sigma_word) == GroupWord.sign(3)
            total += len(cert.sigma_word)
    assert total <= 8000


def test_refute_driver_multi_component():
    # GHZ (perfect) plus a shifted contradictory pair: the driver must find
    # the refutable component and map indices back.
    text = "1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1\n3 3 3 0\n3 3 3 1"
    game = parse_text(text)
    assert len(decompose_components(game)) == 2
    cert = refute(game)
    assert reduce_clause_word(game, cert.sigma_word) == GroupWord.sign(3)
    assert set(cert.sigma_word) <= {4, 5}
    assert cert.z[:4] == (0, 0, 0, 0)


def _disjoint_union(rng, games):
    """One game whose components are the given games, each player's
    questions shifted past the previous games' (with a random gap of unasked
    questions), and the clause order shuffled."""
    rows = []
    offset = [0, 0, 0]
    for game in games:
        shift = [o + rng.randrange(3) for o in offset]
        rows += [
            (tuple(q + 1 + d for q, d in zip(c.questions, shift)), c.parity)
            for c in game.clauses
        ]
        offset = [d + game.alphabet for d in shift]
    rng.shuffle(rows)
    return make_game(rows)


def test_refute_lifts_a_certificate_valid_on_the_full_game():
    # `refute` checks the certificate on the component only; the lift to
    # the full game's clause indices and questions must keep it valid.
    rng = random.Random(457)
    refutable = connected_games(rng, 20, alphabet=3, max_clauses=6, member=True)
    others = connected_games(rng, 40, alphabet=3, max_clauses=6)
    for i, game in enumerate(refutable):
        parts = [game] + others[2 * i:2 * i + 1 + i % 2]
        rng.shuffle(parts)
        full = _disjoint_union(rng, parts)
        assert len(decompose_components(full)) == len(parts)
        cert = refute(full)
        assert reduce_clause_word(full, cert.sigma_word) == GroupWord.sign(3)
        assert check_obstruction(full, cert.z)


def test_refute_reduces_each_letter_once(monkeypatch):
    # Construction carries the normal form of its growing word: each letter
    # of the assembled word goes through one reduction, and nothing is
    # reduced again after the lift. The last `reduce_letters` call of the
    # pipeline is the free cancellation of the assembled word into the
    # certificate, so its input length is the assembled length.
    reduced = []
    cancelled = []
    original = refutation.reduce_clause_word
    original_letters = refutation.reduce_letters

    def counting(game, cw):
        reduced.append(len(cw))
        return original(game, cw)

    def recording(letters):
        letters = tuple(letters)
        cancelled.append(len(letters))
        return original_letters(letters)

    monkeypatch.setattr(refutation, "reduce_clause_word", counting)
    monkeypatch.setattr(refutation, "reduce_letters", recording)
    games = [generate_random_game(3, n, 5 * n, seed) for n in (12, 16) for seed in (1, 3)]
    games += connected_games(random.Random(461), 30, alphabet=3, max_clauses=6, member=True)
    shortened = 0
    for game in games:
        reduced.clear()
        cert = refute(game)
        assert sum(reduced) == cancelled[-1] >= len(cert.sigma_word)
        assert reduce_letters(cert.sigma_word) == cert.sigma_word
        shortened += cancelled[-1] > len(cert.sigma_word)
    assert shortened > 0


def test_refute_rejects_perfect_games():
    with pytest.raises(ValueError):
        refute(GHZ)


def test_refute_rejects_wrong_player_count():
    chsh = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")
    with pytest.raises(ValueError):
        refute(chsh)
