import random

import pytest

from xorgames.decider import abelianize_clause_word, decide, witness_clause_word
from xorgames.games import generate_random_game, parse_text
from xorgames.graphs import build_hypergraph, decompose_components
from xorgames.refutation import (
    Homomorphisms,
    construct_sigma_word,
    decompose_pair_commutators,
    refute,
    WordLengthCapExceeded,
)
from xorgames.words import GroupWord, is_parity_trivial, multiply, reduce_clause_word, reduce_letters

from helpers import commutator_entry_letters

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


def _is_zero(vec) -> bool:
    """Whether an abelian image is trivial: no exponent and no sign."""
    return vec.sigma == 0 and not any(map(any, vec.per_player))


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
    with pytest.raises(ValueError):
        hom.phi_simple(0, (7,))
    padded = parse_text("# alphabet: 2\n1 1 1 0\n1 1 1 1")
    with pytest.raises(ValueError):
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
            vec = abelianize_clause_word(game, word)
            assert _is_zero(vec)


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
    assert reduce_clause_word(GHZ, word) == GroupWord.identity(3)


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
    assert abelianize_clause_word(PAIR, out).is_sign()


def test_preprocess_random_member_games():
    rng = random.Random(149)
    for game in connected_games(rng, 25, member=True):
        hom = Homomorphisms(game)
        w = witness_clause_word(game, decide(game).obstruction_z)
        out, red = hom.preprocess(w)
        assert red == reduce_clause_word(game, out)
        assert red.per_player[0] == () and red.per_player[1] == ()
        assert abelianize_clause_word(game, out).is_sign()
        assert len(out) % 2 == 0
        # the player-3 residue lands in the commutator subgroup
        assert is_parity_trivial(red.per_player[2])


def test_preprocess_rejects_wrong_abelianization():
    hom = Homomorphisms(GHZ)
    with pytest.raises(ValueError):
        hom.preprocess((0, 0))


# --- gadget maps ---------------------------------------------------------


def test_gadget_map_kills_squares():
    rng = random.Random(151)
    for game in connected_games(rng, 15):
        hom = Homomorphisms(game)
        asked = sorted({c.questions[2] for c in game.clauses})
        q = rng.choice(asked)
        for beta in (0, 1):
            word = hom.f_map(beta, (q, q))
            assert reduce_clause_word(game, word) == GroupWord.identity(3)


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
            assert _is_zero(abelianize_clause_word(game, word))
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
    # decomposed player-3 residue of a preprocessed witness word.
    rng = random.Random(199)
    conjugators = pairs = 0
    for game in connected_games(rng, 20, alphabet=5, max_clauses=15, member=True):
        hom = Homomorphisms(game)
        _, red = hom.preprocess(witness_clause_word(game, decide(game).obstruction_z))
        for entry in decompose_pair_commutators(red.per_player[2]):
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
    entries = decompose_pair_commutators(letters)
    prod = GroupWord.identity(1)
    for e in entries:
        prod = multiply(prod, GroupWord((commutator_entry_letters(e),)))
    assert prod == GroupWord((tuple(letters),))


def test_decompose_remultiplies_exactly():
    rng = random.Random(181)
    done = 0
    while done < 300:
        half = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
        letters = []
        # interleave two random orderings of the same multiset
        other = half[:]
        rng.shuffle(other)
        for a, b in zip(half, other):
            letters.extend((a, b))
        if not is_parity_trivial(letters):
            continue
        entries = decompose_pair_commutators(letters)
        prod = GroupWord.identity(1)
        for e in entries:
            assert len(e.conj) % 2 == 0
            prod = multiply(prod, GroupWord((commutator_entry_letters(e),)))
        assert prod == GroupWord((tuple(letters),))
        done += 1


def test_decompose_rejects_nontrivial_input():
    with pytest.raises(ValueError):
        decompose_pair_commutators((0, 1))
    with pytest.raises(ValueError):
        decompose_pair_commutators((0, 1, 2))


def test_decompose_empty():
    assert decompose_pair_commutators(()) == []


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
        assert abelianize_clause_word(game, cert.sigma_word).is_sign()
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
    # A 200-clause instance whose certificate would exceed the default cap:
    # the pipeline must fail fast with the diagnostic instead of exhausting
    # memory inside the commutator decomposition.
    game = generate_random_game(3, 40, 200, seed=1)
    with pytest.raises(WordLengthCapExceeded) as err:
        refute(game)
    assert err.value.cap == 10**6


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


def test_refute_rejects_perfect_games():
    with pytest.raises(ValueError):
        refute(GHZ)


def test_refute_rejects_wrong_player_count():
    chsh = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")
    with pytest.raises(ValueError):
        refute(chsh)
