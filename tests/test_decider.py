import random

import pytest

from xorgames.decider import (
    abelianize_clause_word,
    check_obstruction,
    decide,
    incidence_matrix,
    witness_clause_word,
)
from xorgames.games import generate_random_game, parse_text

from helpers import DenseMatrix

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
PAIR = parse_text("1 1 1 0\n1 1 1 1")
CHSH = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")


def test_incidence_matrix_shape():
    b = incidence_matrix(GHZ)
    assert (b.rows, b.cols) == (4, 6)
    assert b.data[1] == (1, 0, 0, 1, 0, 1)  # clause (1,2,2)


def test_abelianize_cancelling_pair():
    vec = abelianize_clause_word(PAIR, (0, 0))
    assert vec.per_player == ((0,),) * 3 and vec.sigma == 0


def test_abelianize_sign_rule():
    game = parse_text("1 1 1 0\n2 2 2 1")
    vec = abelianize_clause_word(game, (0, 1))
    assert vec.per_player == ((-1, 1),) * 3
    assert vec.sigma == 1


def test_abelianize_rejects_odd_words():
    with pytest.raises(ValueError):
        abelianize_clause_word(GHZ, (0,))


def test_abelianize_invariant_under_parity_permutation():
    rng = random.Random(61)
    for _ in range(200):
        game = generate_random_game(3, 3, 5, seed=rng.randrange(10**6))
        length = 2 * rng.randrange(1, 5)
        indices = [rng.randrange(game.num_clauses) for _ in range(length)]
        base = abelianize_clause_word(game, tuple(indices))
        swapped = list(indices)
        for _ in range(4):
            if length >= 3:
                j = rng.randrange(length - 2)
                swapped[j], swapped[j + 2] = swapped[j + 2], swapped[j]
        assert abelianize_clause_word(game, tuple(swapped)) == base


def test_decide_ghz_not_member():
    out = decide(GHZ)
    assert not out.member
    assert out.obstruction_z is None


def test_decide_contradictory_pair():
    out = decide(PAIR)
    assert out.member
    assert out.obstruction_z == (1, -1)


def test_decide_chsh():
    out = decide(CHSH)
    assert out.member
    assert out.obstruction_z == (1, -1, -1, 1)
    assert check_obstruction(CHSH, out.obstruction_z)


def test_decide_invariant_under_clause_reorder_and_relabel():
    rng = random.Random(67)
    for _ in range(60):
        game = generate_random_game(3, 3, 6, seed=rng.randrange(10**6))
        base = decide(game).member
        order = list(range(game.num_clauses))
        rng.shuffle(order)
        relabel = list(range(game.alphabet))
        rng.shuffle(relabel)
        permuted = parse_text(
            f"# alphabet: {game.alphabet}\n"
            + "\n".join(
                " ".join(str(relabel[q] + 1) for q in game.clauses[i].questions)
                + f" {game.clauses[i].parity}"
                for i in order
            )
        )
        assert decide(permuted).member == base


def test_witness_word_pair_game():
    word = witness_clause_word(PAIR, (1, -1))
    assert len(word) == 2
    assert abelianize_clause_word(PAIR, word).is_sign()


def test_witness_word_chsh():
    word = witness_clause_word(CHSH, (1, -1, -1, 1))
    assert len(word) == 6
    assert abelianize_clause_word(CHSH, word).is_sign()


def test_witness_rejects_invalid_vectors():
    with pytest.raises(ValueError):
        witness_clause_word(PAIR, (1, 1))
    with pytest.raises(ValueError):
        witness_clause_word(GHZ, (0, 0, 0, 0))


def test_global_decision_is_or_of_components():
    from xorgames.graphs import decompose_components

    rng = random.Random(75)
    for _ in range(60):
        game = generate_random_game(3, 4, rng.randrange(2, 8), seed=rng.randrange(10**6))
        overall = decide(game).member
        per_comp = [decide(c.game).member for c in decompose_components(game)]
        assert overall == any(per_comp)


def test_witness_postcondition_randomized():
    rng = random.Random(71)
    found = 0
    for _ in range(400):
        game = generate_random_game(3, 2, rng.randrange(2, 7), seed=rng.randrange(10**6))
        out = decide(game)
        if not out.member:
            continue
        found += 1
        word = witness_clause_word(game, out.obstruction_z)
        assert len(word) % 2 == 0
        assert abelianize_clause_word(game, word).is_sign()
    assert found >= 30


def dense_check_obstruction(game, z):
    """The witness predicate as the dense product Bᵀz plus the parity sum."""
    if len(z) != game.num_clauses:
        return False
    if any(DenseMatrix(incidence_matrix(game).transpose().data).mulvec(z)):
        return False
    return sum(zi * c.parity for zi, c in zip(z, game.clauses)) % 2 == 1


def test_check_obstruction_matches_dense_product():
    rng = random.Random(97)
    decided = 0
    for _ in range(150):
        game = generate_random_game(
            rng.choice((2, 3, 4)), rng.randrange(1, 5), rng.randrange(1, 12),
            seed=rng.randrange(10**6),
        )
        m = game.num_clauses
        candidates = [(0,) * m, (0,) * (m + 1), (1,) * max(m - 1, 0)]
        candidates.append(tuple(rng.randint(-3, 3) for _ in range(m)))
        out = decide(game)
        if out.member:
            decided += 1
            z = out.obstruction_z
            candidates += [z, tuple(-x for x in z), tuple(3 * x for x in z), z + (0,)]
            i = rng.randrange(m)
            candidates.append(z[:i] + (z[i] + rng.choice((-1, 1)),) + z[i + 1:])
        for z in candidates:
            assert check_obstruction(game, z) == dense_check_obstruction(game, z), (game, z)
    assert decided >= 20
    # Two clauses that differ only in player a's question: z = (1, -1) is
    # balanced for every other player, so each player's slots must be summed.
    for players in (2, 3, 4):
        for a in range(players):
            other = ["1"] * players
            other[a] = "2"
            game = parse_text(f"{' '.join(['1'] * players)} 0\n{' '.join(other)} 1")
            assert check_obstruction(game, (1, -1)) is dense_check_obstruction(game, (1, -1)) is False
