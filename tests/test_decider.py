import random

import pytest

from xorgames.decider import (
    check_obstruction,
    decide,
    incidence_matrix,
    witness_clause_word,
)
from xorgames.games import generate_random_game, parse_text, serialize_text
from xorgames.words import abelianizes_to_sign, reduce_clause_word

from helpers import DenseMatrix

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
PAIR = parse_text("1 1 1 0\n1 1 1 1")
CHSH = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")


def test_incidence_matrix_shape():
    b = incidence_matrix(GHZ)
    assert (b.rows, b.cols) == (4, 6)
    assert b.data[1] == (1, 0, 0, 1, 0, 1)  # clause (1,2,2)


def reference_abelian_image(game, cw):
    """Per-player exponent vectors and sign bit of an even clause word, the
    abelianization that `words.abelianizes_to_sign` replaced: position t
    (from 1) adds (-1)^t to each question its clause asks, and the sign is
    the parity of the clause parities."""
    if len(cw) % 2:
        raise ValueError("only even clause words have an abelian image")
    vecs = [[0] * game.alphabet for _ in range(game.players)]
    sigma = 0
    for t, i in enumerate(cw, start=1):
        c = game.clauses[i]
        for a, q in enumerate(c.questions):
            vecs[a][q] += -1 if t % 2 else 1
        sigma ^= c.parity
    return vecs, sigma


def reference_is_sign(game, cw) -> bool:
    if len(cw) % 2:
        return False
    vecs, sigma = reference_abelian_image(game, cw)
    return sigma == 1 and not any(map(any, vecs))


def signed_counts(game, cw) -> tuple[int, ...]:
    """The clause word's z: position t (from 1) adds (-1)^t to its clause."""
    z = [0] * game.num_clauses
    for t, i in enumerate(cw, start=1):
        z[i] += -1 if t % 2 else 1
    return tuple(z)


def _shuffled_sign_word(rng, game) -> tuple[int, ...]:
    """A witness word moved around without changing its abelian image:
    entries two apart swapped, and cancelling pairs inserted."""
    word = list(witness_clause_word(game, decide(game).obstruction_z))
    for _ in range(rng.randrange(6)):
        if len(word) >= 3:
            j = rng.randrange(len(word) - 2)
            word[j], word[j + 2] = word[j + 2], word[j]
        j, i = rng.randrange(len(word) + 1), rng.randrange(game.num_clauses)
        word[j:j] = [i, i]
    return tuple(word)


def _abelian_image_agrees(game, cw) -> bool:
    expected = reference_is_sign(game, cw)
    return (
        abelianizes_to_sign(reduce_clause_word(game, cw)) is expected
        and check_obstruction(game, signed_counts(game, cw)) is expected
    )


def test_abelianize_cancelling_pair():
    assert reference_abelian_image(PAIR, (0, 0)) == ([[0]] * 3, 0)
    assert _abelian_image_agrees(PAIR, (0, 0))


def test_abelianize_sign_rule():
    game = parse_text("1 1 1 0\n2 2 2 1")
    assert reference_abelian_image(game, (0, 1)) == ([[-1, 1]] * 3, 1)
    assert _abelian_image_agrees(game, (0, 1))


def test_abelianize_rejects_odd_words():
    with pytest.raises(ValueError):
        reference_abelian_image(GHZ, (0,))
    assert not abelianizes_to_sign(reduce_clause_word(GHZ, (0,)))
    assert not check_obstruction(GHZ, signed_counts(GHZ, (0,)))


def test_abelianize_invariant_under_parity_permutation():
    rng = random.Random(61)
    for _ in range(200):
        game = generate_random_game(3, 3, 5, seed=rng.randrange(10**6))
        length = 2 * rng.randrange(1, 5)
        indices = [rng.randrange(game.num_clauses) for _ in range(length)]
        base = reference_abelian_image(game, tuple(indices))
        swapped = list(indices)
        for _ in range(4):
            if length >= 3:
                j = rng.randrange(length - 2)
                swapped[j], swapped[j + 2] = swapped[j + 2], swapped[j]
        assert reference_abelian_image(game, tuple(swapped)) == base
        assert _abelian_image_agrees(game, tuple(swapped))


def test_abelian_image_of_clause_words_matches_the_reference():
    two = parse_text("1 1 1 0\n2 2 2 1")
    for game, cw, is_sign in [
        (PAIR, (0, 1), True), (PAIR, (0, 0), False), (PAIR, (), False),
        (two, (0, 1), False), (GHZ, (0,), False), (PAIR, (0, 1, 0), False),
    ]:
        assert reference_is_sign(game, cw) is is_sign
        assert _abelian_image_agrees(game, cw), (game, cw)
    # Random words on k = 2..5 players, odd lengths included, and shuffled
    # witness words of member games with one entry sometimes dropped.
    rng = random.Random(61)
    counts = {"sign": 0, "odd": 0, "even other": 0}
    for _ in range(900):
        game = generate_random_game(
            rng.randrange(2, 6), rng.randrange(1, 4), rng.randrange(1, 7), seed=rng.randrange(10**6)
        )
        if rng.random() < 0.5 and decide(game).member:
            cw = _shuffled_sign_word(rng, game)
            if rng.random() < 0.25:
                cw = cw[:-1]
        else:
            cw = tuple(rng.randrange(game.num_clauses) for _ in range(rng.randrange(9)))
        assert _abelian_image_agrees(game, cw), (game, cw)
        kind = "odd" if len(cw) % 2 else "sign" if reference_is_sign(game, cw) else "even other"
        counts[kind] += 1
    assert min(counts.values()) >= 100, counts


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
    assert abelianizes_to_sign(reduce_clause_word(PAIR, word))


def test_witness_word_chsh():
    word = witness_clause_word(CHSH, (1, -1, -1, 1))
    assert len(word) == 6
    assert abelianizes_to_sign(reduce_clause_word(CHSH, word))


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
        assert abelianizes_to_sign(reduce_clause_word(game, word))
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


REFUTABLE = generate_random_game(3, 12, 60, 1)


def test_an_equal_game_gets_the_stored_outcome_without_a_smith_form(smith_calls):
    first = decide(REFUTABLE)
    twin = parse_text(serialize_text(REFUTABLE))
    assert twin == REFUTABLE and twin is not REFUTABLE
    assert decide(twin) is first
    assert decide(REFUTABLE) is first
    assert len(smith_calls) == 1
    # The shared outcome builds its even vectors afresh on every call.
    z = first.short_witness()
    assert first.short_witness() == z and check_obstruction(REFUTABLE, z)
    assert len(smith_calls) == 1


def test_a_game_one_parity_bit_away_is_decided_afresh(smith_calls):
    assert decide(PAIR).member
    flipped = parse_text("1 1 1 0\n1 1 1 0")
    assert flipped != PAIR
    assert not decide(flipped).member
    assert len(smith_calls) == 2


def test_only_the_last_decision_is_stored(smith_calls):
    first = decide(PAIR)
    decide(CHSH)
    again = decide(PAIR)
    assert again == first and again is not first
    assert len(smith_calls) == 3


def test_a_failed_decision_stores_nothing(smith_calls, monkeypatch):
    import xorgames.intlinalg

    real = xorgames.intlinalg._check_decomposition
    failures = iter([True])

    def fails_once(a, dec):
        if next(failures, False):
            raise AssertionError("Smith decomposition identity U*A*V == D failed")
        real(a, dec)

    decide(PAIR)
    monkeypatch.setattr(xorgames.intlinalg, "_check_decomposition", fails_once)
    with pytest.raises(AssertionError):
        decide(CHSH)
    assert decide(CHSH).obstruction_z == (1, -1, -1, 1)
    # The failed call dropped PAIR's outcome before it ran.
    assert decide(PAIR).obstruction_z == (1, -1)
    assert len(smith_calls) == 4
