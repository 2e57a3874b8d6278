import random
from fractions import Fraction
from itertools import product

import pytest

from xorgames.decider import decide
from xorgames.games import generate_random_game, parse_text
from xorgames.oracle import (
    SearchStatus,
    bounded_sigma_search,
    classical_value,
    gf2_solve,
)
from xorgames.words import GroupWord, reduce_clause_word

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
PAIR = parse_text("1 1 1 0\n1 1 1 1")
CHSH = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")


def brute_force_value(game) -> Fraction:
    """Independent recount: direct evaluation over all assignments."""
    n = game.players * game.alphabet
    best = 0
    for bits in product((0, 1), repeat=n):
        sat = 0
        for c in game.clauses:
            total = sum(bits[a * game.alphabet + q] for a, q in enumerate(c.questions))
            sat += (total % 2) == c.parity
        best = max(best, sat)
    return Fraction(best, game.num_clauses)


def test_classical_ghz():
    result = classical_value(GHZ)
    assert result.value == Fraction(3, 4)
    # returned assignment actually achieves the value
    sat = 0
    for c in GHZ.clauses:
        prod = 1
        for a, q in enumerate(c.questions):
            prod *= result.assignment[a][q]
        sat += prod == (-1) ** c.parity
    assert Fraction(sat, 4) == result.value


def test_classical_chsh():
    assert classical_value(CHSH).value == Fraction(3, 4)


def test_classical_single_clause():
    assert classical_value(parse_text("1 1 1 0")).value == 1


def test_classical_matches_direct_recount():
    rng = random.Random(107)
    for _ in range(60):
        game = generate_random_game(
            rng.choice([2, 3]), rng.randrange(1, 3), rng.randrange(1, 6),
            seed=rng.randrange(10**6),
        )
        assert classical_value(game).value == brute_force_value(game)


def test_classical_at_least_half_and_gf2_agreement():
    rng = random.Random(109)
    for _ in range(80):
        game = generate_random_game(3, 2, rng.randrange(1, 7), seed=rng.randrange(10**6))
        result = classical_value(game)
        assert result.value >= Fraction(1, 2)
        assert (result.value == 1) == (gf2_solve(game) is not None)


def test_classical_size_guard():
    with pytest.raises(ValueError):
        classical_value(generate_random_game(3, 9, 2, seed=0))


def test_gf2_solution_actually_solves():
    rng = random.Random(111)
    solved = 0
    for _ in range(120):
        game = generate_random_game(3, 3, rng.randrange(1, 8), seed=rng.randrange(10**6))
        bits = gf2_solve(game)
        if bits is None:
            continue
        solved += 1
        for c in game.clauses:
            total = sum(bits[a * game.alphabet + q] for a, q in enumerate(c.questions))
            assert total % 2 == c.parity
    assert solved >= 20


def test_gf2_needs_rationals_example():
    game = parse_text("1 1 1 1\n1 2 2 0\n2 1 2 0\n2 2 1 0")
    assert gf2_solve(game) is None
    assert not decide(game).member  # yet perfect with half-integer phases


def test_search_finds_contradictory_pair():
    result = bounded_sigma_search(PAIR, max_len=2)
    assert result.status == SearchStatus.FOUND
    assert len(result.word) == 2
    assert reduce_clause_word(PAIR, result.word) == GroupWord.sign(3)


def test_search_ghz_not_found():
    result = bounded_sigma_search(GHZ, max_len=8)
    assert result.status == SearchStatus.NOT_FOUND
    assert not decide(GHZ).member


def test_search_cap_reported_distinctly():
    game = generate_random_game(3, 3, 8, seed=5)
    result = bounded_sigma_search(game, max_len=12, cap=50)
    assert result.status == SearchStatus.CAP_EXCEEDED
    assert result.word is None


def test_search_word_always_reduces_to_sign():
    rng = random.Random(113)
    found = 0
    for _ in range(60):
        game = generate_random_game(3, 2, rng.randrange(2, 5), seed=rng.randrange(10**6))
        result = bounded_sigma_search(game, max_len=6, cap=10**5)
        if result.status == SearchStatus.FOUND:
            found += 1
            assert reduce_clause_word(game, result.word) == GroupWord.sign(3)
            assert decide(game).member  # search hit implies decider hit
    assert found >= 5
