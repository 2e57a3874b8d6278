import random
from fractions import Fraction
from itertools import product

import pytest

from xorgames.decider import decide
from xorgames.games import Clause, Game, generate_random_game, parse_text
from xorgames.oracle import ClassicalResult, classical_value, gf2_solve
from xorgames.words import GroupWord, reduce_clause_word

from helpers import SearchStatus, bounded_sigma_search

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


def reference_classical_value(game) -> ClassicalResult:
    """The per-variable loop `classical_value` replaced: a Gray-code walk
    that updates one satisfaction flag per clause of the flipped variable,
    with the same lexicographic tie-break."""
    n_vars = game.players * game.alphabet
    clauses_of_var = [[] for _ in range(n_vars)]
    for i, c in enumerate(game.clauses):
        for a, q in enumerate(c.questions):
            clauses_of_var[a * game.alphabet + q].append(i)
    sat = [1 - c.parity for c in game.clauses]
    count = sum(sat)
    bits = lex_key = 0
    best_count, best_bits, best_key = count, bits, lex_key
    for step in range(1, 1 << n_vars):
        v = (step & -step).bit_length() - 1
        bits ^= 1 << v
        lex_key ^= 1 << (n_vars - 1 - v)
        for i in clauses_of_var[v]:
            if sat[i]:
                sat[i] = 0
                count -= 1
            else:
                sat[i] = 1
                count += 1
        if count > best_count or (count == best_count and lex_key < best_key):
            best_count, best_bits, best_key = count, bits, lex_key
    assignment = tuple(
        tuple(-1 if best_bits >> (a * game.alphabet + q) & 1 else 1 for q in range(game.alphabet))
        for a in range(game.players)
    )
    return ClassicalResult(Fraction(best_count, game.num_clauses), assignment)


def reference_gf2_solve(game):
    """The per-variable loop `gf2_solve` replaced: each row is reduced by
    every pivot in descending order, and back-substitution and the final
    check read one variable at a time."""
    n = game.players * game.alphabet
    rows = []
    for c in game.clauses:
        mask = 0
        for a, q in enumerate(c.questions):
            mask |= 1 << (a * game.alphabet + q)
        rows.append((mask, c.parity))
    pivots = {}
    for mask, rhs in rows:
        for p in sorted(pivots, reverse=True):
            if mask >> p & 1:
                pmask, prhs = pivots[p]
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs == 1:
                return None
            continue
        pivots[mask.bit_length() - 1] = (mask, rhs)
    bits = [0] * n
    for p in sorted(pivots):
        mask, rhs = pivots[p]
        acc = rhs
        for v in range(p):
            if mask >> v & 1:
                acc ^= bits[v]
        bits[p] = acc
    for mask, rhs in rows:
        acc = 0
        for v in range(n):
            if mask >> v & 1:
                acc ^= bits[v]
        assert acc == rhs
    return tuple(bits)


def seeded_games(count, seed):
    """Random games, k 2-6, alphabet 1-7, 1-39 clauses. Every other game is
    planted classical: its parities come from a random 0/1 assignment, so
    the GF(2) system is consistent; the rest mostly are not."""
    rng = random.Random(seed)
    for i in range(count):
        k, n, m = rng.randrange(2, 7), rng.randrange(1, 8), rng.randrange(1, 40)
        questions = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(m)]
        if i % 2:
            x = [rng.randrange(2) for _ in range(k * n)]
            parities = [sum(x[a * n + q] for a, q in enumerate(qs)) % 2 for qs in questions]
        else:
            parities = [rng.randrange(2) for _ in range(m)]
        yield Game(k, n, tuple(Clause(qs, s) for qs, s in zip(questions, parities)))


def test_gf2_solve_matches_the_reference_loop():
    solved = unsolved = 0
    for game in seeded_games(2400, seed=131):
        bits = gf2_solve(game)
        assert bits == reference_gf2_solve(game)
        solved += bits is not None
        unsolved += bits is None
    assert solved >= 1200 and unsolved >= 600


def test_classical_value_matches_the_reference_loop():
    # Negating every answer of two players keeps each clause as it is, so
    # every game has at least two best assignments and each comparison
    # checks the tie-break as well.
    checked = 0
    for game in seeded_games(2400, seed=131):
        if game.players * game.alphabet <= 12:
            assert classical_value(game) == reference_classical_value(game)
            checked += 1
    assert checked >= 1000


def test_classical_value_breaks_ties_lexicographically():
    # Either player may answer -1; the first in player-major order with +1
    # first is the second player.
    game = parse_text("1 1 1")
    assert reference_classical_value(game).assignment == ((1,), (-1,))
    assert classical_value(game) == ClassicalResult(Fraction(1), ((1,), (-1,)))


def test_gf2_solve_over_a_wide_alphabet():
    game = parse_text("# alphabet: 50000\n1 1 50000 1\n2 1 50000 0\n")
    bits = gf2_solve(game)
    assert len(bits) == 3 * 50000
    # The pivots are player 3's question 50000 and, after the second row
    # is reduced by the first, player 1's question 2; every free variable
    # is zero.
    assert [v for v, b in enumerate(bits) if b] == [1, 3 * 50000 - 1]


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
