import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from xorgames import intlinalg, merp
from xorgames.decider import decide
from xorgames.games import generate_random_game, make_game, parse_text
from xorgames.merp import (
    MerpStrategy,
    merp_observable,
    simulate_merp_value,
    solve_merp,
    verify_merp_symbolic,
)

from helpers import analytic_merp_value, observables_pairwise_commute, reference_simulate_merp_value

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
PAIR = parse_text("1 1 1 0\n1 1 1 1")


def test_solve_ghz_quarter_phases():
    strat = solve_merp(GHZ)
    assert strat is not None
    for row in strat.phi:
        assert row == (Fraction(0), Fraction(1, 2))
    assert verify_merp_symbolic(GHZ, strat)


def test_solve_single_clause():
    game = parse_text("1 1 1 0")
    strat = solve_merp(game)
    assert strat.phi == ((Fraction(0),),) * 3


def test_solve_contradictory_pair_has_no_strategy():
    assert solve_merp(PAIR) is None


def test_verify_rejects_perturbation():
    strat = solve_merp(GHZ)
    bad = MerpStrategy(
        (strat.phi[0][:1] + (strat.phi[0][1] + Fraction(1, 3),),) + strat.phi[1:]
    )
    assert not verify_merp_symbolic(GHZ, bad)


def test_verify_all_zero_on_odd_clause():
    game = parse_text("1 1 1 1")
    zero = MerpStrategy(((Fraction(0),),) * 3)
    assert not verify_merp_symbolic(game, zero)


def test_observable_matrix_form():
    theta = 0.37
    m = merp_observable(theta)
    expected = ((0, cmath.exp(2j * theta)), (cmath.exp(-2j * theta), 0))
    assert all(
        abs(x - y) < 1e-14 for row, erow in zip(m, expected) for x, y in zip(row, erow)
    )


def test_simulate_perfect_ghz():
    strat = solve_merp(GHZ)
    result = simulate_merp_value(GHZ, strat)
    assert abs(result.value - 1) <= 1e-9
    assert result.exact_perfect


def test_simulate_single_clause_zero_phases():
    game = parse_text("1 1 1 0")
    result = simulate_merp_value(game, MerpStrategy(((Fraction(0),),) * 3))
    assert abs(result.value - 1) <= 1e-12


def test_simulate_all_zero_on_ghz():
    zero = MerpStrategy(((Fraction(0), Fraction(0)),) * 3)
    result = simulate_merp_value(GHZ, zero)
    # Clause parities are 0,1,1,1 and every phase sum is 0, so the score is
    # 1/2 + (1 - 3)/8 = 1/4.
    assert abs(result.value - 0.25) <= 1e-12
    assert not result.exact_perfect


def test_simulator_matches_analytic_formula():
    rng = random.Random(97)
    for trial in range(120):
        players = rng.choice([2, 3, 4])
        alphabet = rng.randrange(1, 4)
        game = generate_random_game(players, alphabet, rng.randrange(1, 7),
                                    seed=rng.randrange(10**6))
        strat = MerpStrategy(
            tuple(
                tuple(
                    Fraction(rng.randrange(0, 24), rng.choice([1, 2, 3, 4, 6])) % 2
                    for _ in range(alphabet)
                )
                for _ in range(players)
            )
        )
        sim = simulate_merp_value(game, strat)
        assert abs(sim.value - analytic_merp_value(game, strat)) <= 1e-9


@pytest.mark.parametrize("players", [13, 40])
def test_simulation_beyond_twelve_players(players):
    # Plant a half-integer phase table and keep the question tuples whose
    # phase sum is an integer, with that sum mod 2 as the parity.
    rng = random.Random(players)
    phi = [[Fraction(rng.randrange(4), 2) for _ in range(3)] for _ in range(players)]
    rows = []
    while len(rows) < 30:
        questions = [rng.randrange(3) for _ in range(players)]
        total = sum(phi[a][q] for a, q in enumerate(questions))
        if total.denominator == 1:
            rows.append(([q + 1 for q in questions], total.numerator % 2))
    game = make_game(rows, alphabet=3)
    strat = MerpStrategy(tuple(map(tuple, phi)))
    result = simulate_merp_value(game, strat)
    assert abs(result.value - 1) <= 1e-9 and result.exact_perfect
    phi[0] = [x + Fraction(1, 3) for x in phi[0]]
    shifted = MerpStrategy(tuple(map(tuple, phi)))
    value = simulate_merp_value(game, shifted).value
    assert value < 1 - 1e-3
    assert abs(value - analytic_merp_value(game, shifted)) <= 1e-9


def test_huge_phases_reduce_exactly():
    # Adding 2 * 10**400 to a phase keeps the table perfect; a float of the
    # unreduced phase would overflow.
    strat = solve_merp(GHZ)
    huge = MerpStrategy(
        ((strat.phi[0][0] + 2 * 10**400, strat.phi[0][1]),) + strat.phi[1:]
    )
    assert abs(simulate_merp_value(GHZ, huge).value - 1) <= 1e-9
    assert abs(analytic_merp_value(GHZ, huge) - 1) <= 1e-9


def test_simulator_equals_the_per_entry_reference_exactly():
    # Half of the tables draw their entries from a small pool of dyadic and
    # non-dyadic phases, negative ones and copies shifted by multiples of 2
    # (the same observable from another value), so phases repeat. The other
    # half are the game's solved table with entries moved by multiples of 2
    # and players 1 and 2 shifted by +t and -t, which keeps it perfect.
    rng = random.Random(211)
    outcomes = set()
    for players in range(2, 17):
        for _ in range(8):
            alphabet = rng.randrange(1, 5)
            game = generate_random_game(players, alphabet, rng.randrange(1, 25),
                                        seed=rng.randrange(10**6))
            pool = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4, 8, 3, 5, 6, 7)))
                    for _ in range(rng.randrange(1, 5))]
            pool += [x + 2 * rng.randint(-3, 3) for x in pool]
            solved = solve_merp(game)
            if solved is not None and rng.random() < 0.5:
                t = rng.choice(pool)
                phi = [[x + 2 * rng.randint(-2, 2) for x in row] for row in solved.phi]
                phi[0] = [x + t for x in phi[0]]
                phi[1] = [x - t for x in phi[1]]
            else:
                phi = [[rng.choice(pool) for _ in range(alphabet)] for _ in range(players)]
            strat = MerpStrategy(tuple(map(tuple, phi)))
            result = simulate_merp_value(game, strat)
            expected = reference_simulate_merp_value(game, strat)
            assert result.value == expected.value
            assert result.exact_perfect == expected.exact_perfect
            outcomes.add(result.exact_perfect)
    assert outcomes == {True, False}


def test_simulator_builds_one_observable_per_distinct_phase(monkeypatch):
    # 3/2, 7/2 and -1/2 are one phase mod 2; 0 and 2 are another.
    phi = ((Fraction(3, 2), Fraction(7, 2), Fraction(0)),
           (Fraction(-1, 2), Fraction(2), Fraction(1, 3)),
           (Fraction(0), Fraction(3, 2), Fraction(1, 3)))
    game = generate_random_game(3, 3, 30, seed=5)
    strat = MerpStrategy(phi)
    angles = []
    real = merp_observable

    def counting(theta):
        angles.append(theta)
        return real(theta)

    monkeypatch.setattr(merp, "merp_observable", counting)
    assert simulate_merp_value(game, strat) == reference_simulate_merp_value(game, strat)
    assert len(angles) == len(set(angles)) == 3


@pytest.mark.parametrize("check", [simulate_merp_value, verify_merp_symbolic])
def test_a_ragged_table_does_not_match_the_game(check):
    # Player 3's row holds one phase, yet clause 1 asks player 3 question 2.
    game = parse_text("1 1 2 0\n2 2 1 0")
    zero = Fraction(0)
    with pytest.raises(ValueError, match="^strategy dimensions do not match the game$"):
        check(game, MerpStrategy(((zero, zero), (zero, zero), (zero,))))
    check(game, MerpStrategy(((zero, zero),) * 3))  # the entry filled in


def test_an_observable_with_a_nonzero_diagonal_fails_the_simulation(monkeypatch):
    monkeypatch.setattr(merp, "merp_observable", lambda theta: ((1 + 0j, 0j), (0j, 1 + 0j)))
    with pytest.raises(AssertionError, match="observable of phase 0 has a nonzero diagonal"):
        simulate_merp_value(GHZ, solve_merp(GHZ))


def test_from_dict_parses_each_distinct_phase_string_once(monkeypatch):
    parsed = []
    real = merp._phase

    def counting(entry):
        parsed.append(entry)
        return real(entry)

    monkeypatch.setattr(merp, "_phase", counting)
    table = {"phi": [["1/2", "0/1", "1/2"], ["0/1", 1, 1], ["1/2", "3/2", "0/1"]]}
    strat = MerpStrategy.from_dict(table)
    assert strat.phi == tuple(tuple(Fraction(x) for x in row) for row in table["phi"])
    assert parsed == ["1/2", "0/1", 1, 1, "3/2"]
    # A malformed entry still raises where it stands, after its good
    # neighbours, even when an earlier copy of a good string was cached.
    parsed.clear()
    with pytest.raises(ValueError, match="'1e3' is not of the form"):
        MerpStrategy.from_dict({"phi": [["1/2", "1/2"], ["1/2", "1e3"]]})
    assert parsed == ["1/2", "1e3"]


@pytest.mark.parametrize("phase", ["1e3", "1.5", " 1/2", "1/2\n", "½", "١/٢", "inf", "nan"])
def test_from_dict_reads_only_the_written_phase_form(phase):
    with pytest.raises(ValueError, match="not of the form"):
        MerpStrategy.from_dict({"phi": [["0/1", phase]]})


def test_from_dict_round_trips_to_dict():
    strat = MerpStrategy(((Fraction(3, 2), Fraction(-7, 3)), (Fraction(2 * 10**400), Fraction(0))))
    assert MerpStrategy.from_dict(strat.to_dict()) == strat
    assert MerpStrategy.from_dict({"phi": [["+6/4", 1]]}).phi == ((Fraction(3, 2), Fraction(1)),)


def test_observables_respect_pair_commutation():
    assert observables_pairwise_commute((0.0, math.pi / 4, math.pi / 3, 1.0))
    assert observables_pairwise_commute((0.7, 0.7, 0.7, 0.7))
    rng = random.Random(101)
    for _ in range(100):
        thetas = tuple(rng.uniform(0, 2 * math.pi) for _ in range(4))
        assert observables_pairwise_commute(thetas)


def test_solver_complements_decider():
    rng = random.Random(103)
    members = 0
    for _ in range(200):
        game = generate_random_game(3, 3, rng.randrange(1, 8),
                                    seed=rng.randrange(10**6))
        member = decide(game).member
        strat = solve_merp(game)
        assert (strat is None) == member
        if member:
            members += 1
        else:
            assert verify_merp_symbolic(game, strat)
    assert 0 < members < 200


def test_solver_handles_third_denominators():
    # Perfect game whose canonical phase table needs denominator 3; found by
    # seeded search, pinned as a regression.
    game = generate_random_game(3, 5, 9, seed=471)
    assert not decide(game).member
    strat = solve_merp(game)
    assert max(x.denominator for row in strat.phi for x in row) == 3
    assert verify_merp_symbolic(game, strat)
    assert abs(simulate_merp_value(game, strat).value - 1) <= 1e-9


def test_global_phase_shift_preserves_perfection():
    # Shifting every phase of two players by amounts that cancel mod 2 keeps
    # every clause sum congruent, hence perfection is unchanged.
    strat = solve_merp(GHZ)
    shift = Fraction(3, 2)
    shifted = MerpStrategy(
        (
            tuple((x + shift) % 2 for x in strat.phi[0]),
            tuple((x - shift) % 2 for x in strat.phi[1]),
            strat.phi[2],
        )
    )
    assert verify_merp_symbolic(GHZ, shifted)
    assert abs(simulate_merp_value(GHZ, shifted).value - 1) <= 1e-9


def fraction_verify(game, strat) -> bool:
    """Reference: every clause phase sum in Fraction arithmetic."""
    return all(
        (sum((strat.phi[a][q] for a, q in enumerate(c.questions)), Fraction(0)) - c.parity) % 2 == 0
        for c in game.clauses
    )


def _planted_clauses(rng, phi, count):
    """Clauses whose phase sum under phi is an integer, with that parity."""
    players, alphabet = len(phi), len(phi[0])
    rows = []
    while len(rows) < count:
        qs = [rng.randrange(alphabet) for _ in range(players)]
        total = sum((phi[a][q] for a, q in enumerate(qs)), Fraction(0))
        if total.denominator == 1:
            rows.append(([q + 1 for q in qs], total.numerator % 2))
    return rows


def test_verify_matches_fractions_on_mixed_denominators():
    rng = random.Random(107)
    outcomes = set()
    for _ in range(150):
        players, alphabet = rng.randrange(2, 6), rng.randrange(1, 5)
        # Question 0 has phase 0 for everyone, so some clause is always drawable.
        phi = [[Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 12))) if q else Fraction(0)
                for q in range(alphabet)]
               for _ in range(players)]
        rows = _planted_clauses(rng, phi, rng.randrange(1, 8))
        if rng.random() < 0.5:  # one clause with the wrong parity
            qs, parity = rows[-1]
            rows[-1] = (qs, 1 - parity)
        game = make_game(rows, alphabet)
        for table in (phi, [[x + Fraction(1, 3) for x in phi[0]]] + phi[1:]):
            strat = MerpStrategy(tuple(map(tuple, table)))
            expected = fraction_verify(game, strat)
            assert verify_merp_symbolic(game, strat) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_verify_matches_fractions_on_huge_and_shifted_phases():
    strat = solve_merp(GHZ)
    tables = {
        "huge even": ((strat.phi[0][0] + 2 * 10**400, strat.phi[0][1]),) + strat.phi[1:],
        "huge odd": ((strat.phi[0][0] + 10**400 + 1, strat.phi[0][1]),) + strat.phi[1:],
        "tiny cancelling": (
            tuple(x + Fraction(1, 3**300) for x in strat.phi[0]),
            tuple(x - Fraction(1, 3**300) for x in strat.phi[1]),
            strat.phi[2],
        ),
        "third, cancelling": (
            tuple(x + Fraction(1, 3) for x in strat.phi[0]),
            tuple(x - Fraction(1, 3) for x in strat.phi[1]),
            strat.phi[2],
        ),
        "third, one player": (tuple(x + Fraction(1, 3) for x in strat.phi[0]),) + strat.phi[1:],
    }
    expected = {"huge even": True, "huge odd": False, "tiny cancelling": True,
                "third, cancelling": True, "third, one player": False}
    for name, phi in tables.items():
        shifted = MerpStrategy(phi)
        assert fraction_verify(GHZ, shifted) == expected[name], name
        assert verify_merp_symbolic(GHZ, shifted) == expected[name], name


def _primes_from(lo: int, count: int) -> list[int]:
    """The first count primes >= lo, by a sieve of the segment above lo."""
    span = 64 * count
    limit = math.isqrt(lo + span) + 1
    small = bytearray([1]) * limit
    small[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, limit, p)))
    segment = bytearray([1]) * span
    for p in (p for p in range(2, limit) if small[p]):
        start = -lo % p
        segment[start::p] = bytes(len(range(start, span, p)))
    primes = [lo + i for i, flag in enumerate(segment) if flag]
    assert len(primes) >= count
    return primes[:count]


def test_verify_keeps_each_clause_to_its_own_denominators(monkeypatch):
    # 2,000 distinct prime denominators near 10**12. Question q carries k/p_q
    # for player 1 and -k/p_q mod 2 for player 2, so every clause (q, q, r) sums to
    # an integer and is checked; one common denominator for the table would
    # have 2,000 prime factors. The check must use only a clause's own.
    rng = random.Random(109)
    primes = _primes_from(10**12, 2000)
    first = tuple(Fraction(rng.randrange(1, p), p) for p in primes)
    phi = (first, tuple(-x % 2 for x in first), tuple(Fraction(rng.randrange(2)) for _ in primes))
    rows = []
    for q in range(len(primes)):
        r = rng.randrange(len(primes))
        rows.append(([q + 1, q + 1, r + 1], phi[2][r].numerator))
    game = make_game(rows)
    strat = MerpStrategy(phi)
    largest = []
    real_lcm = intlinalg.lcm

    def recording_lcm(*args):
        result = real_lcm(*args)
        largest.append(result.bit_length())
        return result

    monkeypatch.setattr(intlinalg, "lcm", recording_lcm)
    start = time.perf_counter()
    assert verify_merp_symbolic(game, strat)
    elapsed = time.perf_counter() - start
    assert len(largest) == len(primes) and max(largest) <= 41
    assert elapsed < 5
    broken = make_game(rows[:-1] + [(rows[-1][0], 1 - rows[-1][1])])
    assert not verify_merp_symbolic(broken, strat)
    assert fraction_verify(game, strat) and not fraction_verify(broken, strat)
