import cmath
import math
import random
from fractions import Fraction

import pytest

from xorgames.decider import decide
from xorgames.games import generate_random_game, make_game, parse_text
from xorgames.merp import (
    MerpStrategy,
    analytic_merp_value,
    merp_observable,
    simulate_merp_value,
    solve_merp,
    verify_merp_symbolic,
)

from helpers import observables_pairwise_commute

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
