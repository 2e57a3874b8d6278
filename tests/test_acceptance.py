"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from xorgames.decider import decide
from xorgames.games import generate_random_game, make_game, parse_text
from xorgames.graphs import decompose_components, gadget_words
from xorgames.intlinalg import smith_normal_form
from xorgames.merp import simulate_merp_value, solve_merp, verify_merp_symbolic
from xorgames.oracle import classical_value
from xorgames.refutation import Homomorphisms, construct_sigma_word
from xorgames.words import GroupWord, is_parity_trivial, reduce_clause_word, reduce_letters

from helpers import (
    SearchStatus,
    analytic_merp_value,
    bounded_sigma_search,
    canon_letters,
    matrix,
    observables_pairwise_commute,
)

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
CHSH = parse_text("1 1 1\n2 1 0\n1 2 0\n2 2 0")


def random_suite(count=500):
    """The shared seeded random suite: 3-player games, alphabet <= 4,
    up to 8 clauses."""
    games = []
    rng = random.Random(20240)
    for _ in range(count):
        games.append(
            generate_random_game(
                3, rng.randrange(1, 5), rng.randrange(1, 9), seed=rng.randrange(10**9)
            )
        )
    return games


def connected_refutable_games(count):
    rng = random.Random(20241)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 200000, "could not assemble the fuzz set"
        game = generate_random_game(
            3, rng.randrange(1, 4), rng.randrange(2, 7), seed=rng.randrange(10**9)
        )
        comps = decompose_components(game)
        if len(comps) != 1:
            continue
        game = comps[0].game
        outcome = decide(game)
        if outcome.member:
            out.append((game, outcome.obstruction_z))
    return out


def _cli_verdict(capsys, game_text, tmp_path):
    from xorgames.cli import main

    game_file = tmp_path / "game.txt"
    game_file.write_text(game_text)
    code = main(
        ["decide", str(game_file), "--out", str(tmp_path / "cert.json")]
    )
    out = capsys.readouterr().out
    verdict = next(
        line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("verdict")
    )
    return code, verdict


def test_criterion_1_ghz_reproduction(capsys, tmp_path):
    start = time.monotonic()
    assert classical_value(GHZ).value == Fraction(3, 4)
    outcome = decide(GHZ)
    assert not outcome.member  # perfect
    strat = solve_merp(GHZ)
    assert strat is not None
    for row in strat.phi:
        assert set(row) == {Fraction(0), Fraction(1, 2)}
    assert verify_merp_symbolic(GHZ, strat)
    assert abs(simulate_merp_value(GHZ, strat).value - 1) <= 1e-9
    code, verdict = _cli_verdict(
        capsys, "1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1\n", tmp_path
    )
    assert (code, verdict) == (0, "PERFECT")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: GHZ reproduction ({elapsed:.3f}s)")


def test_criterion_2_chsh_reproduction(capsys, tmp_path):
    start = time.monotonic()
    assert classical_value(CHSH).value == Fraction(3, 4)
    outcome = decide(CHSH)
    assert outcome.member
    assert outcome.obstruction_z in ((1, -1, -1, 1), (-1, 1, 1, -1))
    # two players: no perfect shared-phase strategy, verdict inconclusive
    assert CHSH.players == 2
    assert solve_merp(CHSH) is None
    code, verdict = _cli_verdict(capsys, "1 1 1\n2 1 0\n1 2 0\n2 2 0\n", tmp_path)
    assert (code, verdict) == (2, "NO_PERFECT_MERP_INCONCLUSIVE")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: CHSH reproduction ({elapsed:.3f}s)")


def test_criterion_3_strategy_witness_complementarity():
    start = time.monotonic()
    games = random_suite(500)
    strategies = refutations = 0
    for game in games:
        outcome = decide(game)
        strat = solve_merp(game)
        assert (strat is None) == outcome.member
        assert (outcome.obstruction_z is not None) == outcome.member
        if outcome.member:
            refutations += 1
        else:
            strategies += 1
            assert verify_merp_symbolic(game, strat)
            assert abs(simulate_merp_value(game, strat).value - 1) <= 1e-9
    elapsed = time.monotonic() - start
    assert strategies and refutations and strategies + refutations == 500
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: exactly one certificate on 500 games "
        f"({strategies} strategies / {refutations} witnesses, {elapsed:.1f}s)"
    )


def test_criterion_4_constructive_soundness():
    start = time.monotonic()
    cases = connected_refutable_games(200)
    for game, z in cases:
        cert = construct_sigma_word(game, z)  # cap hit would raise
        assert reduce_clause_word(game, cert.sigma_word) == GroupWord.sign(3)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"PASS criterion 4: explicit sign-element words on 200 refutable "
        f"connected games ({elapsed:.1f}s)"
    )


TINY_PATTERNS = [
    [(1, 1, 1)],
    [(1, 1, 1), (1, 1, 1)],
    [(1, 1, 1), (2, 2, 2)],
    [(1, 1, 1), (1, 2, 2)],
    [(1, 1, 1), (1, 2, 2), (2, 1, 2)],
    [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)],
    [(1, 1, 1), (1, 1, 1), (2, 2, 2), (2, 2, 2)],
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)],
    [(1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 1, 2)],
    [(1, 1, 1), (1, 2, 2), (1, 1, 2), (1, 2, 1)],
    [(1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2, 2)],
    [(1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)],
    [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)],
    [(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)],
]


def test_criterion_5_oracle_consistency_triangle():
    games = 0
    for pattern in TINY_PATTERNS:
        for parities in product((0, 1), repeat=len(pattern)):
            game = make_game(
                [(list(q), s) for q, s in zip(pattern, parities)], alphabet=2
            )
            games += 1
            result = bounded_sigma_search(game, max_len=8)
            assert result.status != SearchStatus.CAP_EXCEEDED
            member = decide(game).member
            if result.status == SearchStatus.FOUND:
                assert member, f"search found a word but decider says no: {game}"
                assert reduce_clause_word(game, result.word) == GroupWord.sign(3)
            if not member:
                assert result.status == SearchStatus.NOT_FOUND
    print(f"PASS criterion 5: oracle consistency triangle on {games} tiny games")


def test_criterion_6_bias_bound():
    threshold = Fraction(57, 100)
    perfect = 0
    for game in random_suite(500):
        if decide(game).member:
            continue
        perfect += 1
        assert classical_value(game).value >= threshold
    assert perfect > 0
    print(f"PASS criterion 6: classical value >= 0.57 on {perfect} perfect games")


def _parity_shuffled(rng, letters):
    letters = list(letters)
    for _ in range(8):
        j = rng.randrange(len(letters) - 2)
        letters[j], letters[j + 2] = letters[j + 2], letters[j]
    return letters


def _connected_stream(rng, count, alphabet=3, max_clauses=7):
    out = []
    while len(out) < count:
        game = generate_random_game(
            3, rng.randrange(2, alphabet + 1), rng.randrange(3, max_clauses + 1),
            seed=rng.randrange(10**9),
        )
        comps = decompose_components(game)
        if len(comps) == 1:
            out.append(comps[0].game)
    return out


def test_criterion_7_algebraic_property_suites():
    rng = random.Random(20247)

    # canonical form invariance: 1000 parity-preserving permutations
    for _ in range(1000):
        letters = [rng.randrange(5) for _ in range(rng.randrange(3, 10))]
        assert canon_letters(letters) == canon_letters(_parity_shuffled(rng, letters))

    # parity-trivial invariance: 1000 parity-preserving permutations, every
    # other word built parity-trivial. Its own stream keeps the samples
    # below as they were.
    trivial_rng = random.Random(20249)
    trivial = 0
    for n in range(1000):
        if n % 2:
            half = [trivial_rng.randrange(5) for _ in range(trivial_rng.randrange(2, 6))]
            odd, even = half[:], half[:]
            trivial_rng.shuffle(odd)
            trivial_rng.shuffle(even)
            letters = [x for pair in zip(odd, even) for x in pair]
            assert is_parity_trivial(letters)
        else:
            letters = [trivial_rng.randrange(5) for _ in range(trivial_rng.randrange(3, 10))]
        shuffled = _parity_shuffled(trivial_rng, letters)
        assert is_parity_trivial(shuffled) == is_parity_trivial(letters)
        trivial += is_parity_trivial(letters)
    assert trivial >= 500

    # A1 / A2 of the pair right inverses: 500 sampled words
    games = _connected_stream(rng, 25)
    a_checked = 0
    while a_checked < 500:
        game = games[rng.randrange(len(games))]
        hom = Homomorphisms(game)
        alpha, beta = rng.choice(((1, 0), (2, 0), (2, 1)))
        asked = sorted({c.questions[alpha] for c in game.clauses})
        letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 4)))
        red = reduce_clause_word(game, hom.phi_pair(alpha, beta, letters))
        assert red.per_player[alpha] == reduce_letters(letters)
        a_checked += 1
        # A2 with a constructible hypothesis: words from clause pairs that
        # agree on beta
        pairs = [
            (i, j)
            for i in range(game.num_clauses)
            for j in range(game.num_clauses)
            if i != j and game.clauses[i].questions[beta] == game.clauses[j].questions[beta]
        ]
        if pairs:
            indices = []
            for _ in range(rng.randrange(1, 3)):
                indices.extend(rng.choice(pairs))
            h = tuple(indices)
            v = reduce_clause_word(game, h).per_player[alpha]
            red2 = reduce_clause_word(game, hom.phi_pair(alpha, beta, v))
            assert red2.per_player[beta] == ()
            a_checked += 1

    # B1-B4 of the gadget maps: 300 sampled words. Half the samples pair
    # questions within one pair-graph component so B1's hypothesis holds
    # non-vacuously.
    b_checked = b1_hits = 0
    while b_checked < 300:
        game = games[rng.randrange(len(games))]
        hom = Homomorphisms(game)
        beta = rng.randrange(2)
        other = 1 - beta
        asked = sorted({c.questions[2] for c in game.clauses})
        if rng.random() < 0.5:
            pg = hom.pair[(2, beta)]
            by_comp = {}
            for q in asked:
                by_comp.setdefault(pg.component_id[(2, q)], []).append(q)
            groups = list(by_comp.values())
            letters = []
            for _ in range(rng.randrange(1, 3)):
                qs = rng.choice(groups)
                letters.extend((rng.choice(qs), rng.choice(qs)))
            letters = tuple(letters)
        else:
            letters = tuple(rng.choice(asked) for _ in range(2 * rng.randrange(1, 3)))
        image = reduce_clause_word(game, hom.f_map(beta, letters))
        plain = reduce_clause_word(game, hom.phi_pair(2, beta, letters))
        if plain.per_player[beta] == ():  # B1
            assert image.per_player[beta] == ()
            b1_hits += 1
        assert image.per_player[other] == plain.per_player[other]  # B2
        residue = reduce_clause_word(game, hom.f_map(beta, letters)).per_player[2]
        back = reduce_clause_word(game, hom.phi_pair(2, beta, residue))
        assert back.per_player[beta] == ()  # B3
        cross = reduce_clause_word(game, hom.phi_pair(2, other, residue))
        assert cross.per_player[other] == (
            reduce_clause_word(game, hom.phi_pair(2, other, letters)).per_player[other]
        )  # B4
        b_checked += 1
    assert b1_hits >= 100  # B1 hypothesis exercised non-vacuously

    # C1 / C2 of the gadget words: 100 sampled questions
    c_checked = 0
    while c_checked < 100:
        game = games[rng.randrange(len(games))]
        hom = Homomorphisms(game)
        beta = rng.randrange(2)
        other = 1 - beta
        asked = sorted({c.questions[2] for c in game.clauses})
        q = rng.choice(asked)
        gamma = gadget_words(game, hom.pair[(2, beta)], [q])[q]
        red = reduce_clause_word(game, gamma)
        assert red.per_player[other] == ()  # C1
        # C2: the beta image of the pair inverse of gamma's player-3 residue
        # telescopes to the pair (q, anchor) image
        target_q = min(c.questions[beta] for c in game.clauses)
        anchor = next(
            c.questions[2] for c in game.clauses if c.questions[beta] == target_q
        )
        lhs = reduce_clause_word(
            game, hom.phi_pair(2, beta, red.per_player[2])
        )
        rhs = reduce_clause_word(game, hom.phi_pair(2, beta, (q, anchor)))
        assert lhs.per_player[beta] == rhs.per_player[beta]  # C2
        c_checked += 1

    # observables pairwise commutation: 100 random angle tuples at 1e-12
    for _ in range(100):
        thetas = tuple(rng.uniform(0, 2 * math.pi) for _ in range(4))
        assert observables_pairwise_commute(thetas, tol=1e-12)

    # Smith decomposition identity on 500 random matrices up to 12x12
    for _ in range(500):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        a = matrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        dec = smith_normal_form(a)
        assert dec.u.mul(a).mul(dec.v) == dec.d

    print(
        "PASS criterion 7: algebraic property suites "
        f"(canon x1000, parity-trivial x1000 ({trivial} trivial), "
        f"A x{a_checked}, B x{b_checked}, C x{c_checked}, "
        "observables x100, smith x500)"
    )


def test_criterion_8_analytic_vs_simulator():
    rng = random.Random(20248)
    for _ in range(100):
        players = rng.choice([2, 3, 4])
        alphabet = rng.randrange(1, 4)
        game = generate_random_game(
            players, alphabet, rng.randrange(1, 7), seed=rng.randrange(10**9)
        )
        from xorgames.merp import MerpStrategy

        strat = MerpStrategy(
            tuple(
                tuple(
                    Fraction(rng.randrange(0, 48), rng.choice([1, 2, 3, 4, 6, 8])) % 2
                    for _ in range(alphabet)
                )
                for _ in range(players)
            )
        )
        sim = simulate_merp_value(game, strat)
        assert abs(sim.value - analytic_merp_value(game, strat)) <= 1e-9
    print("PASS criterion 8: simulator matches the closed form on 100 pairs")
