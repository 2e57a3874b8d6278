"""Seeded game suites for the benchmark.

Every game is generated here without calling the program, from the
workload seed or, for refute3, from fixed generator seeds that the workload
seed only reorders. The program only ever sees the game files written by
`write_suite`.
Each game carries the verdicts it may legitimately receive, so the run can
check decisions against a truth known independently of the decider.

See README.md in this directory for why each suite looks the way it does.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Exit codes of `xorgames decide` for each verdict.
PERFECT = 0
NOT_PERFECT = 1
INCONCLUSIVE = 2


@dataclass(frozen=True)
class BenchGame:
    name: str
    players: int
    alphabet: int
    clauses: tuple[tuple[tuple[int, ...], int], ...]  # 0-based questions, parity
    # Exit codes that agree with what is known about the game.
    allowed_exits: frozenset[int]
    # Whether the clause system is solvable over GF(2), i.e. the game has a
    # perfect classical strategy; such a game must be CLASSICALLY_PERFECT.
    classical: bool

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.players, self.alphabet, len(self.clauses))

    def text(self) -> str:
        lines = [f"# alphabet: {self.alphabet}"]
        for questions, parity in self.clauses:
            lines.append(" ".join(str(q + 1) for q in questions) + f" {parity}")
        return "\n".join(lines) + "\n"


def uniform_game(players: int, alphabet: int, num_clauses: int, seed: int):
    """Uniform questions and parities; the same draw order as the program's
    `gen` subcommand, so `xorgames gen -k K -n N -m M --seed S` reproduces
    the game outside the benchmark."""
    rng = random.Random(seed)
    return tuple(
        (tuple(rng.randrange(alphabet) for _ in range(players)), rng.randrange(2))
        for _ in range(num_clauses)
    )


def gf2_solvable(players: int, alphabet: int, clauses) -> bool:
    """Whether the clause system has a 0/1 solution (a perfect classical
    strategy). Plain elimination on bitmasks, independent of the program."""
    pivots: dict[int, tuple[int, int]] = {}
    for questions, parity in clauses:
        mask = 0
        for a, q in enumerate(questions):
            mask ^= 1 << (a * alphabet + q)
        rhs = parity
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, rhs)
                break
            pmask, prhs = pivots[top]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                return False
    return True


def bench_game(name, players, alphabet, clauses, allowed_exits) -> BenchGame:
    return BenchGame(
        name=name,
        players=players,
        alphabet=alphabet,
        clauses=tuple(clauses),
        allowed_exits=frozenset(allowed_exits),
        classical=gf2_solvable(players, alphabet, clauses),
    )


# refute3: the first four generator seeds at each size, run in an order the
# workload seed shuffles. Fresh draws per seed are not used here: the
# refutation cost is heavy-tailed (see README.md), so a suite small enough
# to time would change its totals by a large factor from seed to seed.
REFUTE3_SIZES = (12, 16, 20, 24)
REFUTE3_CORPUS_SEEDS = range(4)


def refute3(seed: int) -> list[BenchGame]:
    games = [
        bench_game(
            f"refute3-n{n}-g{s}", 3, n, uniform_game(3, n, 5 * n, s),
            # Either three-player verdict may be right; INCONCLUSIVE never is.
            {PERFECT, NOT_PERFECT},
        )
        for n in REFUTE3_SIZES
        for s in REFUTE3_CORPUS_SEEDS
    ]
    random.Random(seed).shuffle(games)
    return games


# perfect_planted: (players, alphabet, clauses, integral) per game; one
# integral plant per player count makes the CLASSICALLY_PERFECT minority.
PLANTED_SHAPES = tuple(
    (k, n, m, integral)
    for k, n, m in ((3, 20, 100), (4, 15, 105), (6, 10, 110), (10, 6, 120))
    for integral in (False, False, False, True)
)


def planted_misses(phi, clauses) -> list[int]:
    """Clauses whose phase sum under `phi` is not congruent to their parity
    mod 2, in exact arithmetic."""
    return [
        i for i, (questions, parity) in enumerate(clauses)
        if (sum(phi[a][q] for a, q in enumerate(questions)) - parity) % 2 != 0
    ]


def planted_game(players, alphabet, num_clauses, integral, rng, name) -> BenchGame:
    """Plant a phase table, keep random question tuples whose phase sum is an
    integer, and set each parity to that sum mod 2."""
    values = (Fraction(0), Fraction(1)) if integral else tuple(
        Fraction(i, 2) for i in range(4)
    )
    phi = [[rng.choice(values) for _ in range(alphabet)] for _ in range(players)]
    clauses = []
    while len(clauses) < num_clauses:
        questions = tuple(rng.randrange(alphabet) for _ in range(players))
        total = sum(phi[a][q] for a, q in enumerate(questions))
        if total.denominator == 1:
            clauses.append((questions, total.numerator % 2))
    missed = planted_misses(phi, clauses)
    if missed:
        raise AssertionError(f"{name}: planted phases miss clauses {missed}")
    game = bench_game(name, players, alphabet, clauses, {PERFECT})
    if integral and not game.classical:
        raise AssertionError(f"{name}: integral plant is not GF(2)-solvable")
    return game


def perfect_planted(seed: int) -> list[BenchGame]:
    rng = random.Random(seed)
    return [
        planted_game(k, n, m, integral, rng, f"planted-k{k}-{i}")
        for i, (k, n, m, integral) in enumerate(PLANTED_SHAPES)
    ]


# inconclusive4: fresh uniform games, four per (alphabet, clauses) shape;
# the cost of one game varies with the growth of its Smith transforms, and
# four per shape keep the suite totals close from seed to seed.
INCONCLUSIVE4_SHAPES = ((30, 200), (30, 300), (40, 200), (40, 300))
INCONCLUSIVE4_PER_SHAPE = 4


def inconclusive4(seed: int) -> list[BenchGame]:
    rng = random.Random(seed)
    return [
        bench_game(
            f"inconclusive4-n{n}-m{m}-{i}", 4, n, uniform_game(4, n, m, rng.getrandbits(32)),
            {PERFECT, INCONCLUSIVE},
        )
        for n, m in INCONCLUSIVE4_SHAPES
        for i in range(INCONCLUSIVE4_PER_SHAPE)
    ]


WORKLOADS = {
    "refute3": refute3,
    "perfect_planted": perfect_planted,
    "inconclusive4": inconclusive4,
}


def write_suite(games, directory: str) -> list[str]:
    paths = []
    for i, game in enumerate(games):
        path = os.path.join(directory, f"{i:03d}-{game.name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(game.text())
        paths.append(path)
    return paths
