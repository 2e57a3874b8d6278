"""Shared-GHZ strategies with per-question relative phases.

Players share the k-qubit GHZ state (|0...0> + |1...1>)/sqrt(2); on question
q player a measures the conjugated Pauli-X observable
exp(i*theta*Z) X exp(-i*theta*Z) with theta = phi[a][q] * pi/2. A phase table
wins every round iff each clause's phase sum is congruent to its parity bit
mod 2, a linear diophantine condition solved exactly over the rationals.
GF(2) alone is not enough: some perfect games need half-integer phases.

Phases are exact Fractions end to end; floats appear only inside the
numerical simulator. Each observable has a zero diagonal, asserted when it
is built, so it maps a basis state to one basis state: the simulator
carries the GHZ state's two branches through each clause as two complex
amplitudes, one from |0...0> to |1...1> and one back.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import getitem

from .games import Game


# The string form to_dict writes: an optional sign, digits, optional /digits.
_PHASE_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _phase(entry) -> Fraction:
    """A phase as `to_dict` writes it, or a JSON integer. Fraction() would
    also read exponent notation, so a short string such as "2e30000000"
    could expand into an integer of any size, and it would take a boolean
    or a float as well."""
    if type(entry) is not int and not (isinstance(entry, str) and _PHASE_STRING.fullmatch(entry)):
        raise ValueError(f"phase {entry!r} is not of the form p or p/q")
    return Fraction(entry)


@dataclass(frozen=True)
class MerpStrategy:
    """phi[player][question]: rational phases in [0, 2); angle = phi*pi/2."""

    phi: tuple[tuple[Fraction, ...], ...]

    @property
    def players(self) -> int:
        return len(self.phi)

    def fits(self, game: Game) -> bool:
        """Whether the table has a row per player and an entry per question
        in every row."""
        return self.players == game.players and all(len(row) >= game.alphabet for row in self.phi)

    def to_dict(self) -> dict:
        return {
            "phi": [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.phi]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MerpStrategy":
        # Only lists: a string or an object row would be read one character
        # or one key per phase.
        table = obj["phi"]
        if type(table) is not list or not all(type(row) is list for row in table):
            raise ValueError(f"'phi' must be a list of lists of phases, not {table!r:.40}")
        # A table repeats a few phase strings many times: each distinct
        # string is matched and parsed once, in first-seen order, so a bad
        # entry raises exactly where it would without the cache.
        parsed: dict[str, Fraction] = {}

        def phase(entry) -> Fraction:
            if not isinstance(entry, str):
                return _phase(entry)
            x = parsed.get(entry)
            if x is None:
                x = parsed[entry] = _phase(entry)
            return x

        return cls(tuple(tuple(map(phase, row)) for row in table))


@dataclass(frozen=True)
class StrategyValue:
    value: float
    exact_perfect: bool


def solve_merp(game: Game) -> MerpStrategy | None:
    """Exact phase table winning every round, or None when no rational
    table exists (then `decide` finds the odd integer witness)."""
    # Imported here so that checking a phase table loads nothing of the
    # decision procedure; the benchmark's span tracer binds `merp.solve_merp`.
    from .decider import incidence_matrix
    from .intlinalg import solve_mod2_over_rationals

    phi = solve_mod2_over_rationals(
        incidence_matrix(game), [c.parity for c in game.clauses]
    )
    if phi is None:
        return None
    n = game.alphabet
    return MerpStrategy(tuple(phi[a * n:(a + 1) * n] for a in range(game.players)))


def verify_merp_symbolic(game: Game, strat: MerpStrategy) -> bool:
    """True iff every clause phase sum is congruent to its parity mod 2,
    exactly: each clause is summed in integers over the lcm of its own
    phases' denominators."""
    if not strat.fits(game):
        raise ValueError("strategy dimensions do not match the game")
    parts = [[(x.numerator, x.denominator) for x in row] for row in strat.phi]
    return all(
        congruent_mod2([row[q] for row, q in zip(parts, c.questions)], c.parity)
        for c in game.clauses
    )


def congruent_mod2(terms, target: int) -> bool:
    """Whether the sum of the rationals n/d, given as (n, d) pairs, is
    congruent to the integer target mod 2. The sum is taken in integers:
    each term is written over L, the lcm of these denominators alone, and
    total − target·L must be a multiple of 2L. So L stays within the
    product of the terms' own denominators, however many other
    denominators the caller's table holds."""
    common = lcm(*[d for _, d in terms])
    total = sum([n * (common // d) for n, d in terms])
    return (total - target * common) % (2 * common) == 0


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def merp_observable(theta: float) -> tuple[tuple[complex, ...], ...]:
    """exp(i*theta*Z) X exp(-i*theta*Z), built as the literal conjugation."""
    phase = ((cmath.exp(1j * theta), 0j), (0j, cmath.exp(-1j * theta)))
    pauli_x = ((0j, 1 + 0j), (1 + 0j, 0j))
    phase_dagger = tuple(tuple(x.conjugate() for x in col) for col in zip(*phase))
    return _matmul(_matmul(phase, pauli_x), phase_dagger)


def simulate_merp_value(game: Game, strat: MerpStrategy) -> StrategyValue:
    """State-vector evaluation of the expected score.

    Independent of the closed-form cosine expression: applies each 2x2
    observable to its qubit of the GHZ state and takes inner products. An
    observable's diagonal is zero, so it maps a basis state to one basis
    state, and each clause carries the GHZ state's two branches as two
    amplitudes: the branch from |0...0> takes column 0's entry of each
    player's observable and lands on |1...1>, the other takes column 1's
    and lands on |0...0>. A table holds few distinct phases, so the
    observable of each distinct phase mod 2 is built once and shared by
    every entry that has it.
    """
    if not strat.fits(game):
        raise ValueError("strategy dimensions do not match the game")
    built: dict[Fraction, tuple[complex, complex]] = {}

    def branch_entries(x: Fraction) -> tuple[complex, complex]:
        # The entries that raise and lower the qubit: row 1 of column 0 and
        # row 0 of column 1. The observable has period 2 in phi: reducing
        # first keeps float() finite. Each table value is reduced once and
        # each residue built once.
        entries = built.get(x)
        if entries is None:
            r = x % 2
            entries = built.get(r)
            if entries is None:
                (a, b), (c, d) = merp_observable(float(r) * math.pi / 2)
                if a or d:
                    raise AssertionError(f"observable of phase {r} has a nonzero diagonal")
                entries = built[r] = (c, b)
            built[x] = entries
        return entries

    ops = [list(map(branch_entries, row)) for row in strat.phi]
    amp = 1 / math.sqrt(2) + 0j
    conj = amp.conjugate()
    total = 0.0
    for c in game.clauses:
        high = low = amp
        # `0j +` and the overlap's sum from 0, the |0...0> term first, are a
        # sparse state vector's float operations in its order, so the value
        # equals the general simulator's in tests/helpers.py bit for bit.
        for up, down in map(getitem, ops, c.questions):
            high = 0j + up * high
            low = 0j + down * low
        overlap = 0 + conj * low + conj * high
        total += ((-1) ** c.parity) * overlap.real
    value = 0.5 + total / (2 * game.num_clauses)
    if not -1e-12 <= value <= 1 + 1e-12:
        raise AssertionError(f"simulated value {value} outside [0, 1]")
    return StrategyValue(value=value, exact_perfect=verify_merp_symbolic(game, strat))
