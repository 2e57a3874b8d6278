"""Shared-GHZ strategies with per-question relative phases.

Players share the k-qubit GHZ state (|0...0> + |1...1>)/sqrt(2); on question
q player a measures the conjugated Pauli-X observable
exp(i*theta*Z) X exp(-i*theta*Z) with theta = phi[a][q] * pi/2. A phase table
wins every round iff each clause's phase sum is congruent to its parity bit
mod 2, a linear diophantine condition solved exactly over the rationals.
GF(2) alone is not enough: some perfect games need half-integer phases.

Phases are exact Fractions end to end; floats appear only inside the
numerical simulator and its closed-form cross-check. Each observable maps a
basis state to one basis state, so the GHZ state stays two-sparse.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .decider import incidence_matrix
from .games import Game
from .intlinalg import congruent_mod2, solve_mod2_over_rationals


# The string form to_dict writes: an optional sign, digits, optional /digits.
_PHASE_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _phase(entry) -> Fraction:
    """Fraction() would also read exponent notation, so a short string such
    as "2e30000000" could expand into an integer of any size."""
    if isinstance(entry, str) and not _PHASE_STRING.fullmatch(entry):
        raise ValueError(f"phase {entry!r} is not of the form p or p/q")
    return Fraction(entry)


@dataclass(frozen=True)
class MerpStrategy:
    """phi[player][question]: rational phases in [0, 2); angle = phi*pi/2."""

    phi: tuple[tuple[Fraction, ...], ...]

    @property
    def players(self) -> int:
        return len(self.phi)

    @property
    def alphabet(self) -> int:
        return len(self.phi[0]) if self.phi else 0

    def to_dict(self) -> dict:
        return {
            "phi": [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.phi]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MerpStrategy":
        return cls(tuple(tuple(_phase(entry) for entry in row) for row in obj["phi"]))


@dataclass(frozen=True)
class StrategyValue:
    value: float
    exact_perfect: bool


def clause_phase_sum(game: Game, strat: MerpStrategy, i: int) -> Fraction:
    c = game.clauses[i]
    return sum(
        (strat.phi[a][q] for a, q in enumerate(c.questions)), Fraction(0)
    )


def solve_merp(game: Game) -> MerpStrategy | None:
    """Exact phase table winning every round, or None when no rational
    table exists (then `decide` finds the odd integer witness)."""
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
    if strat.players != game.players or strat.alphabet < game.alphabet:
        raise ValueError("strategy dimensions do not match the game")
    parts = [[(x.numerator, x.denominator) for x in row] for row in strat.phi]
    return all(
        congruent_mod2([row[q] for row, q in zip(parts, c.questions)], c.parity)
        for c in game.clauses
    )


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def merp_observable(theta: float) -> tuple[tuple[complex, ...], ...]:
    """exp(i*theta*Z) X exp(-i*theta*Z), built as the literal conjugation."""
    phase = ((cmath.exp(1j * theta), 0j), (0j, cmath.exp(-1j * theta)))
    pauli_x = ((0j, 1 + 0j), (1 + 0j, 0j))
    phase_dagger = tuple(tuple(x.conjugate() for x in col) for col in zip(*phase))
    return _matmul(_matmul(phase, pauli_x), phase_dagger)


def _apply_single_qubit(op, psi: dict[int, complex], qubit: int, k: int) -> dict[int, complex]:
    """op on one qubit (0 = most significant bit) of a sparse {index: amplitude}."""
    mask = 1 << (k - 1 - qubit)
    out: dict[int, complex] = {}
    for index, amp in psi.items():
        bit = 1 if index & mask else 0
        for row, target in ((0, index & ~mask), (1, index | mask)):
            if op[row][bit]:  # a zero entry adds no amplitude
                out[target] = out.get(target, 0j) + op[row][bit] * amp
    return out


def simulate_merp_value(game: Game, strat: MerpStrategy) -> StrategyValue:
    """State-vector evaluation of the expected score.

    Independent of the closed-form cosine expression: applies each 2x2
    observable to its qubit of the GHZ state and takes inner products.
    """
    k = game.players
    if strat.players != k or strat.alphabet < game.alphabet:
        raise ValueError("strategy dimensions do not match the game")
    # The observable has period 2 in phi: reducing first keeps float() finite.
    ops = [[merp_observable(float(x % 2) * math.pi / 2) for x in row] for row in strat.phi]
    psi = {0: 1 / math.sqrt(2) + 0j, (1 << k) - 1: 1 / math.sqrt(2) + 0j}
    total = 0.0
    for c in game.clauses:
        vec = psi
        for a, q in enumerate(c.questions):
            vec = _apply_single_qubit(ops[a][q], vec, a, k)
        overlap = sum(amp.conjugate() * vec.get(i, 0j) for i, amp in psi.items())
        total += ((-1) ** c.parity) * overlap.real
    value = 0.5 + total / (2 * game.num_clauses)
    if not -1e-12 <= value <= 1 + 1e-12:
        raise AssertionError(f"simulated value {value} outside [0, 1]")
    return StrategyValue(value=value, exact_perfect=verify_merp_symbolic(game, strat))


def analytic_merp_value(game: Game, strat: MerpStrategy) -> float:
    """Closed form: 1/2 + (1/2m) * sum_j (-1)^s_j cos(pi * phase sum)."""
    total = sum(
        ((-1) ** c.parity) * math.cos(math.pi * float(clause_phase_sum(game, strat, i) % 2))
        for i, c in enumerate(game.clauses)
    )
    return 0.5 + total / (2 * game.num_clauses)

