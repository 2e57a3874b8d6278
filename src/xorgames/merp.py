"""Shared-GHZ strategies with per-question relative phases.

Players share the k-qubit GHZ state (|0...0> + |1...1>)/sqrt(2); on question
q player a measures the conjugated Pauli-X observable
exp(i*theta*Z) X exp(-i*theta*Z) with theta = phi[a][q] * pi/2. A phase table
wins every round iff each clause's phase sum is congruent to its parity bit
mod 2, a linear diophantine condition solved exactly over the rationals.
GF(2) alone is not enough: some perfect games need half-integer phases.

Phases are exact Fractions end to end; floats appear only inside the
numerical simulator. Each observable maps a basis state to one basis state,
so the GHZ state stays two-sparse.
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

    @property
    def alphabet(self) -> int:
        return len(self.phi[0]) if self.phi else 0

    def to_dict(self) -> dict:
        return {
            "phi": [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.phi]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MerpStrategy":
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

        return cls(tuple(tuple(map(phase, row)) for row in obj["phi"]))


@dataclass(frozen=True)
class StrategyValue:
    value: float
    exact_perfect: bool


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


def _nonzero_columns(op):
    """The columns of a 2x2 op as their nonzero entries, row 0 first, each
    as (lands on the index with the qubit set, entry)."""
    (a, b), (c, d) = op
    return (
        tuple((high, x) for high, x in ((False, a), (True, c)) if x),
        tuple((high, x) for high, x in ((False, b), (True, d)) if x),
    )


def _apply_single_qubit(columns, psi: dict[int, complex], mask: int) -> dict[int, complex]:
    """A 2x2 op, given by `_nonzero_columns`, on the qubit `mask` selects
    of a sparse {index: amplitude}. A basis state whose qubit holds `bit`
    receives column `bit`: row 0 lands on the index with the qubit cleared,
    row 1 on the index with it set. A zero entry adds no amplitude."""
    out: dict[int, complex] = {}
    for index, amp in psi.items():
        low = index & ~mask
        for high, x in columns[index & mask != 0]:
            target = low | mask if high else low
            out[target] = out.get(target, 0j) + x * amp
    return out


def simulate_merp_value(game: Game, strat: MerpStrategy) -> StrategyValue:
    """State-vector evaluation of the expected score.

    Independent of the closed-form cosine expression: applies each 2x2
    observable to its qubit of the GHZ state and takes inner products. A
    table holds few distinct phases, so the observable of each distinct
    phase mod 2 is built once and shared by every entry that has it.
    """
    k = game.players
    if strat.players != k or strat.alphabet < game.alphabet:
        raise ValueError("strategy dimensions do not match the game")
    built: dict[Fraction, tuple] = {}

    def observable(x: Fraction):
        # The observable has period 2 in phi: reducing first keeps float()
        # finite.
        x %= 2
        op = built.get(x)
        if op is None:
            op = built[x] = _nonzero_columns(merp_observable(float(x) * math.pi / 2))
        return op

    ops = [list(map(observable, row)) for row in strat.phi]
    masks = [1 << (k - 1 - a) for a in range(k)]
    psi = {0: 1 / math.sqrt(2) + 0j, (1 << k) - 1: 1 / math.sqrt(2) + 0j}
    bra = [(i, amp.conjugate()) for i, amp in psi.items()]
    total = 0.0
    for c in game.clauses:
        vec = psi
        for row, q, mask in zip(ops, c.questions, masks):
            vec = _apply_single_qubit(row[q], vec, mask)
        overlap = sum(conj * vec.get(i, 0j) for i, conj in bra)
        total += ((-1) ** c.parity) * overlap.real
    value = 0.5 + total / (2 * game.num_clauses)
    if not -1e-12 <= value <= 1 + 1e-12:
        raise AssertionError(f"simulated value {value} outside [0, 1]")
    return StrategyValue(value=value, exact_perfect=verify_merp_symbolic(game, strat))
