"""Certificate checker written apart from the program.

It re-derives every claim a certificate makes from the game alone, with its
own arithmetic, and shares no code with `xorgames`' verify or reduce paths:
a defect there cannot make this checker agree with a wrong certificate.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import INCONCLUSIVE, NOT_PERFECT, PERFECT, BenchGame

CERT_TYPE = {PERFECT: "merp", NOT_PERFECT: "refutation", INCONCLUSIVE: "obstruction"}


def _balanced_and_odd(game: BenchGame, z) -> bool:
    """z is an integer vector over the clauses with Bᵀz = 0 (every
    (player, question) incidence cancels) and odd pairing with the parities."""
    if not isinstance(z, list) or len(z) != len(game.clauses):
        return False
    if not all(type(x) is int for x in z):
        return False
    balance: dict[tuple[int, int], int] = {}
    odd = 0
    for zi, (questions, parity) in zip(z, game.clauses):
        for a, q in enumerate(questions):
            balance[(a, q)] = balance.get((a, q), 0) + zi
        odd += zi * parity
    return odd % 2 == 1 and not any(balance.values())


def _word_is_sign(game: BenchGame, word) -> bool:
    """Multiply the 1-based clause sequence out: one free reduction stack per
    player (letters are involutions) and the XOR of the parities. The product
    is the sign element iff every stack empties and the parity bit is 1."""
    if not isinstance(word, list):
        return False
    stacks = [[] for _ in range(game.players)]
    sign = 0
    for index in word:
        if type(index) is not int or not 1 <= index <= len(game.clauses):
            return False
        questions, parity = game.clauses[index - 1]
        for stack, q in zip(stacks, questions):
            if stack and stack[-1] == q:
                stack.pop()
            else:
                stack.append(q)
        sign ^= parity
    return sign == 1 and not any(stacks)


def _phases_win(game: BenchGame, phi) -> tuple[bool, bool]:
    """(every clause's phase sum ≡ parity mod 2, all phases integral)."""
    if not isinstance(phi, list) or len(phi) != game.players:
        return False, False
    try:
        table = [[Fraction(entry) for entry in row] for row in phi]
    except (TypeError, ValueError, ZeroDivisionError):
        return False, False
    if any(len(row) < game.alphabet for row in table):
        return False, False
    for questions, parity in game.clauses:
        diff = sum(table[a][q] for a, q in enumerate(questions)) - parity
        if diff.denominator != 1 or diff.numerator % 2:
            return False, False
    integral = all(x.denominator == 1 for row in table for x in row)
    return True, integral


def check(game: BenchGame, exit_code: int, cert_bytes: bytes) -> str | None:
    """None if the certificate proves the verdict `exit_code` for `game` and
    that verdict agrees with what is known about the game; otherwise the
    reason for rejecting it."""
    if exit_code not in game.allowed_exits:
        return f"verdict exit {exit_code} contradicts the known truth"
    if game.classical and exit_code != PERFECT:
        return "the game has a perfect classical strategy"
    try:
        cert = json.loads(cert_bytes)
    except ValueError:
        return "certificate is not JSON"
    if not isinstance(cert, dict):
        return "certificate is not a JSON object"
    header = {"players": game.players, "alphabet": game.alphabet,
              "num_clauses": len(game.clauses)}
    if any(cert.get(key) != value for key, value in header.items()):
        return "certificate header does not match the game"
    if cert.get("type") != CERT_TYPE[exit_code]:
        return f"certificate type {cert.get('type')!r} does not match exit {exit_code}"
    if exit_code == PERFECT:
        wins, integral = _phases_win(game, cert.get("phi"))
        if not wins:
            return "phase table misses a clause"
        claimed = cert.get("classically_perfect")
        if claimed and not integral:
            return "classical claim with non-integral phases"
        if claimed != game.classical:
            return f"classically_perfect={claimed}, expected {game.classical}"
        return None
    if not _balanced_and_odd(game, cert.get("z")):
        return "z is not a balanced odd witness"
    if exit_code == NOT_PERFECT and not _word_is_sign(game, cert.get("sigma_word")):
        return "sigma_word does not multiply out to the sign element"
    return None
