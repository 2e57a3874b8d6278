"""Certificate checks, recomputed from the game and the certificate alone:
`decide` re-checks what it writes and `verify` what it reads with the same
`check_certificate`. Only `games`, `words` and `merp` are imported, and
`merp` imports the decision procedure only inside `solve_merp`, so checking
a certificate loads nothing of the code that finds one."""

from __future__ import annotations

import json
from collections import defaultdict

from .games import Game
from .merp import MerpStrategy, simulate_merp_value
from .words import GroupWord, reduce_clause_word

EX_DATA = 65
EX_MISMATCH = 66


class CertificateError(Exception):
    """A certificate that is malformed (code 65), or that names header values,
    clause indices or a table shape the game does not have (66)."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_certificate(text: str) -> dict:
    """The JSON object of a certificate, which must name its type."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise CertificateError(f"bad certificate: {e}", EX_DATA) from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise CertificateError("certificate must be a JSON object with a 'type'", EX_DATA)
    return obj


def certificate_header(game: Game) -> dict:
    return {"players": game.players, "alphabet": game.alphabet, "num_clauses": game.num_clauses}


def check_header(obj: dict, game: Game):
    """Each header key present must be a JSON integer (65) equal to the
    game's (66): `!=` alone would pass 3.0 and true, and call "3" a
    mismatch."""
    for key, actual in certificate_header(game).items():
        if key in obj and type(obj[key]) is not int:
            raise CertificateError(
                f"bad certificate: {key!r} must be an integer, got {obj[key]!r}", EX_DATA
            )
        if key in obj and obj[key] != actual:
            raise CertificateError(
                f"certificate {key}={obj[key]} does not match game {key}={actual}", EX_MISMATCH
            )


def load_strategy(obj: dict, game: Game) -> MerpStrategy:
    """The certificate's phase table, with one entry per (player, question)."""
    try:
        strategy = MerpStrategy.from_dict(obj)
    except (KeyError, ValueError, TypeError, ArithmeticError) as e:
        raise CertificateError(f"bad phase table: {e}", EX_DATA) from None
    if not strategy.fits(game):
        raise CertificateError("phase table shape does not match the game", EX_MISMATCH)
    return strategy


def _int_list(obj: dict, key: str) -> list[int]:
    """A certificate list whose entries must be JSON integers: int() would
    truncate a float and accept a boolean."""
    value = obj.get(key)
    if not isinstance(value, list) or not {int}.issuperset(map(type, value)):
        raise CertificateError(f"bad certificate: {key!r} must be a list of integers", EX_DATA)
    return value


def check_obstruction(game: Game, z) -> bool:
    """Exact validity of a claimed witness: balanced incidences, odd parity."""
    z = tuple(int(x) for x in z)
    if len(z) != game.num_clauses:
        return False
    # Bᵀz one clause at a time: clause i adds z_i to each (player, question)
    # slot it asks, and every slot must come to zero.
    totals = defaultdict(int)
    for zi, c in zip(z, game.clauses):
        if zi:
            for slot in enumerate(c.questions):
                totals[slot] += zi
    if any(totals.values()):
        return False
    return sum(zi * c.parity for zi, c in zip(z, game.clauses)) % 2 == 1


def check_certificate(game: Game, obj: dict) -> bool:
    """Whether the certificate, header included, proves its claim about the
    game. Malformed content raises CertificateError: 65, or 66 for header
    values, clause indices and table shapes the game does not have."""
    check_header(obj, game)
    kind = obj["type"]
    if kind == "merp":
        strategy = load_strategy(obj, game)
        classical = obj.get("classically_perfect", False)
        if type(classical) is not bool:
            raise CertificateError("bad certificate: 'classically_perfect' must be a boolean", EX_DATA)
        simulated = simulate_merp_value(game, strategy)
        ok = simulated.exact_perfect and abs(simulated.value - 1) <= 1e-9
        if ok and classical:
            # Only integral phases are a deterministic classical strategy.
            ok = all(x.denominator == 1 for row in strategy.phi for x in row)
    elif kind == "refutation":
        z = _int_list(obj, "z")
        word = [i - 1 for i in _int_list(obj, "sigma_word")]
        try:
            product = reduce_clause_word(game, word)
        except IndexError:
            raise CertificateError("clause index out of range", EX_MISMATCH) from None
        ok = product == GroupWord.sign(game.players) and check_obstruction(game, z)
    elif kind == "obstruction":
        ok = check_obstruction(game, _int_list(obj, "z"))
    else:
        raise CertificateError(f"unknown certificate type {kind!r}", EX_DATA)
    return ok
