"""Game instances: validation, parsing, serialization, random generation.

A k-player XOR game is an ordered multiset of clauses; each clause sends one
question per player and accepts iff the XOR of the one-bit answers equals the
clause's parity bit. Question indices are 1-based in every external format and
0-based everywhere in memory; the conversion happens only at the parse and
serialize boundaries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


class GameFormatError(ValueError):
    """Malformed or inconsistent game description."""


@dataclass(frozen=True)
class Clause:
    """One round: a question per player (0-based) and the target parity."""

    questions: tuple[int, ...]
    parity: int


@dataclass(frozen=True)
class Game:
    players: int
    alphabet: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.players < 2:
            raise GameFormatError(f"need at least 2 players, got {self.players}")
        if self.alphabet < 1:
            raise GameFormatError(f"alphabet size must be >= 1, got {self.alphabet}")
        if not self.clauses:
            raise GameFormatError("a game needs at least one clause")
        for i, c in enumerate(self.clauses):
            if len(c.questions) != self.players:
                raise GameFormatError(
                    f"clause {i + 1} has {len(c.questions)} questions, expected {self.players}"
                )
            for q in c.questions:
                if not 0 <= q < self.alphabet:
                    raise GameFormatError(
                        f"clause {i + 1} question {q + 1} out of range 1..{self.alphabet}"
                    )
            if c.parity not in (0, 1):
                raise GameFormatError(f"clause {i + 1} parity {c.parity} not in {{0, 1}}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def make_game(rows, alphabet=None) -> Game:
    """Build a Game from (questions, parity) rows with 1-based questions.

    Only converts: the first row sets the number of players, and the
    alphabet is the largest index unless declared. `Game` validates the
    result, so an index below 1 is reported there as out of range."""
    if not rows:
        raise GameFormatError("empty clause list")
    if alphabet is None:
        # At least 1, so that a game of indices below 1 is reported for its
        # indices, not for an empty alphabet that nobody declared.
        alphabet = max(1, *[max(questions, default=0) for questions, _ in rows])
    clauses = tuple(Clause(tuple([q - 1 for q in questions]), parity) for questions, parity in rows)
    return Game(players=len(rows[0][0]), alphabet=alphabet, clauses=clauses)


def parse_text(text: str) -> Game:
    """Parse the line format: k question indices then the parity bit.

    `#` starts a comment; blank lines are ignored. Clause order is preserved.
    A `# alphabet: N` comment declares the alphabet explicitly; otherwise the
    maximum index seen wins.
    """
    rows = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            comment = raw.split("#", 1)[1].strip()
            if comment.startswith("alphabet:") and declared is None:
                try:
                    declared = int(comment.split(":", 1)[1])
                except ValueError:
                    raise GameFormatError(f"line {lineno}: bad alphabet directive") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as e:
            raise GameFormatError(f"line {lineno}: {e}") from None
        if len(nums) < 3:
            raise GameFormatError(f"line {lineno}: need at least two questions and a parity bit")
        if nums[-1] not in (0, 1):
            raise GameFormatError(f"line {lineno}: parity {nums[-1]} not in {{0, 1}}")
        rows.append((nums[:-1], nums[-1]))
    if not rows:
        raise GameFormatError("no clauses found")
    return make_game(rows, alphabet=declared)


def parse_json(text: str) -> Game:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise GameFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("clauses"), list):
        raise GameFormatError("JSON game must be an object with a 'clauses' array")
    rows = []
    for c in obj["clauses"]:
        if not isinstance(c, dict) or "q" not in c or "s" not in c:
            raise GameFormatError("each clause must be an object {\"q\": [...], \"s\": 0|1}")
        # type() rather than isinstance(): JSON true/false are not numbers here.
        q, s = c["q"], c["s"]
        if not isinstance(q, list) or any(type(x) is not int for x in q):
            raise GameFormatError(f"clause questions {q!r} must be an array of integers")
        if type(s) is not int:
            raise GameFormatError(f"clause parity {s!r} must be the integer 0 or 1")
        rows.append((q, s))
    for key in ("players", "alphabet"):
        if key in obj and type(obj[key]) is not int:
            raise GameFormatError(f"{key} {obj[key]!r} must be an integer")
    game = make_game(rows, alphabet=obj.get("alphabet"))
    if "players" in obj and obj["players"] != game.players:
        raise GameFormatError(
            f"declared players {obj['players']} but clauses have {game.players} questions"
        )
    return game


def parse_game(data: str) -> Game:
    """Parse a game from text or JSON: JSON when its first non-blank
    character is '{', text otherwise."""
    if data.lstrip().startswith("{"):
        return parse_json(data)
    return parse_text(data)


def serialize_text(game: Game) -> str:
    lines = [f"# alphabet: {game.alphabet}"]
    for c in game.clauses:
        lines.append(" ".join(str(q + 1) for q in c.questions) + f" {c.parity}")
    return "\n".join(lines) + "\n"


def serialize_json(game: Game) -> str:
    obj = {
        "players": game.players,
        "alphabet": game.alphabet,
        "clauses": [
            {"q": [q + 1 for q in c.questions], "s": c.parity} for c in game.clauses
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def generate_random_game(players: int, alphabet: int, num_clauses: int, seed: int) -> Game:
    """Uniform questions over [1, alphabet]^players, uniform parity bits.

    Pure in (players, alphabet, num_clauses, seed).
    """
    if players < 2 or alphabet < 1 or num_clauses < 1:
        raise GameFormatError("need players >= 2, alphabet >= 1, clauses >= 1")
    rng = random.Random(seed)
    clauses = tuple(
        Clause(
            tuple(rng.randrange(alphabet) for _ in range(players)),
            rng.randrange(2),
        )
        for _ in range(num_clauses)
    )
    return Game(players=players, alphabet=alphabet, clauses=clauses)
