"""Command-line surface.

Subcommands: decide, verify, simulate, classical, export-graph, gen.
All output is deterministic for fixed inputs and seeds; certificates are
re-verified before any verdict is printed and verification failure is a hard
error, never a downgraded verdict.

Exit codes: 0 verdict PERFECT or CLASSICALLY_PERFECT (or verify pass),
1 NOT_PERFECT (or verify fail), 2 NO_PERFECT_MERP_INCONCLUSIVE, 64 usage
(`decide --out -` included) or `classical`'s size limit, 65 unreadable,
malformed or too deeply nested input, 66 certificate/game mismatch,
70 internal error (a re-verification or any other exact self-check failing,
a refutation outgrowing `--cap`, or any other unexpected exception; always
reported as one `error:` line),
71 out of memory, 73 an output path that cannot be written (one `error:`
line; `decide` then prints no verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import merp, oracle
from .decider import check_obstruction, decide
from .games import Game, GameFormatError, generate_random_game, parse_game, serialize_json, serialize_text
from .graphs import PairGraph, decompose_components, hypergraph_dot, pair_graph_dot
from .merp import MerpStrategy
from .refutation import DEFAULT_CAP, WordLengthCapExceeded, refute
from .words import GroupWord, reduce_clause_word

EX_USAGE = 64
EX_DATA = 65
EX_MISMATCH = 66
EX_INTERNAL = 70
EX_RESOURCE = 71
EX_CANTCREAT = 73


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}", EX_DATA) from None


def _load_game(path: str) -> Game:
    try:
        return parse_game(_read_input(path))
    except GameFormatError as e:
        raise CliError(f"bad game: {e}", EX_DATA) from None


def _write_file(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EX_CANTCREAT) from None


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def _certificate_header(game: Game) -> dict:
    return {
        "players": game.players,
        "alphabet": game.alphabet,
        "num_clauses": game.num_clauses,
    }


def _dump_certificate(obj: dict, path: str):
    _write_file(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_decide(args) -> int:
    if args.out == "-":
        raise CliError("decide writes its certificate to a file; --out - is not supported", EX_USAGE)
    game = _load_game(args.game)
    components = decompose_components(game)
    outcomes = [decide(comp.game) for comp in components]
    print(f"components: {len(components)}")
    for idx, (comp, outcome) in enumerate(zip(components, outcomes)):
        print(
            f"  component {idx}: clauses={comp.game.num_clauses}"
            f" refutable={'yes' if outcome.member else 'no'}"
        )

    if not any(o.member for o in outcomes):
        strategy = merp.solve_merp(game)
        if strategy is None:
            raise CliError("decider and phase solver disagree", EX_INTERNAL)
        bits = oracle.gf2_solve(game)
        classical = bits is not None
        if classical:
            # Integral phases double as a deterministic classical strategy.
            strategy = _integral_strategy(game, bits)
        cert = dict(type="merp", classically_perfect=classical, **strategy.to_dict())
        verdict, code = ("CLASSICALLY_PERFECT" if classical else "PERFECT"), 0
    elif game.players == 3:
        certificate = refute(game, cap=args.cap)
        cert = dict(
            type="refutation",
            z=list(certificate.z),
            sigma_word=[i + 1 for i in certificate.sigma_word],
            verified=True,
        )
        del certificate  # the 0-based word is no longer needed
        verdict, code = "NOT_PERFECT", 1
    else:
        comp, outcome = next((c, o) for c, o in zip(components, outcomes) if o.member)
        z, _ = comp.lift(game.num_clauses, outcome.obstruction_z)
        cert = dict(type="obstruction", z=list(z))
        verdict, code = "NO_PERFECT_MERP_INCONCLUSIVE", 2

    # Re-check exactly what gets written, with the checks `verify` runs.
    try:
        ok = _check_certificate(game, cert)
    except CliError:  # content `verify` would reject as malformed
        ok = False
    if not ok:
        raise CliError(f"{cert['type']} failed re-verification", EX_INTERNAL)
    _dump_certificate(dict(_certificate_header(game), **cert), args.out)
    print(f"verdict: {verdict}")
    print(f"certificate: {args.out}")
    return code


def _integral_strategy(game: Game, bits) -> MerpStrategy:
    phi = tuple(
        tuple(Fraction(bits[a * game.alphabet + q]) for q in range(game.alphabet))
        for a in range(game.players)
    )
    return MerpStrategy(phi)


def _load_certificate(path: str) -> dict:
    try:
        obj = json.loads(_read_input(path))
    except (json.JSONDecodeError, RecursionError) as e:
        raise CliError(f"bad certificate: {e}", EX_DATA) from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise CliError("certificate must be a JSON object with a 'type'", EX_DATA)
    return obj


def _check_cert_matches(obj: dict, game: Game):
    """Each header key present must be a JSON integer (65) equal to the
    game's (66): `!=` alone would pass 3.0 and true, and call "3" a
    mismatch."""
    for key, actual in _certificate_header(game).items():
        if key in obj and type(obj[key]) is not int:
            raise CliError(f"bad certificate: {key!r} must be an integer, got {obj[key]!r}", EX_DATA)
        if key in obj and obj[key] != actual:
            raise CliError(
                f"certificate {key}={obj[key]} does not match game {key}={actual}",
                EX_MISMATCH,
            )


def _load_strategy(obj: dict, game: Game) -> MerpStrategy:
    """The certificate's phase table, with one entry per (player, question)."""
    try:
        strategy = MerpStrategy.from_dict(obj)
    except (KeyError, ValueError, TypeError, ArithmeticError) as e:
        raise CliError(f"bad phase table: {e}", EX_DATA) from None
    if not strategy.fits(game):
        raise CliError("phase table shape does not match the game", EX_MISMATCH)
    return strategy


def _int_list(obj: dict, key: str) -> list[int]:
    """A certificate list whose entries must be JSON integers: int() would
    truncate a float and accept a boolean."""
    value = obj.get(key)
    if not isinstance(value, list) or not {int}.issuperset(map(type, value)):
        raise CliError(f"bad certificate: {key!r} must be a list of integers", EX_DATA)
    return value


def _check_certificate(game: Game, obj: dict) -> bool:
    """Whether the certificate proves its claim about the game, recomputed
    from its content alone. Malformed content raises CliError: 65, or 66
    for clause indices and table shapes the game does not have."""
    kind = obj["type"]
    if kind == "merp":
        strategy = _load_strategy(obj, game)
        classical = obj.get("classically_perfect", False)
        if type(classical) is not bool:
            raise CliError("bad certificate: 'classically_perfect' must be a boolean", EX_DATA)
        simulated = merp.simulate_merp_value(game, strategy)
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
            raise CliError("clause index out of range", EX_MISMATCH) from None
        ok = product == GroupWord.sign(game.players) and check_obstruction(game, z)
    elif kind == "obstruction":
        ok = check_obstruction(game, _int_list(obj, "z"))
    else:
        raise CliError(f"unknown certificate type {kind!r}", EX_DATA)
    return ok


def cmd_verify(args) -> int:
    game = _load_game(args.game)
    obj = _load_certificate(args.certificate)
    _check_cert_matches(obj, game)
    ok = _check_certificate(game, obj)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    game = _load_game(args.game)
    obj = _load_certificate(args.certificate)
    _check_cert_matches(obj, game)
    if obj["type"] != "merp":
        raise CliError("simulate needs a phase-table certificate", EX_DATA)
    result = merp.simulate_merp_value(game, _load_strategy(obj, game))
    print(f"value: {result.value:.12f}")
    print(f"exact_perfect: {'yes' if result.exact_perfect else 'no'}")
    return 0


def cmd_classical(args) -> int:
    game = _load_game(args.game)
    try:
        result = oracle.classical_value(game)
    except ValueError as e:  # the brute-force cap
        raise CliError(str(e), EX_USAGE) from None
    print(result.value)
    assignment = " ".join(
        f"x{q + 1}^({a + 1})={val:+d}"
        for a, row in enumerate(result.assignment)
        for q, val in enumerate(row)
    )
    print(f"assignment: {assignment}")
    return 0


def cmd_export_graph(args) -> int:
    game = _load_game(args.game)
    if args.pair:
        try:
            a, b = (int(x) for x in args.pair.split(","))
        except ValueError:
            raise CliError("--pair expects two players like '2,3'", EX_USAGE) from None
        if not (1 <= a <= game.players and 1 <= b <= game.players) or a == b:
            raise CliError("--pair players out of range", EX_USAGE)
        text = pair_graph_dot(PairGraph(game, a - 1, b - 1))
    else:
        text = hypergraph_dot(game)
    _write_output(args.out, text)
    return 0


def cmd_gen(args) -> int:
    try:
        game = generate_random_game(args.players, args.alphabet, args.clauses, args.seed)
    except GameFormatError as e:
        raise CliError(str(e), EX_USAGE) from None
    text = serialize_json(game) if args.format == "json" else serialize_text(game)
    _write_output(args.out, text)
    return 0


def _at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every `main` call
    in one interpreter parses with the same parser."""
    parser = argparse.ArgumentParser(
        prog="xorgames",
        description="Decide perfect entangled strategies for XOR games and "
        "emit verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide the game and write a certificate")
    p.add_argument("game", help="game file, or '-' for stdin")
    p.add_argument("--out", default="certificate.json", help="certificate file path ('-' is refused)")
    p.add_argument(
        "--cap", type=_at_least(1), default=DEFAULT_CAP, metavar="N",
        help="abort refutation construction beyond N clause letters",
    )
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="re-check a certificate against a game")
    p.add_argument("game", help="game file, or '-' for stdin")
    p.add_argument("certificate", help="certificate file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="simulate a phase-table strategy")
    p.add_argument("game", help="game file, or '-' for stdin")
    p.add_argument("certificate", help="phase-table certificate file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", help="exact classical value by brute force")
    p.add_argument("game", help="game file, or '-' for stdin")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("export-graph", help="DOT export of the clause graphs")
    p.add_argument("game", help="game file, or '-' for stdin")
    p.add_argument("--pair", help="induced pair graph, e.g. '2,3' (default: hypergraph)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("gen", help="generate a seeded random game")
    p.add_argument("--players", "-k", type=int, default=3)
    p.add_argument("--alphabet", "-n", type=int, default=2)
    p.add_argument("--clauses", "-m", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except WordLengthCapExceeded as e:
        print(f"error: refutation pipeline failed: {e}", file=sys.stderr)
        return EX_INTERNAL
    except AssertionError as e:  # an exact self-check failed: a bug
        print(f"error: internal check failed: {e}", file=sys.stderr)
        return EX_INTERNAL
    except BrokenPipeError:
        return 0
    except MemoryError:
        pass  # reported below, once the frames holding the memory are released
    except Exception as e:  # any other escape from a subcommand is a bug too
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_INTERNAL
    print("error: out of memory", file=sys.stderr)
    return EX_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
