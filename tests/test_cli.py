import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from xorgames.cli import main
from xorgames.games import (
    Clause,
    Game,
    GameFormatError,
    generate_random_game,
    parse_game,
    serialize_text,
)
from xorgames.merp import MerpStrategy
from xorgames.refutation import RefutationCertificate

GHZ_TEXT = "1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1\n"
PAIR_TEXT = "1 1 1 0\n1 1 1 1\n"
CHSH_TEXT = "1 1 1\n2 1 0\n1 2 0\n2 2 0\n"
SAT_TEXT = "1 1 1 0\n1 2 2 0\n"


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.txt"
    path.write_text(GHZ_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_ghz_perfect(tmp_path, capsys, ghz_file):
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "decide", ghz_file, "--out", cert)
    assert code == 0
    assert "verdict: PERFECT" in out
    obj = json.loads(Path(cert).read_text())
    assert obj["type"] == "merp"
    assert sorted(set(obj["phi"][0])) == ["0/1", "1/2"]
    assert obj["classically_perfect"] is False


def test_decide_pair_not_perfect(tmp_path, capsys):
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "decide", str(game), "--out", cert)
    assert code == 1
    assert "verdict: NOT_PERFECT" in out
    obj = json.loads(Path(cert).read_text())
    assert obj["type"] == "refutation"
    assert obj["verified"] is True
    assert sorted(obj["sigma_word"]) == [1, 2]


def test_decide_chsh_inconclusive(tmp_path, capsys):
    game = tmp_path / "chsh.txt"
    game.write_text(CHSH_TEXT)
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "decide", str(game), "--out", cert)
    assert code == 2
    assert "verdict: NO_PERFECT_MERP_INCONCLUSIVE" in out
    obj = json.loads(Path(cert).read_text())
    assert obj["type"] == "obstruction"
    assert obj["z"] in ([1, -1, -1, 1], [-1, 1, 1, -1])


def _corrupt_merp(monkeypatch):
    import xorgames.merp

    solve = xorgames.merp.solve_merp

    def corrupted(game):
        phi = [list(row) for row in solve(game).phi]
        phi[0][0] += Fraction(1, 2)
        return MerpStrategy(tuple(map(tuple, phi)))

    monkeypatch.setattr(xorgames.merp, "solve_merp", corrupted)
    return GHZ_TEXT


def _corrupt_classical(monkeypatch):
    import xorgames.cli

    # Wins every round of SAT_TEXT, but with half-integer phases it is no
    # deterministic classical strategy.
    half = Fraction(1, 2)
    table = MerpStrategy(((half, Fraction(0)), (half, half), (Fraction(1), Fraction(1))))
    monkeypatch.setattr(xorgames.cli, "_integral_strategy", lambda game, bits: table)
    return SAT_TEXT


def _corrupt_refutation(monkeypatch, damage=lambda word: word[:-1]):
    import xorgames.cli

    refute = xorgames.cli.refute

    def corrupted(game, cap):
        cert = refute(game, cap=cap)
        return RefutationCertificate(cert.z, damage(cert.sigma_word))

    monkeypatch.setattr(xorgames.cli, "refute", corrupted)
    return PAIR_TEXT


def _corrupt_obstruction(monkeypatch):
    from xorgames.graphs import ComponentGame

    lift = ComponentGame.lift

    def corrupted(self, *args):
        z, word = lift(self, *args)
        return (z[0] + 1,) + z[1:], word

    monkeypatch.setattr(ComponentGame, "lift", corrupted)
    return "1 1 1 1 0\n1 1 1 1 1\n"


# Per case: the certificate type `decide` writes, and a function that
# patches the program to build that certificate wrong and returns the game.
CORRUPTIONS = {
    "merp": ("merp", _corrupt_merp),
    "classical": ("merp", _corrupt_classical),
    "refutation": ("refutation", _corrupt_refutation),
    # A clause index the game lacks: `verify` would exit 66, `decide` 70.
    "refutation_index": (
        "refutation", lambda mp: _corrupt_refutation(mp, lambda word: word + (2,))
    ),
    "obstruction": ("obstruction", _corrupt_obstruction),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_decide_rechecks_written_certificate(tmp_path, capsys, monkeypatch, case):
    kind, corrupt = CORRUPTIONS[case]
    game = tmp_path / "game.txt"
    game.write_text(corrupt(monkeypatch))
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert))
    assert code == 70
    assert "verdict:" not in out
    assert err == f"error: {kind} failed re-verification\n"
    assert not cert.exists()


def test_decide_classically_perfect(tmp_path, capsys):
    game = tmp_path / "sat.txt"
    game.write_text(SAT_TEXT)
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "decide", str(game), "--out", cert)
    assert code == 0
    assert "verdict: CLASSICALLY_PERFECT" in out
    obj = json.loads(Path(cert).read_text())
    assert obj["classically_perfect"] is True
    assert all(x in ("0/1", "1/1") for row in obj["phi"] for x in row)


@pytest.mark.parametrize(
    "game_name,flag,code",
    [
        ("sat", True, 0),
        ("ghz", True, 1),  # half-integer phases are no classical strategy
        ("ghz", "yes", 65),
        ("ghz", 1, 65),
        ("ghz", None, 0),  # no flag, no claim
    ],
)
def test_verify_checks_classical_claim(tmp_path, capsys, game_name, flag, code):
    game = tmp_path / "game.txt"
    game.write_text({"ghz": GHZ_TEXT, "sat": SAT_TEXT}[game_name])
    cert = tmp_path / "cert.json"
    run(capsys, "decide", str(game), "--out", str(cert))
    obj = json.loads(cert.read_text())
    if flag is None:
        del obj["classically_perfect"]
    else:
        obj["classically_perfect"] = flag
    cert.write_text(json.dumps(obj))
    got, out, err = run(capsys, "verify", str(game), str(cert))
    assert got == code
    assert out == {0: "PASS\n", 1: "FAIL\n", 65: ""}[code]
    assert "Traceback" not in err


def test_decide_parse_error(tmp_path, capsys):
    game = tmp_path / "bad.txt"
    game.write_text("1 1 1 7\n")
    code, _, err = run(capsys, "decide", str(game))
    assert code == 65
    assert "error:" in err


# Question indices are 1-based: 0 and negative indices are malformed, and so
# is a clause with fewer questions than the first one.
BAD_QUESTIONS = {
    "text_zero": "1 0 1 0\n",
    "text_only_zeros": "0 0 0\n",
    "text_negative": "1 -3 1 0\n",
    "text_ragged": "1 1 1 0\n1 1 0\n",
    "json_zero": '{"clauses": [{"q": [1, 0, 1], "s": 0}]}',
    "json_negative": '{"alphabet": 2, "clauses": [{"q": [1, -3, 1], "s": 0}]}',
    "json_ragged": '{"clauses": [{"q": [1, 1, 1], "s": 0}, {"q": [1, 1], "s": 0}]}',
}


@pytest.mark.parametrize("case", sorted(BAD_QUESTIONS))
def test_bad_question_indices_are_bad_games(tmp_path, capsys, case):
    with pytest.raises(GameFormatError):
        parse_game(BAD_QUESTIONS[case])
    game = tmp_path / "bad.game"
    game.write_text(BAD_QUESTIONS[case])
    code, out, err = run(capsys, "decide", str(game), "--out", str(tmp_path / "c.json"))
    assert (code, out) == (65, "")
    assert err.startswith("error: bad game: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_decide_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/game.txt")
    assert code == 65


def test_usage_error(capsys, ghz_file):
    assert main(["decide"]) == 64
    assert main(["not-a-command"]) == 64
    # The input format is sniffed; there is no option to force one.
    assert main(["decide", ghz_file, "--format", "json"]) == 64
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--cap", "0"), ("--cap", "-5")])
def test_decide_rejects_out_of_range_arguments(tmp_path, capsys, option, value):
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert), option, value)
    assert code == 64
    assert out == "" and not cert.exists()
    assert f"argument {option}: must be at least" in err


@pytest.mark.parametrize("game", ["pair.txt", "missing.txt"])
def test_decide_rejects_stdout_as_certificate_path(tmp_path, capsys, monkeypatch, game):
    # `gen` and `export-graph` read `--out -` as stdout; `decide` prints its
    # verdict there, so it refuses `-` before reading the game (a missing
    # game still exits 64) and writes no file named `-`.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.txt").write_text(PAIR_TEXT)
    code, out, err = run(capsys, "decide", game, "--out", "-")
    assert code == 64
    assert out == ""
    assert err == "error: decide writes its certificate to a file; --out - is not supported\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.txt"]


def test_verify_roundtrip(tmp_path, capsys, ghz_file):
    cert = str(tmp_path / "cert.json")
    run(capsys, "decide", ghz_file, "--out", cert)
    code, out, _ = run(capsys, "verify", ghz_file, cert)
    assert code == 0 and "PASS" in out


def test_verify_tampered_phase(tmp_path, capsys, ghz_file):
    cert = str(tmp_path / "cert.json")
    run(capsys, "decide", ghz_file, "--out", cert)
    obj = json.loads(Path(cert).read_text())
    obj["phi"][0][0] = "1/3"
    with open(cert, "w") as fh:
        json.dump(obj, fh)
    code, out, _ = run(capsys, "verify", ghz_file, cert)
    assert code == 1 and "FAIL" in out


def test_verify_tampered_refutation(tmp_path, capsys):
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = str(tmp_path / "cert.json")
    run(capsys, "decide", str(game), "--out", cert)
    obj = json.loads(Path(cert).read_text())
    obj["sigma_word"] = obj["sigma_word"][:1] * 2  # break the product
    with open(cert, "w") as fh:
        json.dump(obj, fh)
    code, out, _ = run(capsys, "verify", str(game), cert)
    assert code == 1 and "FAIL" in out


def test_verify_never_trusts_stored_flag(tmp_path, capsys):
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "type": "refutation", "players": 3, "alphabet": 1, "num_clauses": 2,
        "z": [1, 1], "sigma_word": [1, 1], "verified": True,
    }))
    code, out, _ = run(capsys, "verify", str(game), str(cert))
    assert code == 1 and "FAIL" in out


# Certificates for the pair game that int() coercion once truncated into a
# PASS, or that crashed the loader: every z and sigma_word entry must be a
# JSON integer.
NON_INTEGER_CERTIFICATES = {
    "float_z": {"type": "obstruction", "z": [1.5, -1.9]},
    "float_sigma_word": {"type": "refutation", "z": [1, -1], "sigma_word": [1.0, 2.9]},
    "bool_z": {"type": "obstruction", "z": [True, -1]},
    "string_z": {"type": "obstruction", "z": ["a", 1, 1, 1]},
    "scalar_z": {"type": "obstruction", "z": 5},
    "missing_sigma_word": {"type": "refutation", "z": [1, -1]},
}


def _verify_with(tmp_path, capsys, command, game_text, cert_obj):
    game = tmp_path / "game.txt"
    game.write_text(game_text)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_obj))
    return run(capsys, command, str(game), str(cert))


@pytest.mark.parametrize("case", sorted(NON_INTEGER_CERTIFICATES))
def test_verify_rejects_non_integer_entries(tmp_path, capsys, case):
    code, out, err = _verify_with(
        tmp_path, capsys, "verify", PAIR_TEXT, NON_INTEGER_CERTIFICATES[case]
    )
    assert code == 65
    assert "PASS" not in out
    assert err.startswith("error: bad certificate") and "Traceback" not in err


@pytest.mark.parametrize("z", [[1, -1], [1, 1]], ids=["good_z", "bad_z"])
@pytest.mark.parametrize("index", [0, 3], ids=["zero", "past_end"])
def test_verify_refutation_index_out_of_range(tmp_path, capsys, z, index):
    # The pair game has two clauses; an index outside 1..2 is a mismatch
    # with the game whether or not z is a valid witness. A pair of the same
    # bad index is too: cancelling it away would leave [1, 2], which with
    # the good z is a valid refutation.
    for word in ([1, index, 2], [1, index, index, 2]):
        cert = {"type": "refutation", "z": z, "sigma_word": word}
        code, out, err = _verify_with(tmp_path, capsys, "verify", PAIR_TEXT, cert)
        assert code == 66 and out == ""
        assert err == "error: clause index out of range\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "phi,code",
    [
        (5, 65),
        (None, 65),  # no phi key at all
        ([["x"]], 65),
        ([[float("inf")]], 65),  # JSON Infinity has no exact fraction
        ([[0]], 66),  # one player for a three-player game
        ([["0/1", "1/2"], ["0/1"], ["0/1", "0/1"]], 66),  # ragged row
    ],
)
def test_phase_table_loader(tmp_path, capsys, command, phi, code):
    cert = {"type": "merp"} if phi is None else {"type": "merp", "phi": phi}
    got, _, err = _verify_with(tmp_path, capsys, command, GHZ_TEXT, cert)
    assert got == code
    assert err.startswith("error:") and "Traceback" not in err


def test_decide_rejects_wrong_json_types(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text('{"clauses": [{"q": [1.5, 2, 1], "s": 0}]}')
    code, _, err = run(capsys, "decide", str(game), "--out", str(tmp_path / "c.json"))
    assert code == 65
    assert err.startswith("error: bad game") and "Traceback" not in err


def test_verify_game_mismatch(tmp_path, capsys, ghz_file):
    cert = str(tmp_path / "cert.json")
    run(capsys, "decide", ghz_file, "--out", cert)
    other = tmp_path / "other.txt"
    other.write_text(PAIR_TEXT)
    code, _, err = run(capsys, "verify", str(other), cert)
    assert code == 66


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("key,value,code", [
    # 3.0 and true compare equal to 3 and 1, and once printed PASS; "3"
    # once exited 66 as "players=3 does not match game players=3".
    ("players", 3.0, 65),
    ("players", True, 65),
    ("players", "3", 65),
    ("alphabet", 1.0, 65),
    ("alphabet", None, 65),
    ("num_clauses", True, 65),
    ("num_clauses", [1], 65),
    ("players", 4, 66),  # a wrong integer is still a mismatch
    ("num_clauses", 2, 66),
])
def test_certificate_header_values_are_json_integers(tmp_path, capsys, command, key, value, code):
    # The game `1 1 1 0` with the all-zero table: PASS with a correct header.
    cert = {"type": "merp", "phi": [["0"], ["0"], ["0"]], key: value}
    got, out, err = _verify_with(tmp_path, capsys, command, "1 1 1 0\n", cert)
    assert (got, out) == (code, "")
    if code == 65:
        assert err == f"error: bad certificate: {key!r} must be an integer, got {value!r}\n"
    else:
        assert err.startswith(f"error: certificate {key}={value} does not match game {key}=")


def test_simulate(tmp_path, capsys, ghz_file):
    cert = str(tmp_path / "cert.json")
    run(capsys, "decide", ghz_file, "--out", cert)
    code, out, _ = run(capsys, "simulate", ghz_file, cert)
    assert code == 0
    assert "value: 1.000000000000" in out
    assert "exact_perfect: yes" in out


def test_resource_limits_are_usage_errors(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text(serialize_text(generate_random_game(3, 9, 1, 0)))
    code, out, err = run(capsys, "classical", str(wide))
    assert code == 64 and out == ""
    assert err == "error: 2^27 assignments is beyond the brute-force cap\n"


def test_simulate_beyond_twelve_players(tmp_path, capsys):
    # The GHZ game with ten more players, each always asked question 1.
    many = tmp_path / "many.txt"
    many.write_text("".join(
        line[:-2] + " 1" * 10 + line[-2:] + "\n" for line in GHZ_TEXT.splitlines()
    ))
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decide", str(many), "--out", str(cert))
    assert code == 0 and "verdict: PERFECT" in out
    assert json.loads(cert.read_text())["players"] == 13
    assert run(capsys, "verify", str(many), str(cert))[:2] == (0, "PASS\n")
    code, out, err = run(capsys, "simulate", str(many), str(cert))
    assert code == 0 and err == ""
    assert "value: 1.000000000000" in out


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_huge_even_phase_is_still_perfect(tmp_path, capsys, ghz_file, command):
    cert = tmp_path / "cert.json"
    run(capsys, "decide", ghz_file, "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["phi"][0][obj["phi"][0].index("0/1")] = str(2 * 10**400)
    code, out, err = _verify_with(tmp_path, capsys, command, GHZ_TEXT, obj)
    assert code == 0 and err == ""
    assert out.startswith("PASS\n" if command == "verify" else "value: 1.000000000000\n")



def test_verify_rejects_a_phase_the_float_simulation_cannot_see(tmp_path, capsys, ghz_file):
    # Off by 1e-12, the simulated value is 1 within its float tolerance;
    # only the exact clause check in the same simulation rejects it.
    cert = tmp_path / "cert.json"
    run(capsys, "decide", ghz_file, "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["phi"][0][obj["phi"][0].index("0/1")] = "1/1000000000000"
    code, out, _ = _verify_with(tmp_path, capsys, "simulate", GHZ_TEXT, obj)
    assert code == 0 and out == "value: 1.000000000000\nexact_perfect: no\n"
    assert _verify_with(tmp_path, capsys, "verify", GHZ_TEXT, obj)[:2] == (1, "FAIL\n")


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "phase,code",
    [
        ("2e30000000", 65),  # would expand into a 30-million-digit integer
        ("0e5", 65),
        ("0.0", 65),
        (" 0/1", 65),
        ("0/1 ", 65),
        ("0/1\n", 65),
        ("1_0", 65),
        ("0x0", 65),
        ("0/-1", 65),
        ("", 65),
        ("0/0", 65),
        ("+0/1", 0),
        ("-4/2", 0),
        ("2", 0),
        # JSON values in place of a string: only an integer is a phase.
        (False, 65),
        (0.5, 65),
        (0, 0),
    ],
)
def test_phase_strings_only_in_the_written_form(tmp_path, capsys, ghz_file, command, phase, code):
    cert = tmp_path / "cert.json"
    run(capsys, "decide", ghz_file, "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["phi"][0][obj["phi"][0].index("0/1")] = phase
    got, out, err = _verify_with(tmp_path, capsys, command, GHZ_TEXT, obj)
    assert got == code
    if code:
        assert err.startswith("error: bad phase table") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("phi", [["0", "0", "0"], "000"], ids=["string_rows", "string_table"])
def test_a_phase_table_that_is_not_a_list_of_lists_is_malformed(tmp_path, capsys, command, phi):
    # Read as strings, each character would be a phase of 0: PASS, value 1.
    obj = {"type": "merp", "players": 3, "alphabet": 1, "num_clauses": 1, "phi": phi}
    code, out, err = _verify_with(tmp_path, capsys, command, "1 1 1 0\n", obj)
    assert (code, out) == (65, "")
    assert err.startswith("error: bad phase table: ") and err.count("\n") == 1


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, ghz_file):
    nested = "[" * 100_000 + "]" * 100_000
    game = tmp_path / "game.json"
    game.write_text('{"clauses": ' + nested + "}")
    code, out, err = run(capsys, "decide", str(game), "--out", str(tmp_path / "c.json"))
    assert code == 65 and "verdict" not in out
    assert err.startswith("error: bad game: invalid JSON")
    cert = tmp_path / "cert.json"
    cert.write_text(nested)
    code, out, err = run(capsys, "verify", ghz_file, str(cert))
    assert code == 65 and out == ""
    assert err.startswith("error: bad certificate")


def _child_env():
    """The environment of a child interpreter that imports this checkout."""
    import xorgames

    src = str(Path(xorgames.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_needs_no_numpy():
    check = "import sys, xorgames.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=_child_env(), check=True)


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_out_of_memory_has_its_own_exit_code(tmp_path):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    # One clause over an alphabet of 2,000,000: labelling the components of
    # its 6,000,000 (player, question) vertices alone needs more than 512 MiB.
    game = tmp_path / "wide.txt"
    game.write_text("# alphabet: 2000000\n1 1 1 0\n")
    cert = tmp_path / "cert.json"
    proc = subprocess.run(
        [sys.executable, "-m", "xorgames", "decide", str(game), "--out", str(cert)],
        env=_child_env(), capture_output=True, text=True, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 71
    assert proc.stderr == "error: out of memory\n"
    assert "verdict:" not in proc.stdout and not cert.exists()


def test_classical_prints_fraction(capsys, ghz_file):
    code, out, _ = run(capsys, "classical", ghz_file)
    assert code == 0
    assert out.splitlines()[0] == "3/4"


def test_canon_command_is_gone(capsys):
    # The one-player canonical form reaches no certificate; it lives on as
    # the tests' reference (helpers.canon_letters).
    assert main(["canon", "1", "2", "3"]) == 64


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("command", ["decide", "gen", "export-graph"])
def test_unwritable_output_exits_73_with_one_line(tmp_path, capsys, ghz_file, command, target):
    out = tmp_path / "missing" / "out.txt" if target == "missing_dir" else tmp_path
    argv = {"decide": [ghz_file], "gen": [], "export-graph": [ghz_file]}[command]
    code, stdout, err = run(capsys, command, *argv, "--out", str(out))
    assert code == 73
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err and "verdict:" not in stdout
    assert not (tmp_path / "missing").exists()


def test_export_graph_dot(capsys, ghz_file):
    code, out, _ = run(capsys, "export-graph", ghz_file)
    assert code == 0
    assert out.startswith("graph clauses {")
    code, out, _ = run(capsys, "export-graph", ghz_file, "--pair", "2,3")
    assert code == 0
    assert "graph pair {" in out
    code, _, _ = run(capsys, "export-graph", ghz_file, "--pair", "9,1")
    assert code == 64


def test_gen_deterministic_and_pipes_into_decide(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "7", "-k", "3", "-n", "2", "-m", "4")
    code2, out2, _ = run(capsys, "gen", "--seed", "7", "-k", "3", "-n", "2", "-m", "4")
    assert code == code2 == 0
    assert out1 == out2
    game = tmp_path / "gen.txt"
    game.write_text(out1)
    cert = str(tmp_path / "cert.json")
    codes = set()
    for _ in range(2):
        codes.add(run(capsys, "decide", str(game), "--out", cert)[0])
    assert len(codes) == 1  # stable verdict across runs


def test_certificates_byte_stable(tmp_path, capsys, ghz_file):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "decide", ghz_file, "--out", str(first))
    run(capsys, "decide", ghz_file, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


# sha256 of the certificate bytes `decide` writes for the 3-player game
# generate_random_game(3, n, 5n, seed), recorded when the commutator
# decomposition became nearest-match and the final word freely cancelled,
# and again for (12, 1), (20, 0), (24, 1) and (24, 3) when `refute` began
# shortening its witness in ℓ1; each certificate passed `verify` and
# `bench/checker.py` when recorded. Any change to the refutation word shows
# up here.
GOLDEN_REFUTATIONS = {
    # The one word the shortened witness lengthens: 164 → 180 clauses.
    (12, 1): "81c9ecb12f9d0606678a00ca402ab04671f93d556e1e5a20ae4a2a4296f11ee2",
    (12, 3): "f0f9644146aa9234520b3f396bb1a1fd2224b3cbfea9380d103c8977a8139296",
    (16, 1): "1494bdf7553289abbcbf7c0439da31657c498b6a5e98d1cd019e7e238fa2ac49",
    (20, 3): "ec8fe6cfeac1877d888cd5570c2b9c36bdcec31dc1b49cb883b2e0cb86976f19",
    # The three longest words before the witness was shortened: now 3,930,
    # 664 and 622 clauses (11,400, 2,241 and 2,121 bytes), down from
    # 11,168, 2,304 and 6,124.
    (20, 0): "b7f13b3bed56c9926301aa27ffeb29cff09394aba92300df222012cb9137d76b",
    (24, 1): "d84eacabad42d5ec136ff94b2ab499bd9f321677e047a7db3e64cf549aef334d",
    (24, 3): "6a02f41a4c3570904f7f272c90fce60bdbba617c868f3428a0e7eb70189971c4",
}


def _decide_random(tmp_path, capsys, n, seed, *options):
    game = tmp_path / f"g{n}_{seed}.txt"
    game.write_text(serialize_text(generate_random_game(3, n, 5 * n, seed)))
    cert = tmp_path / f"c{n}_{seed}.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert), *options)
    return code, err, cert


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_REFUTATIONS))
def test_refutation_certificate_golden(tmp_path, capsys, n, seed):
    code, err, cert = _decide_random(tmp_path, capsys, n, seed)
    assert code == 1 and err == ""
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN_REFUTATIONS[(n, seed)]


def test_decide_runs_one_smith_form_on_a_refutable_game(tmp_path, capsys, smith_calls):
    # `refute` decides the component that `decide` has just decided and gets
    # the stored outcome back, so one Smith form serves both.
    code, err, cert = _decide_random(tmp_path, capsys, 12, 1)
    assert code == 1 and err == ""
    assert len(smith_calls) == 1
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN_REFUTATIONS[(12, 1)]


def test_refutation_cap_abort_golden(tmp_path, capsys):
    # An explicit small cap: the game certifies under the default one.
    code, err, cert = _decide_random(tmp_path, capsys, 20, 0, "--cap", "1000")
    assert code == 70
    assert err == (
        "error: refutation pipeline failed: commutator decomposition:"
        " clause word length 1368 exceeds cap 1000\n"
    )
    assert not cert.exists()



# Exit code and sha256 of the certificate `decide` writes for
# generate_random_game(k, n, m, seed): two PERFECT phase tables (the first
# with quarter phases), a CLASSICALLY_PERFECT one and an obstruction witness,
# and a 1,131-byte obstruction at the largest inconclusive4 benchmark shape.
GOLDEN_CERTIFICATES = {
    (5, 6, 24, 1): (0, "24d19ddae3f2f70e05b2e8743d0d0d78b0703e5b1eb397df17753bdeb17ca4ba"),
    (5, 6, 24, 3): (0, "d121fcda3e6ab500b378d13aaa5ee1f8350fcda6504e26a42d511fec50832c6c"),
    (4, 6, 12, 0): (0, "fee71a842565717401f41736fbb711d374242702132e3b6160cb6710694677b3"),
    (4, 6, 24, 0): (2, "8f7319733dc9c92e75601e4ff1b07ae40c2b640205afcd1966497ccc975c8098"),
    (4, 40, 300, 1): (2, "ed74202bfc6fa62c6c2da062bf50b465a8b4e1425b411ea8375b627fd634ea0c"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_CERTIFICATES), ids=str)
def test_phase_and_witness_certificate_golden(tmp_path, capsys, shape):
    game = tmp_path / "g.txt"
    game.write_text(serialize_text(generate_random_game(*shape)))
    cert = tmp_path / "c.json"
    code, _, err = run(capsys, "decide", str(game), "--out", str(cert))
    assert (code, hashlib.sha256(cert.read_bytes()).hexdigest()) == GOLDEN_CERTIFICATES[shape]
    assert err == ""


def planted_perfect_game(players: int, alphabet: int, num_clauses: int, seed: int) -> Game:
    """A game won by a planted half-integer phase table, drawn as the
    perfect_planted benchmark draws its games: random question tuples whose
    phase sum is an integer, each parity that sum mod 2. Uniform random
    games with this many players come out inconclusive instead."""
    rng = random.Random(seed)
    values = tuple(Fraction(i, 2) for i in range(4))
    phi = [[rng.choice(values) for _ in range(alphabet)] for _ in range(players)]
    clauses = []
    while len(clauses) < num_clauses:
        questions = tuple(rng.randrange(alphabet) for _ in range(players))
        total = sum(phi[a][q] for a, q in enumerate(questions))
        if total.denominator == 1:
            clauses.append(Clause(questions, total.numerator % 2))
    return Game(players, alphabet, tuple(clauses))


# Exit code and sha256 of the certificate `decide` writes for
# planted_perfect_game(k, n, m, seed) at the largest perfect_planted
# benchmark shape: a half-integer phase table.
GOLDEN_PLANTED = {
    (10, 6, 120, 1): (0, "0219d818e6f295ab64c208774418538d37aa9edd3e9c80266b23625b8e7e9c9e"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_PLANTED), ids=str)
def test_planted_phase_certificate_golden(tmp_path, capsys, shape):
    game = tmp_path / "g.txt"
    game.write_text(serialize_text(planted_perfect_game(*shape)))
    cert = tmp_path / "c.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert))
    assert (code, hashlib.sha256(cert.read_bytes()).hexdigest()) == GOLDEN_PLANTED[shape]
    assert "verdict: PERFECT" in out and err == ""
    assert run(capsys, "verify", str(game), str(cert))[:2] == (0, "PASS\n")


def test_failed_self_check_exits_70_with_one_line(tmp_path, capsys, monkeypatch, ghz_file):
    def broken(a, dec):
        raise AssertionError("Smith decomposition identity U*A*V == D failed")

    monkeypatch.setattr("xorgames.intlinalg._check_decomposition", broken)
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", ghz_file, "--out", str(cert))
    assert code == 70
    assert err == (
        "error: internal check failed:"
        " Smith decomposition identity U*A*V == D failed\n"
    )
    assert "verdict:" not in out
    assert not cert.exists()


def test_failed_refutation_check_exits_70_with_one_line(tmp_path, capsys, monkeypatch):
    # A failed stage identity of the refutation is a bug, reported like any
    # other self-check and not as a cap abort. The fake passes preprocess's
    # input and fails its output.
    verdicts = iter((True, False))
    monkeypatch.setattr("xorgames.refutation.abelianizes_to_sign", lambda word: next(verdicts))
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert))
    assert code == 70
    assert err == (
        "error: internal check failed:"
        " preprocess broke the abelian image\n"
    )
    assert "verdict:" not in out
    assert not cert.exists()


def test_unexpected_exception_exits_70_with_one_line(tmp_path, capsys, monkeypatch):
    # A bug that raises something other than a failed self-check must not
    # end in a traceback with exit 1, the code of NOT_PERFECT.
    monkeypatch.setattr("xorgames.refutation.is_parity_trivial", lambda word: False)
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert))
    assert code == 70
    assert err == (
        "error: internal error: ValueError:"
        " decomposition needs an even parity-trivial word\n"
    )
    assert "verdict:" not in out
    assert not cert.exists()


def test_a_nonzero_observable_diagonal_fails_verify_with_one_line(tmp_path, capsys, monkeypatch, ghz_file):
    # The simulator carries two GHZ branches only because every observable
    # maps a basis state to one basis state; an observable that breaks this
    # is a bug.
    cert = str(tmp_path / "cert.json")
    assert run(capsys, "decide", ghz_file, "--out", cert)[0] == 0
    monkeypatch.setattr("xorgames.merp.merp_observable", lambda theta: ((1 + 0j, 0j), (0j, 1 + 0j)))
    code, out, err = run(capsys, "verify", ghz_file, cert)
    assert code == 70
    assert err == "error: internal check failed: observable of phase 0 has a nonzero diagonal\n"
    assert out == ""


# sha256 of `export-graph` stdout for `gen -k 3 -n 12 -m 60 --seed 1`: the
# hypergraph (pair None) and every ordered player pair, recorded while the
# component labelling was a breadth-first flood.
GOLDEN_GRAPHS = {
    None: "0281ac89bf9c7c7f76e1084afc9c15d1056d28f29727cfccde59b9db4a4cb785",
    "1,2": "5103d56ffb421d07d71405928bddc3d5085482f5e4b1dbdf161eaa1ea2c4bc73",
    "1,3": "0989bed9c998f337690e598da10f8f20a503e5490a6696045e8693e69e2e6e99",
    "2,1": "7c887dff7bf14a98bcfb7a45a20e54ec699086f5c3267f78ad912f32215a476f",
    "2,3": "0d61ddcfb39542b97a5c0a8ce88115a5b0d6c493c4f1c4df4183d3b8c7e521f9",
    "3,1": "519e313c64c0fd075a618806b9438480974dd77376444b18a40295ad18949d8f",
    "3,2": "c879176291c89ea8982c8e5d45f7af5966b7b8cd6f82908a0550e08f0fb6a0cf",
}


@pytest.mark.parametrize("pair", list(GOLDEN_GRAPHS))
def test_export_graph_golden(tmp_path, capsys, pair):
    game = tmp_path / "r.txt"
    run(capsys, "gen", "-k", "3", "-n", "12", "-m", "60", "--seed", "1", "--out", str(game))
    code, out, err = run(capsys, "export-graph", str(game), *(["--pair", pair] if pair else []))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GRAPHS[pair]


def test_gen_json_format(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["players"] == 3


def test_decide_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(GHZ_TEXT))
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "decide", "-", "--out", cert)
    assert code == 0 and "PERFECT" in out


# A refutation, two phase tables (one classical) and an obstruction witness.
PRODUCTION_SHAPES = [((3, 12, 60, 1), 1), ((5, 6, 24, 1), 0), ((4, 6, 12, 0), 0), ((4, 6, 24, 0), 2)]


def test_decide_and_verify_never_build_dense_u(tmp_path, capsys, monkeypatch):
    # U is only ever replayed from its row-operation log; multiplying it out
    # is for tests and tracing.
    from xorgames.intlinalg import RowOperations

    def dense(self):
        raise RuntimeError("dense U built")

    monkeypatch.setattr(RowOperations, "data", property(dense))
    for shape, expected in PRODUCTION_SHAPES:
        game = tmp_path / "g.txt"
        game.write_text(serialize_text(generate_random_game(*shape)))
        cert = tmp_path / "c.json"
        assert run(capsys, "decide", str(game), "--out", str(cert))[0] == expected, shape
        assert run(capsys, "verify", str(game), str(cert))[:2] == (0, "PASS\n"), shape


def test_decide_and_verify_never_build_dense_transforms(tmp_path, capsys, monkeypatch):
    # U and V are only ever replayed from their operation logs; multiplying
    # either out is for tests and tracing. A refutation, a half-integer and
    # a classical phase table, and an obstruction at benchmark size.
    from xorgames.intlinalg import ColumnOperations, RowOperations

    def dense(self):
        raise RuntimeError("dense transform built")

    monkeypatch.setattr(RowOperations, "data", property(dense))
    monkeypatch.setattr(ColumnOperations, "data", property(dense))
    cases = [
        (generate_random_game(3, 12, 60, 1), 1),
        (planted_perfect_game(10, 6, 120, 1), 0),
        (generate_random_game(4, 6, 12, 0), 0),
        (generate_random_game(4, 40, 300, 1), 2),
    ]
    for game_value, expected in cases:
        game = tmp_path / "g.txt"
        game.write_text(serialize_text(game_value))
        cert = tmp_path / "c.json"
        assert run(capsys, "decide", str(game), "--out", str(cert))[0] == expected
        assert run(capsys, "verify", str(game), str(cert))[:2] == (0, "PASS\n")


def test_one_process_runs_commands_in_sequence(tmp_path, capsys, monkeypatch):
    # main() builds its parser once per process; each call must still
    # behave as a fresh `python -m xorgames` would.
    game = tmp_path / "g.txt"
    game.write_text(serialize_text(generate_random_game(3, 12, 60, 1)))
    commands = [
        ["decide", "g.txt", "--out", "c.json"],
        ["decide", "g.txt", "--cap", "0"],
        ["verify", "g.txt", "c.json"],
        ["gen", "-k", "3", "-n", "4", "-m", "9", "--seed", "2"],
    ]
    monkeypatch.chdir(tmp_path)
    in_process = [run(capsys, *argv)[:2] for argv in commands]
    first_cert = (tmp_path / "c.json").read_bytes()
    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "xorgames", *argv], cwd=tmp_path,
                              env=_child_env(), capture_output=True, text=True)
        separate.append((proc.returncode, proc.stdout))
    assert [code for code, _ in in_process] == [1, 64, 0, 0]
    assert in_process == separate
    assert (tmp_path / "c.json").read_bytes() == first_cert
