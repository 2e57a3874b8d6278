import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from xorgames.cli import main
from xorgames.games import generate_random_game, serialize_text
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


def test_decide_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/game.txt")
    assert code == 65


def test_usage_error(capsys):
    assert main(["decide"]) == 64
    assert main(["not-a-command"]) == 64


@pytest.mark.parametrize("option,value", [("--cap", "0"), ("--cap", "-5")])
def test_decide_rejects_out_of_range_arguments(tmp_path, capsys, option, value):
    game = tmp_path / "pair.txt"
    game.write_text(PAIR_TEXT)
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert), option, value)
    assert code == 64
    assert out == "" and not cert.exists()
    assert f"argument {option}: must be at least" in err


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
    # with the game whether or not z is a valid witness.
    cert = {"type": "refutation", "z": z, "sigma_word": [1, index, 2]}
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


def test_cli_import_needs_no_numpy():
    import xorgames

    src = str(Path(xorgames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = "import sys, xorgames.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


def test_classical_prints_fraction(capsys, ghz_file):
    code, out, _ = run(capsys, "classical", ghz_file)
    assert code == 0
    assert out.splitlines()[0] == "3/4"


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "3", "1", "2", "1", "1")
    assert code == 0
    assert out.strip()  # 1-based canonical word
    code2, _, err = run(capsys, "canon", "1", "2")
    assert code2 == 65


def test_canon_matches_library(capsys):
    from xorgames.words import canon_letters

    code, out, _ = run(capsys, "canon", "2", "7", "1", "2", "3", "4", "6", "2", "2")
    expected = " ".join(
        str(x + 1) for x in canon_letters([1, 6, 0, 1, 2, 3, 5, 1, 1])
    )
    assert out.strip() == expected


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
# generate_random_game(3, n, 5n, seed), recorded before clause words became
# plain index tuples; any change to the refutation word shows up here.
GOLDEN_REFUTATIONS = {
    (12, 1): "daca3dff12b5d45fcd4c444426af5406821163d61539020dbad26de0ba71632f",
    (12, 3): "9d8da1983735beadc1fa527e10e751539d8911110bb32141e364b381a0551b18",
    (16, 1): "cd831e798a18e42827ce24933fed298a9147c38e08af07af25bdde7d667f4e06",
    (20, 3): "f647a8c94ce6f1558da34e46ba854915054c594536751546056310d9d2841ac0",
}


def _decide_random(tmp_path, capsys, n, seed):
    game = tmp_path / f"g{n}_{seed}.txt"
    game.write_text(serialize_text(generate_random_game(3, n, 5 * n, seed)))
    cert = tmp_path / f"c{n}_{seed}.json"
    code, out, err = run(capsys, "decide", str(game), "--out", str(cert))
    return code, err, cert


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_REFUTATIONS))
def test_refutation_certificate_golden(tmp_path, capsys, n, seed):
    code, err, cert = _decide_random(tmp_path, capsys, n, seed)
    assert code == 1 and err == ""
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN_REFUTATIONS[(n, seed)]


def test_refutation_cap_abort_golden(tmp_path, capsys):
    code, err, cert = _decide_random(tmp_path, capsys, 20, 0)
    assert code == 70
    assert err == (
        "error: refutation pipeline failed: commutator decomposition:"
        " clause word length 1000208 exceeds cap 1000000\n"
    )
    assert not cert.exists()



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
