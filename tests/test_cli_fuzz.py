"""Fuzzing the command line with tiny games and certificates, well formed or
not: every run ends in a documented exit code without a traceback, every
certificate `decide` writes passes `verify`, and every damaged certificate
`verify` passes is also accepted by the benchmark's independent checker
(bench/checker.py).

Inputs stay tiny on purpose: question indices are single tokens below 8, so
no generated game asks for a large alphabet.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from xorgames.cli import main  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_checker():
    """bench/checker.py by path; it imports `workloads` from its own directory."""
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_checker", BENCH / "checker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)
VERDICTS = {0, 1, 2}
INPUT_ERRORS = {64, 65, 66}


@st.composite
def games(draw, players=st.integers(2, 4)):
    """(players, alphabet, [(1-based questions, parity)]) of a valid game."""
    players = draw(players)
    alphabet = draw(st.integers(1, 3))
    clause = st.tuples(
        st.lists(st.integers(1, alphabet), min_size=players, max_size=players),
        st.integers(0, 1),
    )
    return players, alphabet, draw(st.lists(clause, min_size=1, max_size=6))


def as_text(game) -> bytes:
    _, alphabet, clauses = game
    lines = [f"# alphabet: {alphabet}"]
    lines += [" ".join(map(str, q)) + f" {s}" for q, s in clauses]
    return ("\n".join(lines) + "\n").encode()


def as_json(game) -> bytes:
    players, alphabet, clauses = game
    obj = {"players": players, "alphabet": alphabet,
           "clauses": [{"q": q, "s": s} for q, s in clauses]}
    return json.dumps(obj).encode()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["players", "alphabet", "clauses", "q", "s", "type", "z",
                         "phi", "sigma_word", "classically_perfect"]),
        inner, max_size=4,
    ),
    max_leaves=12,
)
TOKENS = [b"0", b"1", b"2", b"3", b"7", b"-1", b"1.5", b"x", b"#", b"# alphabet: 2",
          b"# alphabet: x", b"\n", b"{", b"}", b"[", b"]", b'"q"', b":", b"\xff", b"\xc3"]
# Well-formed games in both formats, hostile JSON, and token soup with
# bytes that are not UTF-8.
GAME_FILES = st.one_of(
    games().map(as_text),
    games().map(as_json),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.lists(st.sampled_from(TOKENS), max_size=24).map(b" ".join),
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def write(directory, name, data: bytes) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@FUZZ
@given(GAME_FILES)
def test_decide_exits_cleanly_and_its_certificate_verifies(data):
    with tempfile.TemporaryDirectory() as d:
        game = write(d, "game", data)
        cert = os.path.join(d, "cert.json")
        code, _, err = run("decide", game, "--out", cert)
        assert code in VERDICTS | INPUT_ERRORS
        if code in VERDICTS:
            assert err == ""
            assert run("verify", game, cert) == (0, "PASS\n", "")
        else:
            assert err.startswith("error:") and not os.path.exists(cert)


def _mutations(cert: dict):
    """Ways to damage one certificate: set or drop a key, nudge one entry of
    a list, retype a header value (the same value as a float, a boolean or a
    string), or replace the whole document. A refutation's `sigma_word` can
    also have one entry moved to another clause or two entries swapped:
    every index stays in range and `z` stays valid, so only the product
    check can tell."""
    keys = sorted(cert) + ["extra"]
    lists = sorted(k for k in ("z", "sigma_word") if k in cert)
    ways = [
        st.tuples(st.just("set"), st.sampled_from(keys), JSON_VALUES),
        st.tuples(st.just("drop"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("nudge"), st.sampled_from(lists or ["phi"]), st.integers(-2, 2)),
        st.tuples(st.just("replace"), st.none(), JSON_VALUES),
        st.tuples(st.just("retype"), st.sampled_from(["players", "alphabet", "num_clauses"]),
                  st.sampled_from([float, bool, str])),
    ]
    if cert.get("sigma_word"):
        position = st.integers(0, len(cert["sigma_word"]) - 1)
        ways.append(st.tuples(st.just("move"), position, st.integers(1, cert["num_clauses"])))
        ways.append(st.tuples(st.just("swap"), position, position))
    return st.one_of(*ways)


def _mutate(cert: dict, how, key, value):
    cert = json.loads(json.dumps(cert))
    if how == "set":
        cert[key] = value
    elif how == "drop":
        cert.pop(key, None)
    elif how == "replace":
        return value
    elif how == "retype":
        cert[key] = value(cert[key])
    elif how == "move":
        cert["sigma_word"][key] = value
    elif how == "swap":
        word = cert["sigma_word"]
        word[key], word[value] = word[value], word[key]
    elif key == "phi":
        cert["phi"][0][0] = f"{value}/2"
    elif cert[key]:
        cert[key][len(cert[key]) // 2] += value
    return cert


@FUZZ
# Three-player games are drawn twice as often: only they get refutations.
@given(st.data(), st.one_of(games(), games(st.just(3))))
def test_verify_and_simulate_exit_cleanly_on_corrupted_certificates(data, game):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "game", as_text(game))
        cert_path = os.path.join(d, "cert.json")
        assert run("decide", path, "--out", cert_path)[0] in VERDICTS
        with open(cert_path) as fh:
            cert = json.load(fh)
        mutation = data.draw(_mutations(cert))
        damaged = _mutate(cert, *mutation)
        write(d, "cert.json", json.dumps(damaged).encode())
        code, out, err = run("verify", path, cert_path)
        assert code in {0, 1, 65, 66}
        if mutation[0] == "retype":  # a header value that is not a JSON integer
            assert code == 65
        assert out == {0: "PASS\n", 1: "FAIL\n"}.get(code, "")
        if code == 0:
            assert _checker_verdict(game, damaged) is None
        code, _, _ = run("simulate", path, cert_path)
        assert code in {0, 65, 66}


def _checker_verdict(game, cert: dict):
    """What bench/checker.py says of a certificate that `verify` passed,
    taking the verdict and the classical claim from the certificate itself.
    `verify` checks only the header keys present and reads a missing
    `classically_perfect` as no claim, so those are filled in first."""
    players, alphabet, clauses = game
    exit_code = {kind: code for code, kind in checker.CERT_TYPE.items()}[cert["type"]]
    classical = cert.get("classically_perfect", False)
    header = {"players": players, "alphabet": alphabet, "num_clauses": len(clauses)}
    if exit_code == checker.PERFECT:
        header["classically_perfect"] = classical
    bench_game = checker.BenchGame(
        name="fuzzed", players=players, alphabet=alphabet,
        clauses=tuple((tuple(q - 1 for q in qs), s) for qs, s in clauses),
        allowed_exits=frozenset({exit_code}), classical=classical,
    )
    return checker.check(bench_game, exit_code, json.dumps(dict(header, **cert)).encode())
