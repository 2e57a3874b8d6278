"""Self-tests of the benchmark: input determinism, the independent checker,
and that tracing sees every call without changing any output.

Run from the repository root with `python -m pytest bench`; the full suite
takes about a minute, mostly the two traced workload passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_game_files(workload, tmp_path):
    make = workloads.WORKLOADS[workload]
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory, seed in ((first, SEED), (second, SEED), (other, SEED + 1)):
        directory.mkdir()
        workloads.write_suite(make(seed), str(directory))
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_uniform_games_match_the_program_generator():
    run.load_cli()
    from xorgames.games import generate_random_game

    game = generate_random_game(3, 20, 100, 4)
    ours = workloads.uniform_game(3, 20, 100, 4)
    assert ours == tuple((c.questions, c.parity) for c in game.clauses)


def test_planted_suite_mixes_classical_and_half_integer_plants():
    games = workloads.perfect_planted(SEED)
    assert all(g.allowed_exits == {workloads.PERFECT} for g in games)
    flags = [g.classical for g in games]
    integral = [shape[3] for shape in workloads.PLANTED_SHAPES]
    assert all(f for f, i in zip(flags, integral) if i)
    assert not any(f for f, i in zip(flags, integral) if not i)


def test_planted_check_catches_a_missed_clause():
    half = Fraction(1, 2)
    phi = [[half, 0], [half, 1], [0, 0]]
    clauses = [((0, 0, 0), 1), ((1, 1, 0), 1), ((1, 1, 1), 1)]
    assert workloads.planted_misses(phi, clauses) == []
    assert workloads.planted_misses(phi, clauses[:2] + [((1, 1, 1), 0)]) == [2]
    assert workloads.planted_misses(phi, [((1, 0, 0), 0)]) == [0]  # sum 1/2


def test_checker_accepts_real_certificates_and_rejects_corrupted_ones(tmp_path):
    main = run.load_cli()
    games = [g for g in workloads.refute3(SEED) if g.name == "refute3-n16-g1"]
    games += workloads.perfect_planted(SEED)[:1] + workloads.inconclusive4(SEED)[:1]
    paths = workloads.write_suite(games, str(tmp_path))
    runs = run.run_pass(main, games, paths)
    assert [r.exit for r in runs] == [1, 0, 2]
    for game, result in zip(games, runs):
        assert checker.check(game, result.exit, result.cert) is None
        cert = json.loads(result.cert)
        if "sigma_word" in cert:
            cert["sigma_word"] = cert["sigma_word"][:-1]
        elif "phi" in cert:
            cert["phi"][0][0] = str(Fraction(cert["phi"][0][0]) + Fraction(1, 2))
        else:
            cert["z"][next(i for i, x in enumerate(cert["z"]) if x)] += 1
        bad = json.dumps(cert).encode()
        assert checker.check(game, result.exit, bad) is not None
        wrong_verdict = {0: 1, 1: 0, 2: 0}[result.exit]
        assert checker.check(game, wrong_verdict, result.cert) is not None


def test_a_crashing_call_counts_as_a_wrong_answer(tmp_path):
    def crash(argv):
        raise ValueError("boom")

    game = workloads.perfect_planted(SEED)[0]
    [path] = workloads.write_suite([game], str(tmp_path))
    result = run.run_game(crash, path)
    assert result.exit == 1 and result.cert is None
    assert "ValueError: boom" in result.stderr
    [(reason, wrong)] = run.judge([game], [result])
    assert reason and wrong


@pytest.mark.parametrize("workload", ["refute3", "perfect_planted"])
def test_tracing_is_neutral_and_sees_every_binding(workload, tmp_path):
    main = run.load_cli()
    import xorgames.cli
    import xorgames.decider

    original_decide = xorgames.decider.decide
    games = workloads.WORKLOADS[workload](SEED)
    paths = workloads.write_suite(games, str(tmp_path))
    plain = run.run_pass(main, games, paths)
    tracer, traced, missed = run.traced_pass(main, games, paths)

    assert missed == []
    assert run.same_outputs(plain, traced)
    assert xorgames.cli.decide is original_decide  # bindings restored
    layer = tracer.per_layer()
    if workload == "refute3":
        # cli decides every component, then refute decides refutable ones again.
        refutable = sum(1 for r in plain if "refutable=yes" in r.stdout)
        assert refutable > 0
        assert layer["decider.decide_calls"] == len(games) + refutable
        assert layer["refutation.cap_aborts"] == sum(1 for r in plain if r.exit == 70)
    else:
        # Bᵀ in decide, B in solve_merp.
        assert layer["intlinalg.snf_calls"] == 2 * len(games)
        assert layer["oracle.gf2_calls"] == len(games)
    assert len(tracer.smith_records()) == layer["intlinalg.snf_calls"]
    assert set(spans.SELF_TIMES) | set(spans.CALLS) | set(spans.COUNTERS) == set(layer)


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(run.BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
