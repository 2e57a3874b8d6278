"""Benchmark: decide and verify seeded game suites through the xorgames CLI.

Run from the repository root:

    python3 bench/run.py --workload refute3 --seed 1 --seconds 30 --trace 0

One client, one process, one thread, closed loop: each game is decided with
`xorgames.cli.main(["decide", GAME, "--out", CERT])`, then its certificate
is verified with `main(["verify", GAME, CERT])` and re-checked by this
benchmark's own checker. The whole suite is run in passes until the next
pass would overrun `--seconds` (at least one pass); timings are medians over
passes. `--trace 0` reports the end-to-end metrics, `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead, and writes the spans and per-call Smith form records to
`.bench_out/trace-<workload>-seed<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. README.md in this directory
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
VERDICT_EXITS = (0, 1, 2)

sys.path.insert(0, BENCH_DIR)

import checker  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_suite  # noqa: E402


def load_cli():
    """Import the program from this checkout's source tree, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "xorgames", "cli.py")):
        sys.exit(f"error: no program source at {os.path.relpath(SRC)}/xorgames; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, SRC)
    import xorgames.cli

    if not os.path.abspath(xorgames.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported xorgames from {xorgames.cli.__file__}, not {SRC}")
    return xorgames.cli.main


@dataclass(frozen=True)
class GameRun:
    exit: int
    decide_s: float
    stdout: str
    stderr: str
    cert: bytes | None
    verify_s: float | None
    verify_pass: bool


def _call(main, argv, root, tracer):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call(root, main, (argv,), {})
        except Exception:
            # What the CLI process would do: print the traceback, exit 1.
            traceback.print_exc()
            code = 1
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def run_game(main, path, tracer=None) -> GameRun:
    cert_path = path + ".cert.json"
    if os.path.exists(cert_path):
        os.remove(cert_path)
    code, decide_s, stdout, stderr = _call(
        main, ["decide", path, "--out", cert_path], "cli.decide", tracer
    )
    if code not in VERDICT_EXITS or not os.path.exists(cert_path):
        return GameRun(code, decide_s, stdout, stderr, None, None, False)
    with open(cert_path, "rb") as fh:
        cert = fh.read()
    vcode, verify_s, vout, _ = _call(main, ["verify", path, cert_path], "cli.verify", tracer)
    return GameRun(code, decide_s, stdout, stderr, cert, verify_s,
                   vcode == 0 and vout.strip() == "PASS")


def run_pass(main, games, paths, tracer=None) -> list[GameRun]:
    runs = []
    for game, path in zip(games, paths):
        if tracer is not None:
            tracer.request = game.name
        runs.append(run_game(main, path, tracer))
    return runs


def judge(games, runs):
    """Per game: (failure reason or None, whether the failure is a wrong
    answer rather than a missing one)."""
    out = []
    for game, run in zip(games, runs):
        if run.exit not in VERDICT_EXITS:
            reason = run.stderr.strip().splitlines()[-1:] or [""]
            out.append((f"decide exit {run.exit}: {reason[0]}", False))
        elif run.cert is None:
            out.append((f"decide exit {run.exit} wrote no certificate", True))
        elif not run.verify_pass:
            out.append(("xorgames verify did not print PASS", True))
        else:
            reason = checker.check(game, run.exit, run.cert)
            out.append((f"checker: {reason}" if reason else None, True))
    return out


def same_outputs(a: list[GameRun], b: list[GameRun]) -> bool:
    return all(
        (x.exit, x.cert, x.stdout) == (y.exit, y.cert, y.stdout) for x, y in zip(a, b)
    )


def repeat_until(deadline, step):
    """Run `step` at least once, and again while the next run, taking as
    long as the last, would end before `deadline`."""
    results = []
    while True:
        start = perf_counter()
        results.append(step())
        if perf_counter() + (perf_counter() - start) > deadline:
            return results


def measure_setup() -> list[float]:
    """Wall time of fresh `python -m xorgames gen -n 1 -m 1` processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "xorgames", "gen", "-n", "1", "-m", "1"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith(b"# alphabet: 1\n"):
            sys.exit(f"error: set-up command failed: {proc.stderr.decode()[-500:]}")
    return times


def total(runs, field) -> float:
    return sum(getattr(r, field) or 0.0 for r in runs)


def pass_totals(passes) -> str:
    return ", ".join(f"{total(p, 'decide_s'):.3f}" for p in passes)


def typical_decide(games, passes) -> float:
    """Median decide time of a game of each shape, averaged over shapes.

    Each game's time is its median over passes. The median is taken within
    each shape because suites mix sizes whose costs differ several-fold, and
    the median of the whole suite would sit where two size groups meet."""
    by_shape: dict[tuple, list[float]] = {}
    for i, game in enumerate(games):
        by_shape.setdefault(game.shape, []).append(
            statistics.median(p[i].decide_s for p in passes)
        )
    return statistics.mean(statistics.median(times) for times in by_shape.values())


def end_to_end(games, passes, setup_times, failed):
    first = passes[0]
    metrics = {
        "decide_s": (statistics.median(total(p, "decide_s") for p in passes), "s"),
        "decide_p50_s": (typical_decide(games, passes), "s"),
        "verify_s": (statistics.median(total(p, "verify_s") for p in passes), "s"),
        "cert_bytes": (sum(len(r.cert) for r in first if r.cert is not None), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": ((len(games) - failed) / len(games), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracers, plain_passes, traced_passes, path):
    layers = [t.per_layer() for t in tracers]
    counts_repeat = all(
        {k: v for k, v in layer.items() if not k.endswith("_s")}
        == {k: v for k, v in layers[0].items() if not k.endswith("_s")}
        for layer in layers
    )
    metrics = {}
    for key in layers[0]:
        if key.endswith("_s"):
            metrics[key] = {"value": statistics.median(l[key] for l in layers), "unit": "s"}
        else:
            metrics[key] = {"value": layers[0][key], "unit": spans.COUNTERS.get(key, "count")}
    overhead = (statistics.median(total(p, "decide_s") for p in traced_passes)
                - statistics.median(total(p, "decide_s") for p in plain_passes))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(tracers[0].dump(), per_layer=metrics), fh)
    return metrics, counts_repeat


def traced_pass(main, games, paths):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        missed = spans.unpatched_references(tracer)
        runs = run_pass(main, games, paths, tracer)
    finally:
        restore()
    return tracer, runs, missed


def report(games, runs, verdicts):
    for game, run, (reason, _) in zip(games, runs, verdicts):
        size = len(run.cert) if run.cert is not None else 0
        print(f"  {game.name:28s} exit={run.exit:<3d} decide={run.decide_s:8.3f}s "
              f"cert={size:>9d}B {reason or 'ok'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = load_cli()
    games = WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        paths = write_suite(games, workdir)
        setup_times = [] if args.trace else measure_setup()
        deadline = perf_counter() + args.seconds
        if args.trace:
            pairs = repeat_until(deadline, lambda: (
                run_pass(cli_main, games, paths), traced_pass(cli_main, games, paths)
            ))
            plain, traced_passes = zip(*pairs)
            tracers, traced, missed = zip(*traced_passes)
        else:
            plain = repeat_until(deadline, lambda: run_pass(cli_main, games, paths))
    finally:
        shutil.rmtree(workdir)

    verdicts = judge(games, plain[0])
    failed = sum(1 for reason, _ in verdicts if reason)
    problems = [f"{g.name}: {reason}" for g, (reason, wrong) in zip(games, verdicts)
                if reason and wrong]
    if not all(same_outputs(plain[0], p) for p in plain[1:]):
        problems.append("exit codes or certificates differ between passes")
    print(f"workload {args.workload} seed {args.seed}: {len(games)} games; "
          f"decide seconds per untraced pass: {pass_totals(plain)}")
    report(games, plain[0], verdicts)

    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        metrics, counts_repeat = per_layer(tracers, plain, traced, path)
        unpatched = sorted({name for names in missed for name in names})
        if unpatched:
            problems.append(f"tracing left these bindings unpatched: {unpatched}")
        if not all(same_outputs(plain[0], runs) for runs in traced):
            problems.append("traced run changed exit codes, output or certificates")
        if not counts_repeat:
            problems.append("per-layer counts differ between traced passes")
        print(f"decide seconds per traced pass: {pass_totals(traced)}; "
              f"spans in {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(games, plain, setup_times, failed)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(games),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
