"""Span tracing from outside the program.

`install` rebinds the public functions of each `xorgames` module, and a few
methods, to wrappers that record a span per call; the program's files are
not edited. A function imported by name into other modules (`decide` in
`cli` and `refutation`, for instance) is replaced under every name that
refers to it, so no call escapes the trace. Spans stay in memory and
`per_layer` folds them into self times and counts at the end of a pass.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). Functions are rebound wherever the
# original object is referenced; "Class.method" entries patch the class.
TARGETS = (
    ("games", "parse_game", "games.parse"),
    ("graphs", "decompose_components", "graphs.components"),
    ("decider", "decide", "decider.decide"),
    ("decider", "check_obstruction", "decider.check_obstruction"),
    ("intlinalg", "smith_normal_form", "intlinalg.snf"),
    # IntMatrix.mul has one caller, the U·A·V self-check of the Smith form.
    ("intlinalg", "IntMatrix.mul", "intlinalg.snf_check"),
    ("merp", "solve_merp", "merp.solve"),
    ("merp", "verify_merp_symbolic", "merp.verify"),
    ("merp", "simulate_merp_value", "merp.simulate"),
    ("oracle", "gf2_solve", "oracle.gf2"),
    ("refutation", "refute", "refutation.refute"),
    ("refutation", "construct_sigma_word", "refutation.construct"),
    ("refutation", "Homomorphisms.preprocess", "refutation.preprocess"),
    ("refutation", "decompose_pair_commutators", "refutation.commutators"),
    ("refutation", "Homomorphisms.compose_f", "refutation.compose_f"),
    ("words", "reduce_clause_word", "words.reduce"),
)

# Per-layer metrics: span self times and call counts, then counters. The
# CLI entries are the root spans the benchmark opens around each call.
SELF_TIMES = {f"{span}_s": span for _, _, span in TARGETS}
SELF_TIMES.update({"cli.decide_self_s": "cli.decide", "cli.verify_self_s": "cli.verify"})
CALLS = {
    f"{span}_calls": span
    for span in ("games.parse", "graphs.components", "decider.decide", "intlinalg.snf",
                 "merp.simulate", "oracle.gf2", "refutation.compose_f", "words.reduce")
}
COUNTERS = {
    "decider.witness_l1": "count",
    "intlinalg.snf_cells": "count",
    "intlinalg.uv_max_bits": "bits",
    "refutation.commutator_entries": "count",
    "refutation.cap_aborts": "count",
    "words.reduce_letters": "count",
}


class Tracer:
    """Spans of one pass: (name, start, end, parent index, request)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.request = ""
        self.counters: dict[str, int] = defaultdict(int)
        self.smith: list[dict] = []  # one record per Smith form call
        self.originals: dict[int, object] = {}  # rebound functions, by id

    def call(self, name, fn, args, kwargs, on_result=None, on_error=None):
        parent = self.stack[-1] if self.stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            self.spans[sid] = (name, start, perf_counter(), parent, self.request)
            self.stack.pop()
            if on_error is not None:
                on_error(self, e)
            raise
        self.spans[sid] = (name, start, perf_counter(), parent, self.request)
        self.stack.pop()
        if on_result is not None:
            on_result(self, sid, args, result)
        return result

    def self_times(self):
        """Per span name [total self time, calls], and per span the time
        spent in its direct children. Self time is a span's duration minus
        that child time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - child_time[sid]
            totals[name][1] += 1
        return totals, child_time

    def per_layer(self) -> dict[str, float]:
        totals, _ = self.self_times()
        metrics = {key: totals[name][0] for key, name in SELF_TIMES.items()}
        metrics.update({key: totals[name][1] for key, name in CALLS.items()})
        metrics.update({key: self.counters[key] for key in COUNTERS})
        return metrics

    def smith_records(self) -> list[dict]:
        """Per Smith form call: shape, time without and with its self-check
        children split out, and the largest transform entry in bits."""
        _, child_time = self.self_times()
        out = []
        for rec in self.smith:
            name, start, end, _, request = self.spans[rec["span"]]
            out.append({
                "request": request,
                "rows": rec["rows"],
                "cols": rec["cols"],
                "snf_s": end - start - child_time[rec["span"]],
                "check_s": child_time[rec["span"]],
                "uv_max_bits": rec["uv_max_bits"],
            })
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans
            ],
            "smith": self.smith_records(),
        }


def _on_decide(tracer, sid, args, outcome):
    if outcome.member:
        tracer.counters["decider.witness_l1"] += sum(abs(x) for x in outcome.obstruction_z)


def _on_smith(tracer, sid, args, dec):
    a = args[0]
    bits = max(
        (abs(x).bit_length() for m in (dec.u, dec.v) for row in m.data for x in row),
        default=0,
    )
    tracer.counters["intlinalg.snf_cells"] += a.rows * a.cols
    tracer.counters["intlinalg.uv_max_bits"] = max(tracer.counters["intlinalg.uv_max_bits"], bits)
    tracer.smith.append({"span": sid, "rows": a.rows, "cols": a.cols, "uv_max_bits": bits})


def _on_commutators(tracer, sid, args, entries):
    tracer.counters["refutation.commutator_entries"] += len(entries)


def _on_reduce(tracer, sid, args, result):
    tracer.counters["words.reduce_letters"] += len(args[1])


def _on_refute_error(tracer, error):
    from xorgames.refutation import WordLengthCapExceeded

    if isinstance(error, WordLengthCapExceeded):
        tracer.counters["refutation.cap_aborts"] += 1


HOOKS = {
    "decider.decide": (_on_decide, None),
    "intlinalg.snf": (_on_smith, None),
    "refutation.commutators": (_on_commutators, None),
    "words.reduce": (_on_reduce, None),
    "refutation.refute": (None, _on_refute_error),
}


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "xorgames" or name.startswith("xorgames."))]


def _wrap(tracer, name, fn):
    on_result, on_error = HOOKS.get(name, (None, None))

    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result, on_error)

    return wrapper


def install(tracer: Tracer):
    """Rebind every target to a span-recording wrapper. Returns a function
    that restores the original bindings."""
    import xorgames.cli  # noqa: F401  (loads every module that gets patched)

    undo = []
    modules = _program_modules()
    for module_name, attr, span in TARGETS:
        module = sys.modules[f"xorgames.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, span, original))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        tracer.originals[id(original)] = original
        wrapper = _wrap(tracer, span, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def unpatched_references(tracer: Tracer) -> list[str]:
    """Names in the program's modules that still refer to a rebound
    function while tracing is installed; empty when coverage is complete."""
    return [
        f"{mod.__name__}.{key}"
        for mod in _program_modules()
        for key, value in vars(mod).items()
        if id(value) in tracer.originals and value is tracer.originals[id(value)]
    ]
