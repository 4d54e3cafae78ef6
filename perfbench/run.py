"""agentconform benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload {statespace,cells} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this
directory and byte-compiled there first. The seed fixes the order in
which each pass visits its inputs. A run repeats whole passes until the
next one would overrun ``--seconds`` (always at least one), checks every
output against known answers, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  end-to-end metrics, tracing off.
--trace 1  per-layer metrics: untraced and traced passes alternate, spans
           are kept in memory and written to .bench_out/ at the end.

Exit code 2, with no result line, when the package or the known answers
cannot be found.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import OFF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15

# Timed in a fresh interpreter: what every CLI call pays before working.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import agentconform
t1 = time.perf_counter()
for name in agentconform.BUILTIN_NAMES:
    agentconform.builtin(name)
    agentconform.builtin_clauses(name)
t2 = time.perf_counter()
import agentconform.cli
t3 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "load_s": t2 - t1,
                  "cli_import_s": t3 - t2}))
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def measure_setup() -> list:
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE,
                               str(SRC)], capture_output=True, text=True,
                              timeout=60, check=True, cwd=ROOT)
        out.append(json.loads(proc.stdout))
    return out


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "agentconform").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": _git_head(), "src_sha256": digest.hexdigest()}


def _git_head():
    """HEAD of the checkout if it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    def __init__(self, wl, tr):
        n_lat = len(wl.latencies)
        t0 = time.perf_counter()
        wl.run_pass(tr)
        self.wall = time.perf_counter() - t0
        self.traced = tr.on
        self.latencies = wl.latencies[n_lat:]


def run_passes(wl, seconds, tracer):
    """Untraced passes, each followed by a traced one when tracing, until
    the next round would overrun the budget."""
    kinds = [OFF, tracer] if tracer else [OFF]
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes += [Pass(wl, tr) for tr in kinds]
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def percentile_ms(samples, q):
    """The q-quantile, or 0 unless at least ten samples lie beyond it."""
    if len(samples) * (1 - q) < 10:
        return 0.0
    return 1e3 * statistics.quantiles(samples, n=100)[round(q * 100) - 1]


def end_to_end(passes, setup):
    walls = [p.wall for p in passes]
    return {
        # mean, not median: a cells pass carries a bimodal mock-server wait
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(tracer, passes, setup):
    """Per-pass means of span self times and span counts."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    spans = defaultdict(list)  # name -> [(attrs, self s, cpu s, dur s)]
    for rec, self_s in zip(tracer.spans, tracer.self_times()):
        spans[rec["name"]].append((rec["attrs"], self_s,
                                   rec["cpu_end"] - rec["cpu_start"],
                                   rec["end"] - rec["start"]))

    def secs(*names, verdict=None):
        return sum(s for name in names for a, s, _, _ in spans[name]
                   if verdict in (None, a.get("verdict"))) / n

    def attr(name, key):
        return sum(a.get(key, 0) for a, _, _, _ in spans[name]) / n

    def bindings(*names):
        weighted = [(a.get("bindings", 0), a.get("states", 0))
                    for name in names for a, _, _, _ in spans[name]]
        total = sum(st for _, st in weighted)
        return sum(b * st for b, st in weighted) / total if total else 0.0

    check_s = secs("checker.check")
    enumerate_s = secs("checker.enumerate_states")
    run_s = secs("replay.run")
    cpu_s = sum(c for _, _, c, _ in spans["replay.run"]) / n
    traced_wall = sum(p.wall for p in traced)
    layer_self = sum(s for name, rows in spans.items()
                     if not name.startswith("bench.") for _, s, _, _ in rows)
    latencies = [x for p in plain for x in p.latencies]
    metrics = {
        "checker.check_s": (check_s, "s"),
        "checker.pass_s": (secs("checker.check", verdict="PASS"), "s"),
        "checker.fail_s": (secs("checker.check", verdict="FAIL"), "s"),
        "checker.max_call_s": (max((d for _, _, _, d in spans["checker.check"]),
                                   default=0.0), "s"),
        "checker.states": (attr("checker.check", "states"), "count"),
        "checker.states_per_s": (attr("checker.check", "states") / check_s
                                 if check_s else 0.0, "1/s"),
        "checker.calls": (len(spans["checker.check"]) / n, "count"),
        "checker.enumerate_s": (enumerate_s, "s"),
        "checker.enumerate_states": (attr("checker.enumerate_states",
                                          "states"), "count"),
        "checker.enumerate_states_per_s": (
            attr("checker.enumerate_states", "states") / enumerate_s
            if enumerate_s else 0.0, "1/s"),
        "checker.bindings_per_state": (bindings("checker.check",
                                                "checker.enumerate_states"),
                                       "count"),
        "checker.validate_trace_s": (secs("checker.validate_trace"), "s"),
        "checker.cx_io_s": (secs("checker.export_counterexample",
                                 "checker.import_counterexample"), "s"),
        "checker.cx_depth_sum": (attr("checker.validate_trace", "depth"),
                                 "count"),
        "irfmt.parse_s": (secs("irfmt.parse_model"), "s"),
        "irfmt.serialize_s": (secs("irfmt.serialize_model"), "s"),
        "ir.validate_s": (secs("ir.validate"), "s"),
        "ir.coverage_s": (secs("ir.coverage"), "s"),
        "builtins.load_s": (statistics.median(s["load_s"] for s in setup),
                            "s"),
        "cli.import_s": (statistics.median(s["cli_import_s"] for s in setup),
                         "s"),
        "catalog.instantiate_s": (secs("catalog.instantiate_for"), "s"),
        "compose.compose_s": (secs("compose.compose"), "s"),
        "compose.vars": (attr("compose.compose", "vars"), "count"),
        "compose.transitions": (attr("compose.compose", "transitions"),
                                "count"),
        "compose.bindings_per_state": (attr("compose.compose", "bindings"),
                                       "count"),
        "tla.emit_s": (secs("tla.emit_artifact"), "s"),
        "tla.module_bytes": (attr("tla.emit_artifact", "module_bytes"),
                             "bytes"),
        "tla.parse_log_s": (secs("tla.parse_tlc_output"), "s"),
        "replay.generate_s": (secs("replay.generate_tests"), "s"),
        "replay.run_s": (run_s, "s"),
        "replay.cpu_s": (cpu_s, "s"),
        "replay.wait_s": (run_s - cpu_s, "s"),
        "replay.runs": (len(spans["replay.run"]) / n, "count"),
        "report.triage_s": (secs("report.triage"), "s"),
        "cell_p50_ms": (percentile_ms(latencies, 0.5), "ms"),
        "cell_p90_ms": (percentile_ms(latencies, 0.9), "ms"),
        "cell_samples": (len(latencies), "count"),
        "trace.overhead_s": (traced_wall / n
                             - statistics.fmean(p.wall for p in plain), "s"),
        "trace.layer_share": (layer_self / traced_wall, "ratio"),
        "trace.checker_share": (secs("checker.check",
                                     "checker.enumerate_states")
                                / (traced_wall / n), "ratio"),
    }
    # the spans nest: their self times add up to the traced passes
    all_self = sum(s for rows in spans.values() for _, s, _, _ in rows)
    consistent = abs(all_self - traced_wall) <= 0.01 * traced_wall
    return metrics, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("statespace", "cells"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "agentconform" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("byte-compiling the package failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    try:
        wl = WORKLOADS[args.workload](ROOT, random.Random(args.seed))
    except OSError as exc:
        print(f"known answers missing: {exc}", file=sys.stderr)
        return 2
    setup = measure_setup()
    env = environment(args)
    wl.warm()
    tracer = Tracer() if args.trace else None
    passes = run_passes(wl, args.seconds, tracer)
    plain = [p for p in passes if not p.traced]
    env.update(passes=len(plain), traced_passes=len(passes) - len(plain),
               units_per_pass=len(plain[0].latencies),
               setup_samples=len(setup),
               pass_s=[round(p.wall, 4) for p in plain])

    correct = wl.failed == 0
    if tracer:
        metrics, consistent = per_layer(tracer, passes, setup)
        correct = correct and consistent
        if not consistent:
            print("span self times do not add up to the traced wall time",
                  file=sys.stderr)
        tracer.dump(ROOT / ".bench_out"
                    / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {k: (v, END_TO_END[k])
                   for k, v in end_to_end(plain, setup).items()}
    for problem in wl.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
