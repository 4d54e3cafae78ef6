"""The benchmark's workloads.

Each workload is a class whose ``run_pass(tr)`` makes one pass of public
calls into the package, checks every output against a known answer, and
wraps each call in a span of ``tr``. Calls use default arguments only,
and only names the test suite also uses, so removing an internal option
(worker counts, the shared-BFS variant) does not touch the benchmark.

statespace  successor generation, state hashing and dedup, nothing else:
            ``enumerate_states`` over the five bundled protocols and the
            composed ``chained-servers`` model, the only composition whose
            full enumeration takes seconds rather than minutes.
cells       the README quick start for each of the 50 per-protocol
            cells (5 protocols x P1-P8, WF, SL): parse the model text
            uncached, validate, check, and on a FAIL validate, export and
            re-import the trace, emit TLA+, parse the TLC fixture log and
            replay against both mock profiles where an oracle exists.
"""

from __future__ import annotations

import json
import math
import threading
import time
from importlib import resources

from agentconform import (builtins, catalog, checker, compose, ir, irfmt,
                          replay, report, tla)
from tracer import OFF

# distinct reachable states at DEFAULT_BOUNDS
EXPECTED_STATES = {"mcp": 386, "a2a": 145, "anp": 328, "acp-cap": 254,
                   "acp-client": 97, "chained-servers": 65090}
COMPOSED = "chained-servers"

CELL_PRINCIPLES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
                   "WF", "SL")
# FAIL cells whose model has an adapter and whose principle has an oracle
REPLAY_CELLS = {("mcp", "P4"), ("mcp", "P6"), ("mcp", "P8"),
                ("a2a", "P3"), ("a2a", "P6"), ("a2a", "P8")}
REPLAY_EXPECT = (("vulnerable", "VIOLATED"), ("hardened", "UPHELD"))


def bindings_per_state(model) -> int:
    """(transition, binding) pairs the checker tries in every state."""
    consts = checker.bounded_constants(model, checker.DEFAULT_BOUNDS)
    return sum(math.prod(len(consts.get(d, ())) for _, d in t.params)
               for t in model.transitions)


def _trace_key(cx):
    # the JSON import sorts each binding by parameter name
    return (cx.model, cx.property_id, cx.depth, cx.initial,
            [(s.transition_id, dict(s.binding), s.post_state)
             for s in cx.steps])


class Workload:
    """Shared bookkeeping: units attempted and failed, unit latencies."""

    def __init__(self, root, rng):
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.problems = []  # first few failure messages, for stderr
        self.latencies = []  # seconds per unit

    def _unit(self, label, fn, *args):
        t0 = time.perf_counter()
        try:
            problems = fn(*args)
        except Exception as exc:  # a raising call is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        self.latencies.append(time.perf_counter() - t0)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")


class Statespace(Workload):
    def warm(self):
        self.models = {n: builtins.builtin(n) for n in builtins.BUILTIN_NAMES}
        self.pair = next((a, b, bridge) for pattern, a, b, bridge
                         in compose.builtin_compositions()
                         if pattern == COMPOSED)
        for model in self.models.values():
            checker.enumerate_states(model)

    def run_pass(self, tr):
        units = list(EXPECTED_STATES)
        self.rng.shuffle(units)
        with tr.span("bench.pass"):
            for name in units:
                self._unit(name, self._enumerate, tr, name)

    def _enumerate(self, tr, name):
        problems = []
        if name == COMPOSED:
            with tr.span("compose.compose") as s:
                model = compose.compose(*self.pair)
            if tr.on:
                s.update(vars=len(model.state_vars),
                         transitions=len(model.transitions),
                         bindings=bindings_per_state(model))
            # what `agentconform compose --out` writes
            with tr.span("irfmt.serialize_model"):
                text = irfmt.serialize_model(model)
            with tr.span("irfmt.parse_model"):
                again = irfmt.parse_model(text)
            if again != model:
                problems.append("serialized composition does not round-trip")
        else:
            model = self.models[name]
        with tr.span("checker.enumerate_states") as s:
            n = checker.enumerate_states(model)
        if tr.on:
            s.update(states=n, bindings=bindings_per_state(model))
        if n != EXPECTED_STATES[name]:
            problems.append(f"{n} states, expected {EXPECTED_STATES[name]}")
        return problems


class Cells(Workload):
    def __init__(self, root, rng):
        super().__init__(root, rng)
        doc = json.loads((root / "tests/golden/matrix.json").read_text())
        self.golden = {(c["protocol"], c["principle"]): c
                       for c in doc["cells"]}
        self.logs = {p.stem: p.read_text()
                     for p in sorted((root / "tests/fixtures").glob("*.log"))}
        models = resources.files("agentconform.data") / "models"
        self.texts = {n: (models / f"{n}.ir").read_text(encoding="utf-8")
                      for n in builtins.BUILTIN_NAMES}
        self.cells = [(n, p) for n in builtins.BUILTIN_NAMES
                      for p in CELL_PRINCIPLES]

    def warm(self):
        self.run_pass(OFF)

    def run_pass(self, tr):
        order = list(self.cells)
        self.rng.shuffle(order)
        seen = {"logs": 0, "replays": 0}
        with tr.span("bench.pass"):
            for name, principle in order:
                with tr.span("bench.cell", cell=f"{name}/{principle}"):
                    self._unit(f"{name}/{principle}", self._cell, tr, name,
                               principle, seen)
        # every fixture log and every replay cell must have been reached
        self.attempted += 1
        if seen != {"logs": len(self.logs), "replays": 2 * len(REPLAY_CELLS)}:
            self.failed += 1
            self.problems.append(f"pass reached {seen}")

    def _cell(self, tr, name, principle, seen):
        problems = []
        want = self.golden[(name, principle)]
        with tr.span("irfmt.parse_model"):
            model = irfmt.parse_model(self.texts[name])
        with tr.span("ir.validate"):
            findings = ir.validate(model).findings
        if findings:
            problems.append(f"validation findings {findings}")
        prop = next((p for p in model.properties
                     if p.principle == principle), None)
        if prop is None:
            with tr.span("catalog.instantiate_for"):
                prop = catalog.instantiate_for(model, principle)
        with tr.span("checker.check") as s:
            res = checker.check(model, prop)
        if tr.on:
            s.update(verdict=res.verdict, states=res.states_explored,
                     bindings=bindings_per_state(model))
        cx = res.counterexample
        depth = cx.depth if cx else None
        if (res.verdict, depth) != (want["model_verdict"], want["depth"]):
            problems.append(f"{res.verdict} at depth {depth}, expected "
                            f"{want['model_verdict']} at {want['depth']}")
        with tr.span("ir.coverage"):
            cov = ir.coverage(model, builtins.builtin_clauses(name))
        ann = report.Annotations(ambiguous_clauses=tuple(
            dict(cov.ambiguity_contacts).get(prop.id, ())))
        with tr.span("report.triage"):
            verdict = report.triage(res, "NOT_RUN", prop, ann)
        if (verdict, prop.cls) != (want["triage"], want["class"]):
            problems.append(f"triage {verdict}/{prop.cls}, expected "
                            f"{want['triage']}/{want['class']}")
        if res.failed:
            problems += self._counterexample(tr, model, prop, cx)
        log = self.logs.get(f"{name}_{prop.id}")
        if log is not None:
            seen["logs"] += 1
            with tr.span("tla.parse_tlc_output"):
                tlc = tla.to_check_result(tla.parse_tlc_output(log), model)
            tlc_depth = tlc.counterexample.depth if tlc.counterexample \
                else None
            if (tlc.verdict, tlc_depth) != (res.verdict, depth):
                problems.append(f"TLC log says {tlc.verdict} at {tlc_depth}")
        if res.failed:
            problems += self._replay(tr, name, principle, cx, seen)
        return problems

    def _counterexample(self, tr, model, prop, cx):
        problems = []
        with tr.span("checker.validate_trace", depth=cx.depth):
            if not checker.validate_trace(model, cx, prop):
                problems.append("counterexample fails validate_trace")
        with tr.span("checker.export_counterexample"):
            text = checker.export_counterexample(model, cx)
        with tr.span("checker.import_counterexample"):
            again = checker.import_counterexample(model, text)
        if _trace_key(again) != _trace_key(cx):
            problems.append("counterexample JSON does not round-trip")
        with tr.span("tla.emit_artifact") as s:
            artifact = tla.emit_artifact(model)
        s["module_bytes"] = len(artifact.module_text)
        if not artifact.module_text.startswith("---- MODULE"):
            problems.append("emitted TLA+ module has no header")
        return problems

    def _replay(self, tr, name, principle, cx, seen):
        problems = []
        with tr.span("replay.generate_tests"):
            tests, _ = replay.generate_tests([cx])
        if len(tests) != ((name, principle) in REPLAY_CELLS):
            problems.append(f"{len(tests)} replay tests generated")
        for test in tests:
            for profile, want in REPLAY_EXPECT:
                seen["replays"] += 1
                with tr.span("replay.run", profile=profile):
                    outcome = replay.run(test, profile).outcome
                if outcome != want:
                    problems.append(f"{profile} replay {outcome}, "
                                    f"expected {want}")
                if threading.active_count() != 1:
                    problems.append("mock endpoint thread left running")
        return problems


WORKLOADS = {"statespace": Statespace, "cells": Cells}
