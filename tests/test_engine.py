"""Pins of the checker's outputs: reachable-state counts and, per bundled
check, the verdict, the states explored and the counterexample depth.

`tests/golden/states.json` was written by the interpreted engine; an
engine change that drifts in any count fails here. Regenerate it only for
a deliberate change of search semantics:

    PYTHONPATH=src python tests/test_engine.py
"""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from agentconform import checker, compose, ir, report, tla
from agentconform import expr as E
from agentconform.builtins import BUILTIN_NAMES, builtin

from _oracle import _successors, oracle_check

GOLDEN = Path(__file__).parent / "golden" / "states.json"

# distinct reachable states at DEFAULT_BOUNDS
STATE_COUNTS = {"mcp": 386, "a2a": 145, "anp": 328, "acp-cap": 254,
                "acp-client": 97, "chained-servers": 65090}


def _row(model, prop_id, res, **where):
    cx = res.counterexample
    return {"model": model, **where, "property": prop_id,
            "verdict": res.verdict, "states_explored": res.states_explored,
            "depth": cx.depth if cx else None}


def per_protocol_rows():
    """The 50 per-protocol cells of the bundled matrix."""
    rows = []
    for name in BUILTIN_NAMES:
        model = builtin(name)
        for pr in report.MATRIX_PRINCIPLES[:-1]:
            prop = report._cell_property(model, pr)
            rows.append(_row(name, prop.id, checker.check(model, prop),
                             principle=pr))
    return rows


def composed_rows(runs):
    """The 21 composition checks; `runs` is shaped like the
    `composition_runs` fixture."""
    return [_row(composed.name, pid, results[pid], pattern=pattern)
            for pattern, (composed, _, results) in runs.items()
            for pid in sorted(results)]


def _composition_runs():
    out = {}
    for pattern, a, b, bridge in compose.builtin_compositions():
        composed = compose.compose(a, b, bridge)
        props = compose.cs_properties(composed, pattern)
        out[pattern] = (composed, props, checker.check_all(composed, props))
    return out


def test_per_protocol_states_golden():
    golden = json.loads(GOLDEN.read_text())
    assert per_protocol_rows() == golden["per_protocol"]


def test_composed_states_golden(composition_runs):
    golden = json.loads(GOLDEN.read_text())
    assert composed_rows(composition_runs) == golden["composed"]


@pytest.mark.parametrize("name", sorted(STATE_COUNTS))
def test_enumerate_states_counts(name):
    if name in BUILTIN_NAMES:
        model = builtin(name)
    else:
        model = next(compose.compose(a, b, bridge)
                     for pattern, a, b, bridge
                     in compose.builtin_compositions() if pattern == name)
    assert checker.enumerate_states(model) == STATE_COUNTS[name]


def _update_model():
    """Updates the bundled models do not make: a whole-map copy, two keyed
    updates of one map in one step, keys read from the state, a nested
    map, a counter that leaves its range, and guards that are bare
    variables."""
    def var(name, sort, init):
        return ir.StateVarDecl(name, sort, init)

    def step(tid, params, guard, *updates):
        return ir.Transition(
            tid, "Protocol", "sys", params, E.parse(guard),
            tuple((ir.UpdateTarget(v, tuple(E.parse(k) for k in keys)),
                   E.parse(rhs)) for v, keys, rhs in updates),
            "MAY", (ir.SourceRef("test", "updates"),))

    flags = ir.MapSort("Dom", ir.BoolSort())
    x, y = ("x", "Dom"), ("y", "Dom")
    return ir.ProtocolModel(
        name="updates", snapshot="2025-01",
        constants=(("Dom", ("a", "b")),),
        state_vars=(
            var("m", flags, ir.InitAll(E.parse("false"))),
            var("n", flags, ir.InitMap((("a", E.parse("true")),
                                        ("b", E.parse("false"))))),
            var("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
            var("k", ir.CounterSort(2), ir.InitExpr(E.parse("0"))),
            var("d", ir.MapSort("Dom", ir.MapSort("Dom", ir.SetSort("Dom"))),
                ir.InitAll(E.parse("{}"))),
            var("on", ir.BoolSort(), ir.InitExpr(E.parse("true"))),
        ),
        transitions=(
            step("Copy", (), "true", ("m", (), "n")),
            step("Swap", (), "m # n", ("n", (), "m"), ("m", (), "n")),
            step("Both", (x, y), "x # y", ("m", ("x",), "true"),
                 ("m", ("y",), "false")),
            step("Pick", (x,), "sel # x", ("sel", (), "x"),
                 ("k", (), "k + 1")),
            step("Mark", (), "true", ("m", ("sel",), "not m[sel]")),
            step("Grow", (x,), "x notin d[sel][x]",
                 ("d", ("sel", "x"), "d[sel][x] union {x}")),
            step("Row", (x,), "d[x] # d[sel]", ("d", ("sel",), "d[x]")),
            step("Clear", (), "m[a]", ("m", ("a",), "false")),
            step("Off", (), "on", ("on", (), "false")),
        ),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("forall x in Dom : not m[x]")),))


def _one_step_model(invariant, *updates):
    """Dom = {a, b}; one transition makes `updates` to the maps m (all
    false) and n (all true)."""
    flags = ir.MapSort("Dom", ir.BoolSort())
    return ir.ProtocolModel(
        name="twice", snapshot="2025-01",
        constants=(("Dom", ("a", "b")),),
        state_vars=(
            ir.StateVarDecl("m", flags, ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("n", flags, ir.InitAll(E.parse("true"))),
        ),
        transitions=(ir.Transition(
            "Step", "Protocol", "sys", (), E.parse("true"),
            tuple((ir.UpdateTarget(v, tuple(E.parse(k) for k in keys)),
                   E.parse(rhs)) for v, keys, rhs in updates),
            "MAY", (ir.SourceRef("test", "updates"),)),),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse(invariant)),))


@pytest.mark.parametrize("invariant,updates,tla_text", [
    ("not (m[a] and m[b])",
     (("m", ("a",), "true"), ("m", ("b",), "true")),
     "m' = [m EXCEPT ![a] = TRUE, ![b] = TRUE]"),
    ("not m[b]", (("m", (), "n"), ("m", ("a",), "false")), None),
])
def test_updates_of_one_variable_apply_in_order(invariant, updates,
                                                tla_text):
    """Two updates of one variable in one step both land, as in TLA+'s
    EXCEPT; a whole assignment next to another update has no EXCEPT form,
    so the emitter refuses it."""
    model = _one_step_model(invariant, *updates)
    prop = model.properties[0]
    res = checker.check(model, prop)
    assert (res.verdict, res.counterexample.depth) == ("FAIL", 1)
    assert oracle_check(model, prop) == ("FAIL", 1)
    if tla_text is None:
        with pytest.raises(tla.TlaError, match="as a whole"):
            tla.emit_module(model)
    else:
        assert f"  /\\ {tla_text}" in tla.emit_module(model).splitlines()


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("updates",))
def test_engine_matches_evaluator_on_every_state(name):
    """In every reachable state the compiled successors are the ones the
    tree-walking evaluator derives, and every matrix cell's invariant
    evaluates the same."""
    bounds = checker.DEFAULT_BOUNDS
    if name == "updates":
        model = _update_model()
        props = list(model.properties)
    else:
        model = builtin(name)
        props = [report._cell_property(model, pr)
                 for pr in report.MATRIX_PRINCIPLES[:-1]]
    eng = checker._Engine(model, bounds)
    tests = [(p, eng.invariant(p)) for p in props]
    sorts = {v.name: v.sort for v in model.state_vars}
    parents = {eng.start: None}
    for s in itertools.chain((eng.start,), checker._bfs(eng, parents)):
        state = checker.state_dict(model, eng.canonical(s))
        want = Counter(checker.state_vector(model, post) for post in
                       _successors(model, state, eng.constants, eng.atoms,
                                   sorts, bounds))
        got = Counter(eng.canonical(post)
                      for _, _, post in eng.successors(s))
        assert got == want
        for prop, holds in tests:
            assert holds(s) == E.evaluate_bool(
                prop.invariant, state, eng.constants, eng.atoms), prop.id
    assert len(parents) > 1


if __name__ == "__main__":
    doc = {"per_protocol": per_protocol_rows(),
           "composed": composed_rows(_composition_runs())}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
