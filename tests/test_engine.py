"""Pins of the checker's outputs: reachable-state counts and, per bundled
check, the verdict, the states explored and the counterexample depth.

`tests/golden/states.json` was written by the interpreted engine, and
counts the states of a search of the whole model, as TLC explores it;
`tests/golden/sliced.json` counts those of `checker.check_all`, which
searches each property's slice. An engine change that drifts in any
count fails here. Regenerate them only for a deliberate change of search
semantics:

    PYTHONPATH=src python tests/test_engine.py
"""

import ast
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from agentconform import checker, compose, ir, report, tla
from agentconform import compiled as C
from agentconform import expr as E
from agentconform.builtins import BUILTIN_NAMES, builtin
from agentconform.record import replace

from _oracle import _successors, oracle_check
from _tlc_log import whole_check_all
from test_checker import NeverSeen, RANDOM_BOUNDS, random_model

GOLDEN = Path(__file__).parent / "golden" / "states.json"
SLICED_GOLDEN = Path(__file__).parent / "golden" / "sliced.json"

# distinct reachable states at DEFAULT_BOUNDS
STATE_COUNTS = {"mcp": 386, "a2a": 145, "anp": 328, "acp-cap": 254,
                "acp-client": 97, "chained-servers": 65090}


def _row(model, prop_id, res, **where):
    cx = res.counterexample
    return {"model": model, **where, "property": prop_id,
            "verdict": res.verdict, "states_explored": res.states_explored,
            "depth": cx.depth if cx else None}


def _results(check_all, model, props):
    """{property id: result} of check_all, `checker.check_all` or
    `whole_check_all`, called once per property."""
    return {p.id: check_all(model, [p])[p.id] for p in props}


def per_protocol_rows(check_all=whole_check_all):
    """The 50 per-protocol cells of the bundled matrix."""
    rows = []
    for name in BUILTIN_NAMES:
        model = builtin(name)
        cells = [(pr, report._cell_property(model, pr))
                 for pr in report.MATRIX_PRINCIPLES[:-1]]
        results = _results(check_all, model, [p for _, p in cells])
        rows += [_row(name, prop.id, results[prop.id], principle=pr)
                 for pr, prop in cells]
    return rows


def composed_rows(runs, check_all=whole_check_all):
    """The 21 composition checks; `runs` is shaped like the
    `composition_runs` fixture."""
    return [_row(composed.name, pid, results[pid], pattern=pattern)
            for pattern, (composed, props, _) in runs.items()
            for results in [check_all(composed, props)]
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


def test_sliced_states_golden(composition_runs):
    """Each bundled check's sliced search: its own states explored, and
    the verdict and depth of the whole model's search."""
    golden = json.loads(SLICED_GOLDEN.read_text())
    assert per_protocol_rows(checker.check_all) == golden["per_protocol"]
    assert composed_rows(composition_runs, checker.check_all) == \
        golden["composed"]
    whole = json.loads(GOLDEN.read_text())
    for part in ("per_protocol", "composed"):
        for sliced, row in zip(golden[part], whole[part]):
            assert {**sliced, "states_explored": None} == \
                {**row, "states_explored": None}
            assert sliced["states_explored"] <= row["states_explored"]


def test_bundled_traces_are_the_whole_models(composition_runs):
    """Every bundled FAIL trace of a sliced search is the one the search
    of the whole model finds, step for step."""
    for name in BUILTIN_NAMES:
        model = builtin(name)
        props = [report._cell_property(model, pr)
                 for pr in report.MATRIX_PRINCIPLES[:-1]]
        whole = _results(whole_check_all, model, props)
        for prop in props:
            res = checker.check(model, prop)
            assert res.counterexample == whole[prop.id].counterexample
    for composed, props, results in composition_runs.values():
        whole = whole_check_all(composed, props)
        for prop in props:
            assert results[prop.id].counterexample == \
                whole[prop.id].counterexample, prop.id


@pytest.mark.parametrize("name", sorted(STATE_COUNTS))
def test_enumerate_states_counts(name):
    model = builtin(name) if name in BUILTIN_NAMES else _chained_servers()
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
            tla.emit_artifact(model)
    else:
        assert f"  /\\ {tla_text}" in \
            tla.emit_artifact(model).module_text.splitlines()


def _shape_model():
    """Dom = {a, b} and m : MAP(Dom -> BOOL). Wipe stores {} into m, a
    set where a map belongs, and Deep writes m[a][b], past a map leaf;
    each then sets done, which the invariant forbids."""
    def step(tid, keys, rhs):
        return ir.Transition(
            tid, "Protocol", "sys", (), E.parse("true"),
            ((ir.UpdateTarget("m", tuple(E.parse(k) for k in keys)),
              E.parse(rhs)),
             (ir.UpdateTarget("done", ()), E.parse("true"))),
            "MAY", (ir.SourceRef("test", "shapes"),))

    return ir.ProtocolModel(
        name="shapes", snapshot="2025-01",
        constants=(("Dom", ("a", "b")),),
        state_vars=(
            ir.StateVarDecl("m", ir.MapSort("Dom", ir.BoolSort()),
                            ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("done", ir.BoolSort(),
                            ir.InitExpr(E.parse("false"))),
        ),
        transitions=(step("Wipe", (), "{}"), step("Deep", ("a", "b"), "true")),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("not done")),))


def _assert_refused(model, finding):
    """`ir.validate` reports exactly the finding, every
    search of the model is an ERROR that names it, and `validate_trace`
    refuses a trace of it."""
    assert [str(f) for f in ir.validate(model).findings] == [finding]
    prop = model.properties[0]
    assert checker.check(model, prop).verdict == f"ERROR: {finding}"
    with pytest.raises(ir.IrError, match=re.escape(finding)):
        checker.enumerate_states(model)
    cx = checker.Counterexample(model.name, prop.id, 0, (), ())
    with pytest.raises(ir.IrError, match=re.escape(finding)):
        checker.validate_trace(model, cx)


@pytest.mark.parametrize("tid,finding", [
    ("Wipe", "sort-mismatch in Wipe: update `m := {}`: the value is a SET "
             "of {}, not a MAP({a, b} -> BOOL)"),
    ("Deep", "sort-mismatch in Deep: update `m[a][b] := true`: m[a][b] "
             "indexes past a map leaf"),
], ids=["Wipe", "Deep"])
def test_updates_out_of_a_maps_shape_are_sort_mismatches(tid, finding):
    """A store that would change a map's shape and a write past a map
    leaf are refused before anything runs."""
    model = _shape_model()
    _assert_refused(replace(model, transitions=(model.transition(tid),)),
                    finding)


def test_a_map_stored_into_a_leaf_is_a_sort_mismatch():
    """Storing the map n into the BOOL leaf m[a] is refused before
    anything runs."""
    def step(tid, stage, keys, rhs):
        return ir.Transition(
            tid, "Protocol", "sys", (), E.parse(f"stage = {stage}"),
            ((ir.UpdateTarget("m", tuple(E.parse(k) for k in keys)),
              E.parse(rhs)),
             (ir.UpdateTarget("stage", ()), E.parse(f"{stage + 1}"))),
            "MAY", (ir.SourceRef("test", "leaves"),))

    flags = ir.MapSort("Dom", ir.BoolSort())
    model = ir.ProtocolModel(
        name="leaves", snapshot="2025-01",
        constants=(("Dom", ("a", "b")),),
        state_vars=(
            ir.StateVarDecl("m", flags, ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("n", flags, ir.InitAll(E.parse("true"))),
            ir.StateVarDecl("stage", ir.CounterSort(3),
                            ir.InitExpr(E.parse("0"))),
        ),
        transitions=(step("Nest", 0, ("a",), "n"),
                     step("Flat", 1, ("a",), "true")),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("stage < 2")),))
    _assert_refused(model, "sort-mismatch in Nest: update `m[a] := n`: the "
                           "value is a MAP({a, b} -> BOOL), not BOOL")


def test_a_counter_under_a_map_is_refused():
    """c : MAP(Dom -> COUNTER(1)) would take one bit per key, and Bump
    stores 2 and Set 5 there: the reference semantics, which range-check
    only a counter variable, reach c[a] = 5 at depth 1, past the field's
    width. The sort is refused before anything is packed, by the engine,
    `validate_trace` and the TLA+ emitter alike."""
    def step(tid, params, key, rhs):
        return ir.Transition(
            tid, "Protocol", "sys", params, E.parse("true"),
            ((ir.UpdateTarget("c", (E.parse(key),)), E.parse(rhs)),),
            "MAY", (ir.SourceRef("test", "counters"),))

    model = ir.ProtocolModel(
        name="counters", snapshot="2025-01",
        constants=(("Dom", ("a", "b")),),
        state_vars=(ir.StateVarDecl(
            "c", ir.MapSort("Dom", ir.CounterSort(1)),
            ir.InitAll(E.parse("0"))),),
        transitions=(step("Bump", (("x", "Dom"),), "x", "c[x] + 1"),
                     step("Set", (), "a", "5")),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("c[a] < 2")),))
    assert oracle_check(model, model.properties[0]) == ("FAIL", 1)
    finding = "bad-sort in c: sort MAP(Dom -> COUNTER(1)) puts a COUNTER " \
              "under a MAP"
    _assert_refused(model, finding)
    with pytest.raises(ir.IrError, match=re.escape(finding)):
        tla.emit_artifact(model)


def test_a_map_copied_across_bounded_shapes_runs():
    """A map's shape follows from its sort under the bounds, and a map
    literal keeps only the keys of its bounded domain: copying it into a
    map over the capped domain runs, as at full bounds, with the
    oracle's depth, and the TLA+ Init holds the same keys."""
    model = ir.ProtocolModel(
        name="copy", snapshot="2025-01", constants=(("Dom", ("a", "b")),),
        state_vars=(
            ir.StateVarDecl("m", ir.MapSort("Dom", ir.BoolSort()),
                            ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("n", ir.MapSort("Dom", ir.BoolSort()),
                            ir.InitMap((("a", E.parse("true")),
                                        ("b", E.parse("true"))))),
        ),
        transitions=(ir.Transition(
            "Copy", "Protocol", "sys", (), E.parse("true"),
            ((ir.UpdateTarget("m", ()), E.parse("n")),), "MAY",
            (ir.SourceRef("test", "copy"),)),),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("not m[a]")),))
    assert ir.validate(model).ok
    prop = model.properties[0]
    capped = checker.DEFAULT_BOUNDS.with_caps(dom=1)
    for bounds in (checker.DEFAULT_BOUNDS, capped):
        res = checker.check(model, prop, bounds)
        assert (res.verdict, res.counterexample.depth) == ("FAIL", 1)
        assert oracle_check(model, prop, bounds) == ("FAIL", 1)
        assert checker.validate_trace(model, res.counterexample, prop, bounds)
    init = tla.emit_artifact(model, capped).module_text.splitlines()
    assert "  /\\ n = (a :> TRUE)" in init
    assert res.counterexample.steps[0].post_state == (
        E.FMap.of({"a": True}), E.FMap.of({"a": True}))


def test_a_map_copied_across_domains_of_the_same_atoms_is_ill_sorted():
    """A cap bounds a domain by its name, so a map over A copied into a
    map over B keeps other keys once A alone is capped, though A and B
    declare the same atoms. The sort checker refuses the copy at every
    bound, so no bounded instance stores a map of another shape."""
    model = ir.ProtocolModel(
        name="copy", snapshot="2025-01",
        constants=(("A", ("x", "y")), ("B", ("x", "y"))),
        state_vars=(
            ir.StateVarDecl("m", ir.MapSort("B", ir.BoolSort()),
                            ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("n", ir.MapSort("A", ir.BoolSort()),
                            ir.InitAll(E.parse("true")))),
        transitions=(ir.Transition(
            "Copy", "Protocol", "sys", (), E.parse("true"),
            ((ir.UpdateTarget("m", ()), E.parse("n")),), "MAY",
            (ir.SourceRef("test", "copy"),)),),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("not m[y]")),))
    finding = ("sort-mismatch in Copy: update `m := n`: the value is a "
               "MAP({x, y} -> BOOL), not a MAP({x, y} -> BOOL): its key "
               "domains are A, not B")
    assert [str(f) for f in ir.validate(model).findings] == [finding]
    for bounds in (checker.DEFAULT_BOUNDS,
                   checker.DEFAULT_BOUNDS.with_caps(a=1)):
        assert checker.check(model, model.properties[0], bounds).verdict \
            == f"ERROR: {finding}"


def _bundled_model(name):
    """A builtin by name, or a builtin composition by its pattern."""
    if name in BUILTIN_NAMES:
        return builtin(name)
    return next(compose.compose(a, b, bridge)
                for pattern, a, b, bridge in compose.builtin_compositions()
                if pattern == name)


def _sort_width(sort, declared) -> int:
    """Bits of one slot of this leaf sort: 1 for a BOOL, those of n for
    a COUNTER(n), of k - 1 for an ENUM of k values, and one per declared
    atom of D for a SET(D)."""
    if isinstance(sort, ir.BoolSort):
        return 1
    if isinstance(sort, ir.CounterSort):
        return sort.max.bit_length()
    if isinstance(sort, ir.EnumSort):
        return (len(sort.values) - 1).bit_length()
    return len(declared[sort.over])


def _state_bits(model) -> int:
    """The sum of the slots' sort widths at the default bounds: a map
    takes one slot per leaf of its initial value."""
    constants = checker.bounded_constants(model, checker.DEFAULT_BOUNDS)
    total = 0
    for v in model.state_vars:
        value, sort = v.initial_value(constants), v.sort
        leaves = 1
        while isinstance(sort, ir.MapSort):
            leaves *= len(value.items)
            value, sort = value.items[0][1], sort.value
        total += leaves * _sort_width(sort, model.constants_map)
    return total


_COMPOSITIONS = tuple(p for p, *_ in compose.builtin_compositions())


@pytest.mark.parametrize("name", BUILTIN_NAMES + _COMPOSITIONS)
def test_state_encoding_comes_from_the_sorts(name):
    """A packed state is as wide as its slots' sorts need: 33-37 bits on
    the builtins, below Python's 61-bit int hash, and 74-78 on the
    compositions. The fields of every variable a step stores into lie
    below those of every variable none does, whose fields keep their
    initial values in every reachable state. The encoding is a function
    of the model: the start state and the field masks are the same for
    any state budget."""
    model = _bundled_model(name)
    eng = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    bits = eng.env["_FULL"].bit_length()
    assert bits == _state_bits(model)
    low, high = (33, 37) if name in BUILTIN_NAMES else (74, 78)
    assert low <= bits <= high
    if name in BUILTIN_NAMES:
        assert eng.env["_FULL"] < 2**61
    written = frozenset().union(*(p.written for p in ir.footprints(model)))
    masks = {n: v[0] for n, v in zip(model.var_names, eng.env["_vars"])}
    low = sum(m for n, m in masks.items() if n in written)
    high = sum(m for n, m in masks.items() if n not in written)
    assert low and low | high == eng.env["_FULL"]
    assert high == 0 or low < high & -high  # below high's lowest bit
    tiny = checker._Engine(checker.instance(
        model, replace(checker.DEFAULT_BOUNDS, max_states=1)))
    assert (tiny.start, tiny.env["_FULL"]) == (eng.start, eng.env["_FULL"])
    assert [f[:2] for f in tiny.env["_L"]] == [f[:2] for f in eng.env["_L"]]


def _edge_model():
    """Sort edges of the encoding: a SET(Caps) that starts at {c2}, out
    of Caps capped to 1; a COUNTER(3) that starts at 3, above a
    counter_max of 1; a COUNTER(0); a one-value ENUM; and a set compared
    with {o1}, a set of another domain's atom, which has no code in a
    SET(Caps) field."""
    def var(name, sort, init):
        return ir.StateVarDecl(name, sort, ir.InitExpr(E.parse(init)))

    def step(tid, params, guard, *updates):
        return ir.Transition(
            tid, "Protocol", "sys", params, E.parse(guard),
            tuple((ir.UpdateTarget(v), E.parse(rhs)) for v, rhs in updates),
            "MAY", (ir.SourceRef("test", "edges"),))

    return ir.ProtocolModel(
        name="edges", snapshot="2025-01",
        constants=(("Caps", ("c1", "c2")), ("Other", ("o1",))),
        state_vars=(var("s", ir.SetSort("Caps"), "{c2}"),
                    var("k", ir.CounterSort(3), "3"),
                    var("z", ir.CounterSort(0), "0"),
                    var("e", ir.EnumSort(("only",)), "only")),
        transitions=(
            step("Grant", (("c", "Caps"),), "c notin s and s # {o1}",
                 ("s", "s union {c}")),
            step("Reset", (), "k = 3 and s = {c1, c2}", ("k", "0"),
                 ("s", "{}")),
            step("Inc", (), "k # 3", ("k", "k + 1"), ("e", "only")),
            step("Tick", (), "e = only", ("z", "z + 1"))),
        properties=(ir.Property("INV", "P0", "aasm-hardening", E.parse(
            "s subseteq Caps and s # {o1} and z = 0 and e = only")),))


@pytest.mark.parametrize("bounds, states, verdict", [
    (replace(checker.DEFAULT_BOUNDS.with_caps(caps=1), counter_max=1), 6,
     ("FAIL", 0)),
    (checker.DEFAULT_BOUNDS, 16, ("PASS", None)),
], ids=["caps1-counter1", "default"])
def test_sort_edges_match_the_oracle(bounds, states, verdict):
    """On the edge model the kernel, `checker._apply` and the invariant
    agree with the oracle and the evaluator on every reachable state,
    and `enumerate_states` counts the same states."""
    model = _edge_model()
    assert ir.validate(model).ok
    prop = model.properties[0]
    reached = _assert_engine_matches_oracle(model, bounds, (prop,))
    assert checker.enumerate_states(model, bounds) == reached == states
    res = checker.check(model, prop, bounds)
    depth = res.counterexample.depth if res.counterexample else None
    assert (res.verdict, depth) == verdict == oracle_check(model, prop,
                                                           bounds)


def _chained_servers():
    return _bundled_model("chained-servers")


def _assert_engine_matches_oracle(model, bounds, props=(), steps=True):
    """In every reachable state: the kernel's post-states other than the
    state itself are the oracle's, as a set (the kernel records each
    distinct delta of a key once, so a state of a key it has seen gets
    the post-state of two steps of one effect once, and it drops only
    self-loops, and only those of steps storing no field outside the
    memo key); with steps,
    `checker._apply` over the engine's (transition, binding) pairs gives
    the oracle's successors exactly, with multiplicity and self-loops
    included; and each invariant evaluates as the tree-walking evaluator
    does. Each engine
    state is decoded to its state vector once, and each oracle successor
    is compared as a state vector by looking it up among the decoded
    ones. Returns the number of states."""
    eng = checker._Engine(checker.instance(model, bounds))
    tests = [(p, eng.invariant(p)) for p in props]
    sorts = {v.name: v.sort for v in model.state_vars}
    names = model.var_names
    vectors, packed = {}, {}  # engine state <-> its state vector
    memo = {}  # the oracle's effects, for this model and bounds only

    def vector(post):  # of an oracle state, a dict
        return tuple(map(post.__getitem__, names))

    def decode(states):
        for p in states:
            if p not in vectors:
                vectors[p] = eng.canonical(p)
                packed[vectors[p]] = p  # a vector decoded twice fails below

    parents = {eng.start: None}
    decode(parents)  # every later state is decoded as a post-state first
    for s in itertools.chain([eng.start], *checker._bfs(eng, parents)):
        state = dict(zip(names, vectors[s]))
        posts = []
        eng.expand([s], NeverSeen(), posts)
        got = set(posts)
        decode(got)
        # a vector is hashed once, to look up its engine state; one that
        # no engine state decodes to stays a vector and fails below
        want = Counter(packed.get(v, v) for v in map(vector, _successors(
            model, state, eng.inst.constants, eng.inst.atoms, sorts, bounds,
            memo)))
        if steps:
            applied = Counter(packed.get(post, post) for post in (
                checker._apply(eng.inst, t, binding, vectors[s])
                for t, binding in eng.pairs) if post is not None)
            assert applied == want
        assert got - {s} == set(want) - {s}
        for prop, holds in tests:
            assert holds(s) == E.evaluate_bool(
                prop.invariant, state, eng.inst.constants,
                eng.inst.atoms), prop.id
    return len(parents)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("updates",
                                                    "chained-servers"))
def test_engine_matches_evaluator_on_every_state(name):
    """The kernel, `checker._apply` and every matrix cell's invariant
    against the oracle and the evaluator; on chained-servers (65,090
    states) the kernel alone."""
    if name == "updates":
        model = _update_model()
        props = model.properties
    elif name == "chained-servers":
        model, props = _chained_servers(), ()
    else:
        model = builtin(name)
        props = [report._cell_property(model, pr)
                 for pr in report.MATRIX_PRINCIPLES[:-1]]
    states = _assert_engine_matches_oracle(
        model, checker.DEFAULT_BOUNDS, props,
        steps=name != "chained-servers")
    assert states == (1152 if name == "updates" else STATE_COUNTS[name])


def _kernel_source(monkeypatch, model):
    """The source of the model's kernel, as `compiled._define` runs it."""
    sources = []
    define = C._define

    def spy(lines, name, env):
        sources.append("\n".join(lines))
        return define(lines, name, env)
    monkeypatch.setattr(C, "_define", spy)
    checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    src, = sources
    return src


# A field read: the state masked to the read's fields, in parentheses of
# its own, not a call's
_READ = re.compile(r"(?<![\w)\]])\(s & (0x[0-9a-f]+)\)")


def test_kernel_reads_fields_from_the_masked_state(monkeypatch):
    """In the chained-servers kernel every field read starts from the
    masked state `(s & M)`, never from a shift of the whole state, and
    each state's key is looked up once."""
    src = _kernel_source(monkeypatch, _chained_servers())
    # every `s & M` but the key `r = s & R` and the post-states `n = s & K`
    masked = re.findall(r"(?<![rn] = )\bs & 0x", src)
    assert masked and len(masked) == len(_READ.findall(src))
    assert not re.search(r"\bs >> \d+", src)
    assert len(re.findall(r"^ +r = s & 0x[0-9a-f]+$", src, re.M)) == 1


def test_kernel_repeats_no_operand(monkeypatch):
    """No `and` or `or` in the chained-servers kernel repeats an operand:
    its bridge guards bind only what they read."""
    src = _kernel_source(monkeypatch, _chained_servers())
    junctions = [node for node in ast.walk(ast.parse(src))
                 if isinstance(node, ast.BoolOp)]
    assert any(isinstance(node.op, ast.Or) for node in junctions)
    for node in junctions:
        operands = [ast.dump(v) for v in node.values]
        assert len(set(operands)) == len(operands), ast.unparse(node)


def test_engine_matches_oracle_on_random_models():
    rng = random.Random(20261018)
    for i in range(40):
        model = random_model(rng, i)
        _assert_engine_matches_oracle(model, RANDOM_BOUNDS, model.properties)


def _model(name, constants, state_vars, *steps, invariant="true"):
    """A model of these variables, (name, sort, init) each, and steps,
    (id, params, guard, (var, keys, rhs), ...) each."""
    return ir.ProtocolModel(
        name=name, snapshot="2025-01", constants=constants,
        state_vars=tuple(ir.StateVarDecl(n, sort, init)
                         for n, sort, init in state_vars),
        transitions=tuple(ir.Transition(
            tid, "Protocol", "sys", params, E.parse(guard),
            tuple((ir.UpdateTarget(v, tuple(E.parse(k) for k in keys)),
                   E.parse(rhs)) for v, keys, rhs in updates),
            "MAY", (ir.SourceRef("test", name),))
            for tid, params, guard, *updates in steps),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse(invariant)),))


def _write_only_flag_model():
    """x counts to 2 and Reset starts it again; `flag` starts true, Reset
    clears it and Set sets it, and no step reads it."""
    return _model(
        "flag", (), (("x", ir.CounterSort(2), ir.InitExpr(E.parse("0"))),
                     ("flag", ir.BoolSort(), ir.InitExpr(E.parse("true")))),
        ("Inc", (), "x # 2", ("x", (), "x + 1")),
        ("Reset", (), "x = 2", ("x", (), "0"), ("flag", (), "false")),
        ("Set", (), "true", ("flag", (), "true")))


def test_states_of_one_key_that_differ_in_a_write_only_flag():
    """Set stores a field no step reads, so (x, true) and (x, false)
    share a key. The first of them, where Set is a self-loop, fills the
    memo; the second is expanded from it and still gets every post-state
    with multiplicity, Set's new state included; the search is the
    one-state-at-a-time reference."""
    model = _write_only_flag_model()
    eng = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    parents = {eng.start: None}
    for _ in checker._bfs(eng, parents):
        pass
    assert len(parents) == 6 and len(eng.memo) == 3
    for s in parents:
        posts = []
        eng.expand([s], NeverSeen(), posts)
        x, flag = eng.canonical(s)
        want = [(x + 1, flag)] if x < 2 else [(0, False)]  # Inc, Reset
        want.append((x, True))  # Set
        assert [eng.canonical(n) for n in posts] == want
    _assert_engine_matches_oracle(model, checker.DEFAULT_BOUNDS,
                                  model.properties)
    _assert_bfs_matches_reference(model, checker.DEFAULT_BOUNDS)


def _keyed_model():
    """Stores through a run-time key into a map no step reads (`m`), a
    guard reading a map through a run-time key (`n[sel]`), and a
    whole-map copy (`o := n`)."""
    flags = ir.MapSort("Dom", ir.BoolSort())
    x = ("x", "Dom")
    return _model(
        "keyed", (("Dom", ("a", "b")),),
        (("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
         ("m", flags, ir.InitAll(E.parse("false"))),
         ("n", flags, ir.InitAll(E.parse("false"))),
         ("o", flags, ir.InitAll(E.parse("false"))),
         ("flag", ir.BoolSort(), ir.InitExpr(E.parse("false")))),
        ("Pick", (x,), "sel # x", ("sel", (), "x")),
        ("Mark", (), "true", ("m", ("sel",), "true")),
        ("Fill", (x,), "true", ("n", ("x",), "true")),
        ("Read", (), "n[sel] = false", ("flag", (), "not flag")),
        ("Copy", (), "flag", ("o", (), "n")))


def test_keyed_stores_and_run_time_reads_match_the_reference():
    """The key covers the whole map stored or read through a run-time
    key: on the keyed model the search is the one-state-at-a-time
    reference, and every state's post-states are the oracle's with
    multiplicity, though the memo holds fewer keys than states."""
    model = _keyed_model()
    _assert_bfs_matches_reference(model, checker.DEFAULT_BOUNDS)
    states = _assert_engine_matches_oracle(model, checker.DEFAULT_BOUNDS,
                                           model.properties)
    eng = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    parents = {eng.start: None}
    for _ in checker._bfs(eng, parents):
        pass
    assert len(parents) == states and len(eng.memo) < states


def _raising_model():
    """With Dom capped to {a}, Mark raises once Flip has set sel to b."""
    return _model(
        "raises", (("Dom", ("a", "b")),),
        (("k", ir.CounterSort(3), ir.InitExpr(E.parse("0"))),
         ("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
         ("m", ir.MapSort("Dom", ir.BoolSort()),
          ir.InitAll(E.parse("false")))),
        ("Tick", (), "k # 3", ("k", (), "k + 1")),
        ("Flip", (), "k = 2", ("sel", (), "b")),
        ("Mark", (), "m[sel] = false", ("m", ("sel",), "true")))


def test_a_raising_key_raises_again_on_a_shared_engine():
    """A step that raises stores nothing in the memo: a second search on
    one engine yields the same states, level by level, and ends with the
    same error, as a search on a fresh engine does."""
    model = _raising_model()
    bounds = checker.DEFAULT_BOUNDS.with_caps(dom=1)

    def search(eng):
        parents, levels = {eng.start: None}, []
        with pytest.raises(E.ExprTypeError) as exc:
            for level in checker._bfs(eng, parents):
                levels.append([eng.canonical(s) for s in level])
        return levels, str(exc.value), list(parents)

    eng = checker._Engine(checker.instance(model, bounds))
    first = search(eng)
    assert first[1] == "index 'b' outside map key domain"
    assert search(eng) == first == search(
        checker._Engine(checker.instance(model, bounds)))
    prop = model.properties[0]
    assert checker.check_all(model, [prop, replace(prop, id="INV2")],
                             bounds) == {
        pid: checker.CheckResult(f"ERROR: {first[1]}", 0)
        for pid in ("INV", "INV2")}


def test_check_all_on_a_shared_engine_equals_fresh_checks(
        composition_runs):
    """Each composition's properties, searched in turn on one engine and
    so on one memo, get what a fresh engine per property gives."""
    for composed, props, results in composition_runs.values():
        for prop in props:
            assert checker.check(composed, prop) == results[prop.id], \
                (composed.name, prop.id)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("chained-servers",))
def test_reachable_states_stay_narrow(name):
    """With the stored fields packed from bit 0, every reachable state
    of a builtin is below 2^30, and every one of chained-servers' below
    2^40 (76 bits wide were its states when packed in declaration
    order), so Python hashes each state as its own value."""
    eng = checker._Engine(checker.instance(_bundled_model(name),
                                           checker.DEFAULT_BOUNDS))
    parents = {eng.start: None}
    for _ in checker._bfs(eng, parents):
        pass
    assert max(parents) < (2**30 if name in BUILTIN_NAMES else 2**40)


def _twin_model():
    """IncA and IncB have one effect, counting x to 2, and Reset starts
    it again, clearing `flag`, which Set sets and no step reads."""
    return _model(
        "twins", (),
        (("x", ir.CounterSort(2), ir.InitExpr(E.parse("0"))),
         ("flag", ir.BoolSort(), ir.InitExpr(E.parse("true")))),
        ("IncA", (), "x # 2", ("x", (), "x + 1")),
        ("IncB", (), "x # 2", ("x", (), "x + 1")),
        ("Reset", (), "x = 2", ("x", (), "0"), ("flag", (), "false")),
        ("Set", (), "true", ("flag", (), "true")))


def test_steps_of_one_effect_record_one_delta():
    """The memo records each distinct delta of a key once: IncA's and
    IncB's is one, so every key holds two deltas (Inc's or Reset's, and
    Set's), and a state of a key in the memo gets each post-state once.
    The search is still the one-state-at-a-time reference, in order and
    parents, in which IncB reaches no state IncA has not."""
    model = _twin_model()
    eng = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    parents = {eng.start: None}
    for _ in checker._bfs(eng, parents):
        pass
    assert len(parents) == 6
    assert [len(d) for d in eng.memo.values()] == [2, 2, 2]
    for s in parents:
        posts = []
        eng.expand([s], NeverSeen(), posts)
        assert len(posts) == len(set(posts)) == 2
    _assert_bfs_matches_reference(model, checker.DEFAULT_BOUNDS)
    _assert_engine_matches_oracle(model, checker.DEFAULT_BOUNDS,
                                  model.properties)


# per composition: distinct reachable states and memo keys at
# DEFAULT_BOUNDS
MEMO_KEYS = {"tool-delegation": (154274, 5734),
             "chained-servers": (65090, 527),
             "tool-capability": (208636, 2777),
             "delegation-capability": (71774, 3447),
             "federated-delegation": (82504, 654)}


@pytest.mark.parametrize("name", MEMO_KEYS)
def test_composition_states_and_memo_keys(name):
    """Each composition's search of the whole model reaches its states
    with this many memo keys: the key holds only the fields the steps
    read (`compiled.read_mask`), so a wider one shows here as more
    keys."""
    eng = checker._Engine(checker.instance(_bundled_model(name),
                                           checker.DEFAULT_BOUNDS))
    parents = {eng.start: None}
    for _ in checker._bfs(eng, parents):
        pass
    assert (len(parents), len(eng.memo)) == MEMO_KEYS[name]


def test_memo_key_covers_every_field_the_steps_read(monkeypatch):
    """Every masked field read `(s & M)` in a bundled kernel's step code
    lies within the key mask R that the footprints give; the keyed
    model's R also holds the whole of each map read or stored through a
    run-time key (`m`, `n`), though no step reads `m`'s fields."""
    def key_mask(model):
        src = _kernel_source(monkeypatch, model)
        monkeypatch.undo()
        reads = int(re.search(r"^ +r = s & (0x[0-9a-f]+)$", src, re.M)[1], 16)
        steps = src.split("rec = d.append\n", 1)[1]
        masks = [int(m, 16) for m in _READ.findall(steps)]
        assert masks and all(m & ~reads == 0 for m in masks), model.name
        return reads

    for name in BUILTIN_NAMES + _COMPOSITIONS:
        key_mask(_bundled_model(name))
    model = _keyed_model()
    env = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS)).env
    whole = {n: v[0] for n, v in zip(model.var_names, env["_vars"])}
    assert key_mask(model) == \
        whole["sel"] | whole["m"] | whole["n"] | whole["flag"]


def _reference_bfs(eng):
    """(states, depths, parents) of the BFS, as state vectors, one state
    at a time: each post-state comes from `checker._apply` over
    `eng.pairs` in order, and the first (pre, step) to reach a state is
    its parent. states lists the states in discovery order, the initial
    one first, and depths their BFS depths."""
    start = eng.canonical(eng.start)
    states, depths, parents = [start], [0], {start: None}
    for pre, depth in zip(states, depths):  # both grow as BFS goes
        for t, binding in eng.pairs:
            post = checker._apply(eng.inst, t, binding, pre)
            if post is not None and post not in parents:
                parents[post] = pre
                states.append(post)
                depths.append(depth + 1)
    return states, depths, parents


def _reference_result(depths, bad, bounds):
    """(verdict, states_explored, depth) of a search of the reference
    states in order, with these depths, of which the one at index bad
    (None: none) is the first to violate the property. The budget stops
    the search at the first state past max_states (the initial state
    counts, and is always searched), the depth bound before the first
    state deeper than max_depth, or after the last if it is that deep."""
    for i, depth in enumerate(depths):
        if depth > bounds.max_depth:
            return ("BOUND_EXHAUSTED", i, None)
        if i >= max(bounds.max_states, 1):
            return ("BOUND_EXHAUSTED", i + 1, None)
        if i == bad:
            return ("FAIL", i + 1, depth)
    if depths[-1] >= bounds.max_depth:
        return ("BOUND_EXHAUSTED", len(depths), None)
    return ("PASS", len(depths), None)


def _result(res):
    cx = res.counterexample
    return (res.verdict, res.states_explored, cx.depth if cx else None)


def _assert_bfs_matches_reference(model, bounds):
    """`checker._bfs` hands out the reference's states in its order, and
    builds its parents."""
    eng = checker._Engine(checker.instance(model, bounds))
    parents = {eng.start: None}
    got = [eng.start] + [s for level in checker._bfs(eng, parents)
                         for s in level]
    states, _, ref_parents = _reference_bfs(eng)
    assert [eng.canonical(s) for s in got] == states
    assert {eng.canonical(s): None if pre is None else eng.canonical(pre)
            for s, pre in parents.items()} == ref_parents
    assert list(parents) == got


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("updates",))
def test_bfs_order_and_parents_match_one_state_at_a_time(name):
    """The level kernel reaches states in the order of a BFS that
    expands one state and one step at a time, and records the same first
    (pre, step) as each state's parent."""
    model = _update_model() if name == "updates" else builtin(name)
    _assert_bfs_matches_reference(model, checker.DEFAULT_BOUNDS)


def test_bfs_order_and_parents_match_on_random_models():
    rng = random.Random(20261020)
    for i in range(50):
        _assert_bfs_matches_reference(random_model(rng, i), RANDOM_BOUNDS)


def _reference_bad(eng, states, prop):
    """The index of the first of the reference states that violates the
    property, or None."""
    return next((i for i, v in enumerate(states) if not E.evaluate_bool(
        prop.invariant, dict(zip(eng.slots, v)), eng.inst.constants,
        eng.inst.atoms)),
        None)


@pytest.mark.parametrize("name", ["a2a", "mcp"])
def test_state_budget_edges_match_the_reference(name):
    """For every budget from 1 to 60 states, each property's verdict,
    explored-state count and counterexample depth are those of the
    reference search over the transitions its slice keeps, or, where
    that search is cut off, of the reference search of the whole
    model."""
    model = builtin(name)
    kept = checker._slices(checker.instance(model, checker.DEFAULT_BOUNDS),
                           model.properties)
    assert any(len(ids) < len(model.transitions) for ids in kept)
    refs = {}  # kept ids, None for all -> (depths, {property: first bad})
    for ids in {*kept, None}:
        eng = checker._Engine(
            checker.instance(model, checker.DEFAULT_BOUNDS), ids)
        states, depths, _ = _reference_bfs(eng)
        refs[ids] = depths, {p.id: _reference_bad(eng, states, p)
                             for p in model.properties}
    for budget in range(1, 61):
        bounds = replace(checker.DEFAULT_BOUNDS, max_states=budget)
        results = checker.check_all(model, model.properties, bounds)
        for prop, ids in zip(model.properties, kept):
            want = _reference_result(refs[ids][0], refs[ids][1][prop.id],
                                     bounds)
            if want[0] == "BOUND_EXHAUSTED":
                want = _reference_result(refs[None][0],
                                         refs[None][1][prop.id], bounds)
            assert _result(results[prop.id]) == want, (budget, prop.id)


@pytest.mark.parametrize("bound, states", [
    ({"max_states": 1}, 2), ({"max_states": 10}, 11),
    ({"max_states": 1000}, 1001), ({"max_depth": 1}, 10),
    ({"max_depth": 2}, 60), ({"max_depth": 3}, 280)])
def test_federated_delegation_bound_counts(bound, states):
    """CS_DomainIsolation on federated-delegation, searched in the whole
    model and cut off by each bound, reports the states it reached: one
    past the budget, or every state through the depth bound. Past the
    budget the kernel stops, so the search holds at most one state's
    post-states more than the budget. No transition writes into the
    property's cone, so `check` decides it at the initial state."""
    model = _bundled_model("federated-delegation")
    prop, = (p for p in compose.cs_properties(model, "federated-delegation")
             if p.id == "CS_DomainIsolation")
    bounds = replace(checker.DEFAULT_BOUNDS, **bound)
    assert _result(whole_check_all(model, [prop], bounds)[prop.id]) == (
        "BOUND_EXHAUSTED", states, None)
    assert _result(checker.check(model, prop, bounds)) == ("PASS", 1, None)
    eng = checker._Engine(checker.instance(model, bounds))
    parents = {eng.start: None}
    with pytest.raises(checker.StateOverflowError) as exc:
        for _ in checker._bfs(eng, parents):
            pass
    assert exc.value.states == states
    if "max_states" in bound:
        last = parents[next(reversed(parents))]  # the state expanded last
        posts = []
        eng.expand([last], NeverSeen(), posts)
        assert bounds.max_states < len(parents) <= \
            bounds.max_states + len(set(posts))


if __name__ == "__main__":
    runs = _composition_runs()
    for path, check_all in ((GOLDEN, whole_check_all),
                            (SLICED_GOLDEN, checker.check_all)):
        doc = {"per_protocol": per_protocol_rows(check_all),
               "composed": composed_rows(runs, check_all)}
        path.write_text(json.dumps(doc, indent=2) + "\n")
