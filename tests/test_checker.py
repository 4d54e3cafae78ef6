"""Bounded model checker: verdicts, minimality, determinism, trace tools."""

import json
import random
import re
from pathlib import Path

import pytest

from agentconform import checker, expr as E, ir, report, tla
from agentconform import compiled as C
from agentconform.builtins import builtin
from agentconform.record import replace

from _oracle import oracle_check

GOLDEN = Path(__file__).parent / "golden"


class NeverSeen(dict):
    """A `seen` map for the kernel that holds no state: `expand` hands
    out every post-state it computes, duplicates included, or, for a
    state whose memo key it has seen, one per distinct delta."""

    def __contains__(self, state):
        return False


def test_mcp_p8_minimal_counterexample():
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    assert res.verdict == "FAIL"
    cx = res.counterexample
    assert cx.depth == 2
    assert [s.transition_id for s in cx.steps] == \
        ["OpenSession", "CloseSession"]
    assert checker.validate_trace(model, cx)


def test_counterexample_depth_matches_oracle():
    model = builtin("mcp")
    prop = model.property_by_id("P8_CredRevocation")
    verdict, depth = oracle_check(model, prop)
    assert verdict == "FAIL" and depth == 2


def test_pass_requires_exhaustion():
    model = builtin("acp-cap")
    prop = model.property_by_id("P8_CredRevocation")
    res = checker.check(model, prop)
    assert res.verdict == "PASS"
    shallow = replace(checker.DEFAULT_BOUNDS, max_depth=1)
    assert checker.check(model, prop, shallow).verdict == "BOUND_EXHAUSTED"


def test_state_budget_reported():
    model = builtin("a2a")
    tiny = replace(checker.DEFAULT_BOUNDS, max_states=5)
    res = checker.check(model,
                        model.property_by_id("P2_CapabilityAttestation"),
                        tiny)
    assert res.verdict in ("FAIL", "BOUND_EXHAUSTED")


def test_check_all_matches_individual_checks():
    model = builtin("a2a")
    combined = checker.check_all(model, model.properties)
    for prop in model.properties:
        single = checker.check(model, prop)
        assert combined[prop.id] == single, prop.id


def test_worker_determinism():
    model = builtin("a2a")
    base = checker.check_all(model, model.properties)
    for _ in range(2):
        assert checker.check_all(model, model.properties) == base


def test_unbound_invariant_is_error_verdict():
    """The engine refuses an ill-sorted invariant with its finding."""
    model = builtin("a2a")
    prop = ir.Property("BAD", "P0", "aasm-hardening", E.parse("nosuch = true"))
    res = checker.check(model, prop)
    assert res.verdict == ("ERROR: sort-mismatch in BAD: invariant "
                           "`nosuch = true`: unknown name 'nosuch'")
    assert checker.check_all(model, [prop])["BAD"] == res
    assert report.triage(res, "NOT_RUN", prop) == "model-fail"


def _with_first_transition(model, **changes):
    """The model with its first transition (by id) changed."""
    first = min(model.transitions, key=lambda t: t.id)
    changed = replace(
        first, **{k: f(first) for k, f in changes.items()})
    return replace(model, transitions=tuple(
        changed if t is first else t for t in model.transitions))


@pytest.mark.parametrize("change, finding", [
    ({"guard": lambda t: E.parse("nosuch = true")},
     "guard `nosuch = true`: unknown name 'nosuch'"),
    ({"updates": lambda t: t.updates + (
        (ir.UpdateTarget("executed", ()), E.parse("nosuch")),)},
     "update `executed := nosuch`: unknown name 'nosuch'"),
], ids=["guard", "update"])
def test_unbound_transition_is_error_verdict(change, finding):
    """The engine refuses a model with an ill-sorted transition: every
    property is ERROR, naming the finding, as a per-property check
    reports it."""
    model = _with_first_transition(builtin("mcp"), **change)
    error = checker.CheckResult(
        f"ERROR: sort-mismatch in CallTool: {finding}", 0)
    assert checker.check(
        model, model.property_by_id("P8_CredRevocation")) == error
    results = checker.check_all(model, model.properties)
    assert results == {p.id: checker.check(model, p)
                       for p in model.properties}
    assert results["P8_CredRevocation"] == error


def test_domain_caps_truncate():
    model = builtin("a2a")
    capped = checker.DEFAULT_BOUNDS.with_caps(tasks=1, agentid=1)
    n_small = checker.enumerate_states(model, capped)
    n_full = checker.enumerate_states(model)
    assert 0 < n_small < n_full


def test_a_cap_that_drops_a_stored_atom_is_refused_by_both_backends():
    """acp-client's fs_write stores at `executed[op_write]`; ops=1 keeps
    only op_read. The checker used to fail with a bare KeyError (and find
    P4 and P5 before the step raised), and the TLA+ module stored at a key
    outside `Ops`, which EXCEPT skips. Both now refuse the cap, and so
    does the trace validator, which read such a trace as not valid."""
    model = builtin("acp-client")
    bounds = checker.DEFAULT_BOUNDS.with_caps(ops=1)
    message = ("cap ops=1 drops atom 'op_write', which transition fs_write "
               "stores at: update `executed[op_write] := true`")
    assert checker.check_all(model, model.properties, bounds) == {
        p.id: checker.CheckResult("ERROR: " + message, 0)
        for p in model.properties}
    with pytest.raises(ir.IrError, match=re.escape(message)):
        checker.enumerate_states(model, bounds)
    with pytest.raises(ir.IrError, match=re.escape(message)):
        tla.emit_artifact(model, bounds)
    cx = next(r.counterexample for r in checker.check_all(
        model, model.properties).values() if r.failed)
    assert checker.validate_trace(model, cx)
    with pytest.raises(ir.IrError, match=re.escape(message)):
        checker.validate_trace(model, cx, bounds=bounds)
    # a cap that keeps every stored atom is accepted by both
    kept = checker.DEFAULT_BOUNDS.with_caps(agents=1, caps=1)
    assert checker.check(model, model.properties[0], kept).verdict in \
        ("PASS", "FAIL")
    tla.emit_artifact(model, kept)


@pytest.mark.parametrize("limit", [{"max_states": 5}, {"max_depth": 1}])
def test_enumerate_overflow_raises(limit):
    bounds = replace(checker.DEFAULT_BOUNDS, **limit)
    with pytest.raises(checker.StateOverflowError):
        checker.enumerate_states(builtin("a2a"), bounds)


def test_counterexample_export_import_round_trip():
    cells = json.loads((GOLDEN / "matrix.json").read_text())["cells"]
    fails = [(c["protocol"], c["principle"]) for c in cells
             if c["model_verdict"] == "FAIL" and c["principle"] != "CS"]
    assert fails
    for name, principle in fails:
        model = builtin(name)
        prop = report._cell_property(model, principle)
        res = checker.check(model, prop)
        text = checker.export_counterexample(model, res.counterexample)
        again = checker.import_counterexample(model, text)
        assert again == res.counterexample, (name, principle)
        assert checker.validate_trace(model, again, prop)


def test_import_rejects_unknown_action():
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    doc = json.loads(checker.export_counterexample(model, res.counterexample))
    doc["steps"][0]["action"] = "NoSuchAction"
    with pytest.raises(checker.CheckError):
        checker.import_counterexample(model, json.dumps(doc))


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc["steps"][0]["params"].clear(),
     "step 1 (OpenSession) lacks parameter 's'"),
    (lambda doc: doc["steps"][1]["state"].pop("credentials"),
     "step 2 (CloseSession) state lacks variable 'credentials'"),
    (lambda doc: doc["initial"].pop("credentials"),
     "initial state lacks variable 'credentials'"),
    (lambda doc: doc.pop("steps"), "counterexample lacks 'steps'"),
    (lambda doc: doc.pop("initial"), "counterexample lacks 'initial'"),
    (lambda doc: doc.pop("property"), "counterexample lacks 'property'"),
    (lambda doc: doc.pop("depth"), "counterexample lacks 'depth'"),
    (lambda doc: doc["steps"][1].pop("action"), "step 2 lacks 'action'"),
    (lambda doc: doc["steps"][0].pop("params"), "step 1 lacks 'params'"),
    (lambda doc: doc["steps"][1].pop("state"), "step 2 lacks 'state'"),
    (lambda doc: doc.update(depth=7), "depth 7 does not count the 2 steps"),
    (lambda doc: doc["steps"][0].update(params=["s1"]),
     "a step's params are not a JSON object"),
    (lambda doc: doc["initial"].update(msg_count=[1]),
     "initial state holds a bad value"),
    # a value of another JSON type than its sort's is refused, not coerced
    (lambda doc: doc["initial"].update(error_raised=0),
     "initial state holds a bad value: 0 is no BOOL value"),
    (lambda doc: doc["steps"][0]["state"].update(prompt_tainted="false"),
     'step 1 (OpenSession) state holds a bad value: "false" is no BOOL '
     'value'),
    (lambda doc: doc["initial"].update(audit_count=0.5),
     "initial state holds a bad value: 0.5 is no COUNTER(3) value"),
    (lambda doc: doc["initial"].update(msg_count=True),
     "initial state holds a bad value: true is no COUNTER(3) value"),
    (lambda doc: doc["initial"].update(error_mode=1),
     "initial state holds a bad value: 1 is no ENUM[RESTRICTIVE, "
     "PERMISSIVE] value"),
    (lambda doc: doc["initial"].update(original_caps={"a1": "c1"}),
     'initial state holds a bad value: "c1" is no SET(Caps) value'),
    (lambda doc: doc["initial"].update(original_caps={"a1": ["c1", 2]}),
     'initial state holds a bad value: ["c1", 2] is no SET(Caps) value'),
    (lambda doc: doc["initial"].update(executed=["op_tool"]),
     'initial state holds a bad value: ["op_tool"] is no MAP(Ops -> BOOL) '
     'value'),
], ids=["step-params", "step-state", "initial-state", "steps", "initial",
        "property", "depth", "step-action", "step-params-key",
        "step-state-key", "wrong-depth", "params-list", "bad-value",
        "bool-int", "bool-string", "counter-float", "counter-bool",
        "enum-int", "set-string", "set-int", "map-list"])
def test_import_rejects_missing_keys(tamper, message):
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    doc = json.loads(checker.export_counterexample(model, res.counterexample))
    tamper(doc)
    with pytest.raises(checker.CheckError, match=re.escape(message)):
        checker.import_counterexample(model, json.dumps(doc))


def test_import_rejects_wrong_model():
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    text = checker.export_counterexample(model, res.counterexample)
    with pytest.raises(checker.CheckError):
        checker.import_counterexample(builtin("a2a"), text)


def test_validate_trace_rejects_tampering():
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    cx = res.counterexample
    broken = replace(cx, steps=cx.steps[:1])
    assert not checker.validate_trace(model, broken)


def test_validate_trace_rejects_states_and_bindings_of_no_model_run():
    model = builtin("mcp")
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    cx = res.counterexample
    names = model.var_names
    # a map whose key set differs from the model's
    initial = list(cx.initial)
    i = names.index("session_state")
    initial[i] = E.FMap.of({"s1": "NONE"})
    assert not checker.validate_trace(
        model, replace(cx, initial=tuple(initial)))
    # a value of another kind than the variable's: not the initial state
    initial = list(cx.initial)
    initial[names.index("msg_count")] = True
    assert not checker.validate_trace(
        model, replace(cx, initial=tuple(initial)))
    # a binding that does not bind the transition's parameter
    first = replace(cx.steps[0], binding=(("t", "s1"),))
    assert not checker.validate_trace(
        model, replace(cx, steps=(first,) + cx.steps[1:]))


def test_validate_trace_rejects_a_trace_not_starting_in_init():
    """The counterexample started in its first post-state: a run of the
    model's steps, but not from the model's initial state."""
    model = builtin("mcp")
    cx = checker.check(
        model, model.property_by_id("P8_CredRevocation")).counterexample
    shifted = replace(cx, initial=cx.steps[0].post_state,
                                  steps=cx.steps[1:], depth=cx.depth - 1)
    assert shifted.depth == 1
    assert checker.validate_trace(model, shifted) is False


def test_validate_trace_accepts_a_self_loop_step():
    """The search skips a step that only stores constants the state
    already holds, but a trace may still take it: `_apply` runs it."""
    def step(tid, guard, var, rhs):
        return ir.Transition(
            tid, "Protocol", "sys", (), E.parse(guard),
            ((ir.UpdateTarget(var, ()), E.parse(rhs)),), "MAY",
            (ir.SourceRef("test", "self-loop"),))
    model = ir.ProtocolModel(
        name="loop", snapshot="2025-01", constants=(),
        state_vars=(
            ir.StateVarDecl("on", ir.BoolSort(), ir.InitExpr(E.parse("true"))),
            ir.StateVarDecl("bad", ir.BoolSort(),
                            ir.InitExpr(E.parse("false"))),
        ),
        transitions=(step("Keep", "true", "on", "true"),
                     step("Break", "on", "bad", "true")),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("not bad")),))
    eng = checker._Engine(checker.instance(model, checker.DEFAULT_BOUNDS))
    posts = []
    eng.expand([eng.start], NeverSeen(), posts)
    assert [eng.canonical(s) for s in posts] == [(True, True)]
    start = eng.canonical(eng.start)
    assert checker._apply(eng.inst, model.transition("Keep"), (),
                          start) == start == (True, False)
    res = checker.check(model, model.properties[0])
    assert [s.transition_id for s in res.counterexample.steps] == ["Break"]
    keep = checker.TraceStep("Keep", (), res.counterexample.initial)
    looped = replace(res.counterexample, depth=2,
                                 steps=(keep,) + res.counterexample.steps)
    assert checker.validate_trace(model, looped)


def test_validate_trace_compiles_nothing(monkeypatch):
    """`validate_trace` replays with the reference evaluator: the bundled
    TLC logs' counterexamples validate while compiled code cannot be
    defined."""
    def refuse(*args):
        raise AssertionError("compiled code defined")
    monkeypatch.setattr(C, "_define", refuse)
    validated = 0
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.log")):
        model = builtin(path.stem.split("_", 1)[0])
        parse = tla.parse_tlc_output(path.read_text())
        if parse.violated:
            cx = tla.to_counterexample(parse, model)
            assert checker.validate_trace(model, cx), path.name
            broken = replace(cx, steps=cx.steps[:-1],
                                         depth=cx.depth - 1)
            assert not checker.validate_trace(model, broken), path.name
            validated += 1
    assert validated >= 5
    model = builtin("mcp")  # the search does need compiled code
    assert checker.check(model, model.properties[0]).verdict == \
        "ERROR: compiled code defined"


def test_steps_before_a_raising_step_are_searched_first():
    """In a state where a later step's guard raises, the post-states of
    the steps before it are still checked, so a violation among them is a
    FAIL; a search that reaches the raise is an ERROR. The model is
    well-sorted; the raise comes from the bounded instance, whose Dom
    keeps only a, while sel starts at z."""
    flags = ir.MapSort("Dom", ir.BoolSort())
    model = ir.ProtocolModel(
        name="raises", snapshot="2025-01",
        constants=(("Dom", ("a", "z")),),
        state_vars=(
            ir.StateVarDecl("flags", flags, ir.InitAll(E.parse("false"))),
            ir.StateVarDecl("sel", ir.EnumSort(("a", "z")),
                            ir.InitExpr(E.parse("z"))),
            ir.StateVarDecl("bad", ir.BoolSort(),
                            ir.InitExpr(E.parse("false"))),
        ),
        transitions=tuple(ir.Transition(
            tid, "Protocol", "sys", (), E.parse(guard),
            ((ir.UpdateTarget("bad", ()), E.parse("true")),), "MAY",
            (ir.SourceRef("test", "raises"),))
            for tid, guard in (("Go", "true"), ("Peek", "flags[sel]"))),
        properties=(ir.Property("INV", "P0", "aasm-hardening",
                                E.parse("not bad")),
                    ir.Property("TRUE", "P0", "aasm-hardening",
                                E.parse("true"))))
    assert ir.validate(model).ok
    bounds = checker.DEFAULT_BOUNDS.with_caps(dom=1)
    results = checker.check_all(model, model.properties, bounds)
    assert results["INV"].verdict == "FAIL"
    assert results["INV"].counterexample.depth == 1
    assert results["TRUE"].verdict == \
        "ERROR: index 'z' outside map key domain"
    with pytest.raises(E.ExprTypeError, match="outside map key domain"):
        checker.enumerate_states(model, bounds)
    assert checker.enumerate_states(model) == 2


# ---------------------------------------------------------------------------
# Randomized models for checker/oracle agreement (shared with acceptance)

def random_model(rng: random.Random, index: int) -> ir.ProtocolModel:
    """Small well-sorted model: <=4 vars, <=5 transitions, domains <=3."""
    n_atoms = rng.randint(1, 3)
    atoms = tuple(f"d{i}" for i in range(n_atoms))
    constants = (("Dom", atoms),)

    var_pool = [
        ("b0", ir.BoolSort(), ir.InitExpr(E.parse("false"))),
        ("b1", ir.BoolSort(), ir.InitExpr(E.parse("true"))),
        ("k0", ir.CounterSort(2), ir.InitExpr(E.parse("0"))),
        ("m0", ir.MapSort("Dom", ir.BoolSort()), ir.InitAll(E.parse("false"))),
        ("s0", ir.SetSort("Dom"), ir.InitExpr(E.parse("{}"))),
        ("e0", ir.EnumSort(("A", "B")), ir.InitExpr(E.parse("A"))),
    ]
    rng.shuffle(var_pool)
    chosen = var_pool[:rng.randint(2, 4)]
    state_vars = tuple(ir.StateVarDecl(n, s, i) for n, s, i in chosen)
    names = {n for n, _, _ in chosen}

    guards = ["true"]
    updates = []
    if "b0" in names:
        guards += ["b0 = false", "not b0"]
        updates += [("b0", (), "true"), ("b0", (), "not b0")]
    if "b1" in names:
        guards += ["b1 = true"]
        updates += [("b1", (), "false")]
    if "k0" in names:
        guards += ["k0 <= 1", "k0 = 0"]
        updates += [("k0", (), "k0 + 1")]
    if "m0" in names:
        guards += ["m0[x] = false"]
        updates += [("m0", ("x",), "true")]
    if "s0" in names:
        guards += ["x notin s0"]
        updates += [("s0", (), "s0 union {x}")]
    if "e0" in names:
        guards += ["e0 = A"]
        updates += [("e0", (), "B")]

    transitions = []
    for i in range(rng.randint(1, 5)):
        guard = rng.choice(guards)
        n_upd = rng.randint(1, min(2, len(updates)))
        upds = rng.sample(updates, n_upd)
        needs_param = "x" in guard or any("x" in u[2] or u[1]
                                          for u in upds)
        transitions.append(ir.Transition(
            id=f"T{i}",
            kind="Protocol",
            actor="sys",
            params=(("x", "Dom"),) if needs_param else (),
            guard=E.parse(guard),
            updates=tuple(
                (ir.UpdateTarget(v, tuple(E.parse(k) for k in keys)),
                 E.parse(rhs)) for v, keys, rhs in upds),
            modality="MAY",
            source_refs=(ir.SourceRef("gen", "random"),),
        ))

    inv_pool = []
    if "b0" in names:
        inv_pool.append("b0 = false")
    if "b1" in names:
        inv_pool.append("b1 = true")
    if "k0" in names:
        inv_pool.append("k0 <= 1")
    if "m0" in names:
        inv_pool.append("forall x in Dom : m0[x] = false")
    if "s0" in names:
        inv_pool.append("forall x in Dom : x notin s0")
    if "e0" in names:
        inv_pool.append("e0 = A")
    invariant = rng.choice(inv_pool)

    return ir.ProtocolModel(
        name=f"rand{index}",
        snapshot="2025-01",
        constants=constants,
        state_vars=state_vars,
        transitions=tuple(transitions),
        properties=(ir.Property(
            "INV", "P0", "aasm-hardening", E.parse(invariant)),),
        aps=(),
    )


# depth bound exceeds any random model's state count, so both the engine
# and the oracle always exhaust and PASS verdicts are comparable
RANDOM_BOUNDS = replace(
    checker.DEFAULT_BOUNDS, max_depth=500, max_states=200000)


def agreement_run(count: int, seed: int = 20250826):
    """Checker vs oracle over `count` random models; returns mismatches."""
    rng = random.Random(seed)
    mismatches = []
    for i in range(count):
        model = random_model(rng, i)
        prop = model.properties[0]
        res = checker.check(model, prop, RANDOM_BOUNDS)
        verdict, depth = oracle_check(model, prop, RANDOM_BOUNDS)
        got = (res.verdict,
               res.counterexample.depth if res.failed else None)
        if got != (verdict, depth):
            mismatches.append((model.name, got, (verdict, depth)))
        if res.failed:
            assert checker.validate_trace(model, res.counterexample,
                                          bounds=RANDOM_BOUNDS)
    return mismatches


def test_random_agreement_sample():
    assert agreement_run(60) == []
