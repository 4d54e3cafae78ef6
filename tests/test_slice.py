"""Cone-of-influence slicing: footprints, cones, and sliced searches
against searches of the whole model and the oracle on random models."""

import random

from agentconform import checker, compose, ir, report
from agentconform import expr as E
from agentconform.builtins import BUILTIN_NAMES, builtin
from agentconform.record import replace

from _oracle import oracle_check
from _tlc_log import whole_check_all
from test_checker import RANDOM_BOUNDS, random_model
from test_engine import _bundled_model, _model

FLAGS = ir.MapSort("Dom", ir.BoolSort())


def test_footprints_name_what_each_step_reads_and_writes():
    """A guard, a right-hand side and a key each add the accesses they
    make, and each update its store; a key is a literal atom, a
    parameter, a quantified variable, a state variable or another term,
    and a parameter or quantified variable hides a variable of its
    name. The footprints are made once per model object. A cone closes
    the invariant's variables under the reads of their writers."""
    model = _model(
        "prints", (("Dom", ("a", "b")),),
        (("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
         ("m", FLAGS, ir.InitAll(E.parse("false"))),
         ("n", FLAGS, ir.InitAll(E.parse("false"))),
         ("k", ir.CounterSort(2), ir.InitExpr(E.parse("0"))),
         ("on", ir.BoolSort(), ir.InitExpr(E.parse("true")))),
        ("Mark", (("y", "Dom"),), "on and sel = y", ("m", ("y",), "true")),
        ("Copy", (), "forall on in Dom : n[on]", ("m", (), "n"),
         ("k", (), "k + 1")),
        ("Pick", (("sel", "Dom"),), "true", ("n", ("sel",), "true")),
        invariant="forall x in Dom : not m[x]")
    prints = ir.footprints(model)
    y, on, sel = ("param", "y", "Dom"), ("bound", "on", "Dom"), \
        ("param", "sel", "Dom")
    assert prints == (
        ir.Footprint((("on", ()), ("sel", ())), (("m", (y,)),),
                     frozenset({"on", "sel"}), frozenset({"m"})),
        ir.Footprint((("n", (on,)), ("n", ()), ("k", ())),
                     (("m", ()), ("k", ())),
                     frozenset({"n", "k"}), frozenset({"m", "k"})),
        ir.Footprint((), (("n", (sel,)),), frozenset(), frozenset({"n"})))
    assert ir.footprints(model) is prints
    assert ir.footprint(model, E.parse(
        "exists x in Dom : m[sel] or n[a] or n[x] or m[n[x]]")).reads == (
        ("m", (("var", "sel", None),)), ("sel", ()),
        ("n", (("atom", "a", None),)), ("n", (("bound", "x", "Dom"),)),
        ("m", (("opaque", None, None),)))
    assert ir.footprints(replace(model, name="again")) == prints
    def cone(invariant):
        return ir.cone(model, ir.footprint(model, invariant))
    assert cone(model.properties[0].invariant) == \
        frozenset({"m", "on", "sel", "n", "k"})
    assert cone(E.parse("on")) == frozenset({"on"})
    assert cone(E.parse("exists on in Dom : n[on]")) == frozenset({"n"})
    assert checker._slices(checker.instance(model, checker.DEFAULT_BOUNDS), [
        ir.Property("N", "P0", "aasm-hardening", E.parse("n[a]")),
        model.properties[0]]) == [
        frozenset({"Pick"}), frozenset({"Mark", "Copy", "Pick"})]


def test_bundled_slices():
    """No bundled model has a step that can raise at the default bounds,
    so every bundled check searches its slice. 20 of the 22 per-protocol
    PASS cells, and federated-delegation's CS_DomainIsolation, keep no
    transition, and so are decided at the initial state."""
    empty = []
    for name in BUILTIN_NAMES:
        model = builtin(name)
        props = [report._cell_property(model, pr)
                 for pr in report.MATRIX_PRINCIPLES[:-1]]
        results = checker.check_all(model, props)
        for prop, kept in zip(props, checker._slices(
                checker.instance(model, checker.DEFAULT_BOUNDS), props)):
            if not kept:
                empty.append((name, prop.id))
                assert (results[prop.id].verdict,
                        results[prop.id].states_explored) == ("PASS", 1)
    assert len(empty) == 20
    for model in [builtin(n) for n in BUILTIN_NAMES] + [
            compose.compose(a, b, bridge)
            for _, a, b, bridge in compose.builtin_compositions()]:
        inst = checker.instance(model, checker.DEFAULT_BOUNDS)
        assert not any(checker._unkept_keys(
            [a for p in ir.footprints(model) for a in p.reads + p.stores],
            inst.sorts, inst.constants)), model.name
    model = _bundled_model("federated-delegation")
    prop, = (p for p in compose.cs_properties("federated-delegation")
             if p.id == "CS_DomainIsolation")
    assert checker._slices(checker.instance(model, checker.DEFAULT_BOUNDS),
                           [prop]) == [frozenset()]


def test_an_empty_slice_passes_under_any_depth_bound_from_one():
    """mcp's P1 cone has no writer: depth 1 decides it, depth 0 cannot
    (the search of the whole model is cut off too)."""
    model = builtin("mcp")
    prop = model.property_by_id("P1_IdentityVerifiability")
    for depth in (1, 2, 20):
        bounds = replace(checker.DEFAULT_BOUNDS, max_depth=depth)
        assert checker.check(model, prop, bounds) == \
            checker.CheckResult("PASS", 1)
    zero = replace(checker.DEFAULT_BOUNDS, max_depth=0)
    assert checker.check(model, prop, zero) == \
        whole_check_all(model, [prop], zero)[prop.id] == \
        checker.CheckResult("BOUND_EXHAUSTED", 1)


def _wrap_model():
    """x counts to 3 and Wrap starts it again, setting z, which Set also
    sets and no step reads. The cone of `x <= 3` is {x}, so Set is left
    out: the slice needs 7 steps to reach x = 3 with z set, the whole
    model 4."""
    return _model(
        "wrap", (), (("x", ir.CounterSort(3), ir.InitExpr(E.parse("0"))),
                     ("z", ir.BoolSort(), ir.InitExpr(E.parse("false")))),
        ("Inc", (), "x # 3", ("x", (), "x + 1")),
        ("Wrap", (), "x = 3", ("x", (), "0"), ("z", (), "true")),
        ("Set", (), "true", ("z", (), "true")),
        invariant="x <= 3")


def test_a_slice_cut_off_by_a_bound_is_searched_whole():
    """A slice's states carry variables outside its cone, so a bound
    that the whole model's search is exhausted within may cut the
    slice's off; the whole model's verdict is reported then."""
    model = _wrap_model()
    prop = model.properties[0]
    bounds = replace(checker.DEFAULT_BOUNDS, max_depth=5)
    inst = checker.instance(model, bounds)
    kept, = checker._slices(inst, [prop])
    assert kept == frozenset({"Inc", "Wrap"})
    sliced = checker._search(checker._Engine(inst, kept), prop)
    assert sliced.verdict == "BOUND_EXHAUSTED"
    assert checker.check(model, prop, bounds) == \
        whole_check_all(model, [prop], bounds)[prop.id] == \
        checker.CheckResult("PASS", 8)
    assert checker.check(model, prop) == checker.CheckResult("PASS", 8)


def test_keys_that_can_raise_keep_the_search_whole():
    """A map read at a state variable with a value the cap drops, at a
    parameter of another domain whose cap is wider, or at a literal atom
    the cap drops, can raise: a model with such a step is searched whole
    for every property, and a property with such an invariant is
    searched whole."""
    def model_with(guard, params=()):
        return _model(
            "keys", (("Dom", ("a", "b")), ("Other", ("a", "b"))),
            (("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
             ("m", FLAGS, ir.InitAll(E.parse("false"))),
             ("on", ir.BoolSort(), ir.InitExpr(E.parse("false"))),
             ("z", ir.BoolSort(), ir.InitExpr(E.parse("false")))),
            ("Peek", params, guard, ("on", (), "true")),
            ("Mark", (("x", "Dom"),), "true", ("m", ("x",), "true")),
            ("Noise", (), "true", ("z", (), "not z")),
            invariant="not on")
    capped = checker.DEFAULT_BOUNDS.with_caps(dom=1)
    whole = frozenset({"Peek", "Mark", "Noise"})
    kept = frozenset({"Peek", "Mark"})
    cases = [("m[sel]", (), whole), ("m[y]", (("y", "Other"),), whole),
             ("m[b]", (), whole), ("m[a]", (), kept),
             ("m[y]", (("y", "Dom"),), kept)]
    for guard, params, want in cases:
        model = model_with(guard, params)
        assert ir.validate(model).ok
        assert checker._slices(checker.instance(model, capped),
                               model.properties) == [want], guard
    model = model_with("m[a]")
    raising = ir.Property("R", "P0", "aasm-hardening", E.parse("m[b]"))
    assert checker._slices(checker.instance(model, capped), [raising]) == [
        whole]
    assert checker._slices(checker.instance(model, checker.DEFAULT_BOUNDS),
                           [raising]) == [frozenset({"Mark"})]
    assert checker.check(model, raising, capped) == whole_check_all(
        model, [raising], capped)["R"] == checker.CheckResult(
        "ERROR: index 'b' outside map key domain", 0)


def test_an_enum_variable_key_that_the_caps_keep_is_sliced():
    """A map read at a state variable of ENUM sort whose values are all
    atoms the bounds keep cannot raise, so `not m[sel]` is searched in
    its slice, which leaves Noise out and fails at the whole model's
    depth with a trace of the whole model. With Dom capped to {a}, sel's
    value b is dropped and the search stays whole."""
    model = _model(
        "enumkey", (("Dom", ("a", "b")),),
        (("sel", ir.EnumSort(("a", "b")), ir.InitExpr(E.parse("a"))),
         ("m", FLAGS, ir.InitAll(E.parse("false"))),
         ("z", ir.BoolSort(), ir.InitExpr(E.parse("false")))),
        ("Pick", (("x", "Dom"),), "sel # x", ("sel", (), "x")),
        ("Mark", (), "sel = b", ("m", ("sel",), "true")),
        ("Noise", (), "true", ("z", (), "not z")),
        invariant="not m[sel]")
    assert ir.validate(model).ok
    prop = model.properties[0]
    assert checker._slices(checker.instance(model, checker.DEFAULT_BOUNDS),
                           [prop]) == [frozenset({"Pick", "Mark"})]
    capped = checker.DEFAULT_BOUNDS.with_caps(dom=1)
    assert checker._slices(checker.instance(model, capped), [prop]) == [
        frozenset({"Pick", "Mark", "Noise"})]
    res = checker.check(model, prop)
    whole = whole_check_all(model, [prop], checker.DEFAULT_BOUNDS)["INV"]
    assert (res.verdict, _depth(res)) == (whole.verdict, _depth(whole)) \
        == ("FAIL", 2) == oracle_check(model, prop, checker.DEFAULT_BOUNDS)
    assert res.states_explored < whole.states_explored
    assert checker.validate_trace(model, res.counterexample, prop)


# ---------------------------------------------------------------------------
# Sliced searches against the whole model and the oracle

# per variable: a guard false in its initial value, and a store
LATE = {"b0": "b0", "b1": "not b1", "k0": "k0 = 2", "m0": "m0[x]",
        "s0": "x in s0", "e0": "e0 = B"}
STORE = {"b0": ("b0", (), "true"), "b1": ("b1", (), "false"),
         "k0": ("k0", (), "k0 + 1"), "m0": ("m0", ("x",), "true"),
         "s0": ("s0", (), "s0 union {x}"), "e0": ("e0", (), "B")}


def _step(tid, guard, *updates):
    params = (("x", "Dom"),) if "x" in guard or any(
        "x" in rhs or keys for _, keys, rhs in updates) else ()
    return ir.Transition(
        tid, "Protocol", "sys", params, E.parse(guard),
        tuple((ir.UpdateTarget(v, tuple(map(E.parse, keys))), E.parse(rhs))
              for v, keys, rhs in updates),
        "MAY", (ir.SourceRef("gen", "random"),))


def sliceable_model(rng: random.Random, index: int):
    """(model, bounds): a `random_model` with 1-3 gate steps, each
    storing into one variable under a guard on another that its initial
    value makes false, so that a cone must be closed to keep the steps
    that open a gate. Its properties are the random invariant and
    `true`; every other model adds a map `flags` read at the state
    variable `sel`, whose initial value a cap of Dom drops: in a
    property, and in every fourth model in a step too. Every third model
    caps Dom."""
    model = random_model(rng, index)
    atoms = model.constants[0][1]
    names = list(model.var_names)
    steps = list(model.transitions)
    for j in range(rng.randint(1, 3)):
        opens, stores = rng.sample(names, 2)
        steps.append(_step(f"G{j}", LATE[opens], STORE[stores]))
    state_vars = list(model.state_vars)
    props = list(model.properties) + [
        ir.Property("TRUE", "P0", "aasm-hardening", E.parse("true"))]
    if index % 4 >= 2:
        state_vars += [
            ir.StateVarDecl("sel", ir.EnumSort(atoms),
                            ir.InitExpr(E.Name(atoms[-1]))),
            ir.StateVarDecl("flags", FLAGS, ir.InitAll(E.parse("false")))]
        props.append(ir.Property("RAISES", "P0", "aasm-hardening",
                                 E.parse("flags[sel] = false")))
        if index % 4 == 3:
            steps.append(_step("Peek", "flags[sel] = false",
                               ("flags", ("sel",), "true")))
    bounds = RANDOM_BOUNDS
    if index % 3 == 1 and len(atoms) > 1:
        bounds = bounds.with_caps(dom=rng.randint(1, len(atoms) - 1))
    return replace(model, state_vars=tuple(state_vars),
                   transitions=tuple(steps), properties=tuple(props)), bounds


def _depth(res):
    return res.counterexample.depth if res.failed else None


def slicing_mismatches(count: int, seed: int = 20261020) -> list:
    """Sliced `check_all` on `count` sliceable models, each at its bounds,
    at depth bounds 1-3 and at budgets of 1, 3 and 8 states, against the
    search of the whole model (`checker._search` on a whole
    `checker._Engine`) and the oracle: each mismatch found. Where the
    whole search ends in ERROR the results must be equal; where it is
    cut off by a bound the slice may decide; otherwise verdict and depth
    must be equal. Every sliced PASS or FAIL must be the oracle's at the
    same depth bound, and every sliced FAIL trace must validate on the
    whole model."""
    rng = random.Random(seed)
    mismatches = []
    for i in range(count):
        model, base = sliceable_model(rng, i)
        assert ir.validate(model).ok, model.name
        for bounds in [base, *(replace(base, max_depth=d) for d in (1, 2, 3)),
                       *(replace(base, max_states=n) for n in (1, 3, 8))]:
            results = checker.check_all(model, model.properties, bounds)
            whole = whole_check_all(model, model.properties, bounds)
            for prop in model.properties:
                res, want = results[prop.id], whole[prop.id]
                where = (model.name, prop.id, bounds.max_depth,
                         bounds.max_states)
                decided = want.verdict != "BOUND_EXHAUSTED"
                if want.verdict.startswith("ERROR") and res != want \
                        or decided and want.verdict != res.verdict \
                        or want.failed and _depth(res) != _depth(want):
                    mismatches.append((where, res, want))
                if res.verdict not in ("PASS", "FAIL"):
                    continue
                oracle = oracle_check(model, prop, replace(
                    bounds, max_states=RANDOM_BOUNDS.max_states))
                if oracle != (res.verdict, _depth(res)):
                    mismatches.append((where, res, oracle))
                if res.failed and not checker.validate_trace(
                        model, res.counterexample, prop, bounds):
                    mismatches.append((where, "trace", res))
    return mismatches


def test_sliced_searches_match_the_whole_model_and_the_oracle():
    assert slicing_mismatches(60) == []


def test_a_cone_that_is_not_closed_is_caught(monkeypatch):
    """The comparison catches a slice that keeps only the direct writers
    of the invariant's variables."""
    def direct(model, invariant):
        return frozenset(E.free_symbols(invariant) & set(model.var_names))
    monkeypatch.setattr(ir, "cone", direct)
    assert len(slicing_mismatches(60)) >= 5
