"""IR validation and clause coverage."""

import random
import re

import pytest

from agentconform import catalog, checker, ir, irfmt, tla
from agentconform.builtins import BUILTIN_NAMES, builtin, builtin_clauses
from agentconform.record import replace


def test_bundled_models_validate_clean():
    for name in BUILTIN_NAMES:
        assert ir.validate(builtin(name)).ok, name


def test_undeclared_symbol_flagged():
    from agentconform import expr as E
    model = builtin("mcp")
    bad_prop = replace(
        model.properties[0], invariant=E.parse("no_such_var = true"))
    bad = replace(
        model, properties=model.properties[:-1] + (bad_prop,))
    report = ir.validate(bad)
    assert [str(f) for f in report.by_code("sort-mismatch")] == [
        f"sort-mismatch in {bad_prop.id}: invariant `no_such_var = true`: "
        f"unknown name 'no_such_var'"]


def test_one_sort_pass_per_model_object(monkeypatch):
    """ir.validate, check, validate_trace and emit_artifact on a freshly
    parsed model read one sort-inference pass between them, kept in the
    model; a catalog property adds one pass of its own, which the checker
    then reads, and an equal property instantiated again adds none."""
    fresh = {n: irfmt.serialize_model(builtin(n)) for n in ("mcp", "anp")}
    passes, sort_pass = [], ir._sort_pass

    def counted(model, subjects):
        passes.append(tuple(subjects))
        return sort_pass(model, subjects)
    monkeypatch.setattr(ir, "_sort_pass", counted)
    model = irfmt.parse_model(fresh["mcp"])
    assert ir.validate(model).ok
    prop = model.property_by_id("P8_CredRevocation")
    res = checker.check(model, prop)
    assert checker.validate_trace(model, res.counterexample, prop)
    tla.emit_artifact(model)
    assert len(passes) == 1
    model = irfmt.parse_model(fresh["anp"])
    prop = catalog.instantiate_for(model, "P1")
    assert checker.check(model, prop).verdict == "PASS"
    tla.emit_artifact(model)
    again = catalog.instantiate_for(model, "P1")
    assert again is not prop and checker.check(model, again).verdict == "PASS"
    assert passes[1:] == [model.state_vars + model.transitions
                          + model.properties, (prop,)]


def test_one_bounded_instance_per_call(monkeypatch):
    """check, validate_trace and emit_artifact on a freshly parsed model
    each bound the domains once: the one bounded instance they build
    (`checker.instance`) is all their searches, replays and emitted
    module and configurations read."""
    text = irfmt.serialize_model(builtin("mcp"))
    calls, bounded_constants = [], checker.bounded_constants

    def counted(model, bounds):
        calls.append(model.name)
        return bounded_constants(model, bounds)
    monkeypatch.setattr(checker, "bounded_constants", counted)
    model = irfmt.parse_model(text)
    prop = model.property_by_id("P8_CredRevocation")
    res = checker.check(model, prop)
    assert len(calls) == 1
    assert checker.validate_trace(model, res.counterexample, prop)
    assert len(calls) == 2
    tla.emit_artifact(model)
    assert len(calls) == 3

def test_adversary_needs_adv_tag():
    model = builtin("mcp")
    t = model.transition("InjectOutput")
    assert t.kind == "Adversary"
    stripped = replace(t, adv=None)
    bad = replace(
        model, transitions=tuple(
            stripped if x.id == t.id else x for x in model.transitions))
    assert ir.validate(bad).by_code("missing-adv-tag")


def test_protocol_transitions_need_real_provenance():
    model = builtin("mcp")
    t = model.transition("OpenSession")
    blank = replace(t, source_refs=())
    bad = replace(
        model, transitions=tuple(
            blank if x.id == t.id else x for x in model.transitions))
    assert ir.validate(bad).by_code("missing-provenance")


def test_init_sort_mismatch():
    model = builtin("mcp")
    v = model.state_vars[0]
    from agentconform import expr as E
    bad_var = replace(v, init=ir.InitExpr(E.parse("42")))
    bad = replace(
        model, state_vars=(bad_var,) + model.state_vars[1:])
    assert ir.validate(bad).by_code("init-sort-mismatch")


def test_coverage_resolves_all_protocol_transitions():
    for name in BUILTIN_NAMES:
        cov = ir.coverage(builtin(name), builtin_clauses(name))
        assert cov.all_resolved, (name, cov.resolved)


def test_coverage_rejects_foreign_clauses():
    with pytest.raises(ir.IrError):
        ir.coverage(builtin("mcp"), builtin_clauses("a2a"))


def test_ambiguity_contacts_present_where_expected():
    cov = ir.coverage(builtin("anp"), builtin_clauses("anp"))
    contacts = dict(cov.ambiguity_contacts)
    assert "WF_WireFormat" in contacts
    assert "SL_SessionLifecycle" in contacts
    assert "P8_CredRevocation" in contacts


def test_anp_has_highest_ambiguity_ratio():
    ratios = {}
    for name in BUILTIN_NAMES:
        clauses = builtin_clauses(name)
        ratios[name] = sum(c.ambiguous for c in clauses) / len(clauses)
    assert max(ratios, key=ratios.get) == "anp"


def test_initial_state_well_sorted():
    for name in BUILTIN_NAMES:
        model = builtin(name)
        inst = checker.instance(model, checker.Bounds())  # no caps
        for v, value in zip(model.state_vars, inst.initial):
            assert ir.value_in_sort(value, v.sort,
                                    model.constants_map), (name, v.name)


# ---------------------------------------------------------------------------
# Sort inference: one rejected and one accepted case per rule

_SORT_MODEL = """protocol: sorts
snapshot: 2025-01
constants {{ Dom: [a, b]  Other: [c] }}
var flag : BOOL init false
var k : COUNTER(3) init 0
var sel : ENUM[a, b] init a
var mode : ENUM[c, d] init c
var s : SET(Dom) init {{}}
var m : MAP(Dom -> BOOL) init all false
var n : MAP(Dom -> BOOL) init [a: true, b: false]
var d : MAP(Dom -> MAP(Dom -> SET(Dom))) init all {{}}
transition T {{
  kind: Protocol  actor: sys  params: x in Dom
  guard: {guard}
  update: {update}
  modality: MAY
  source: {{ doc: test  section: "1"  quote: "q" }}
}}
property INV {{
  principle: P1  class: aasm-hardening
  invariant: {invariant}
  source: invented — modeling assumption
}}
"""


def _sort_case(guard="true", update="flag := true", invariant="true",
               init=None):
    from agentconform import irfmt
    text = _SORT_MODEL.format(guard=guard, update=update,
                              invariant=invariant)
    if init is not None:
        var, _, spec = init.partition(" ")
        text = re.sub(rf"^var {var} : (.*) init .*$",
                      lambda m: f"var {var} : {m[1]} init {spec}", text,
                      flags=re.M)
    return irfmt.parse_model(text)


# (where, text, the finding's detail, or None where the text is well-sorted)
SORT_RULES = [
    ("guard", "k", "guard `k`: the value is INT, not BOOL"),
    ("guard", "k = 0", None),
    ("invariant", "m", "invariant `m`: the value is a MAP({a, b} -> BOOL), "
                       "not BOOL"),
    ("invariant", "forall y in Dom: not m[y]", None),
    ("guard", "nosuch = true", "guard `nosuch = true`: unknown name "
                               "'nosuch'"),
    ("guard", "flag = true", None),
    ("invariant", "forall y in Nope: true", "invariant `forall y in Nope: "
                                            "true`: unknown domain 'Nope'"),
    ("invariant", "forall y in Other: y # c", None),
    ("guard", "flag = 1", "guard `flag = 1`: cannot compare BOOL = INT"),
    ("guard", "sel # x", None),
    ("guard", "sel < 2", "guard `sel < 2`: operand sel is an atom of {a, b}, "
                         "not INT"),
    ("guard", "k < 2", None),
    ("guard", "1 in s", "guard `1 in s`: element 1 is INT, not an atom"),
    ("guard", "x in k", "guard `x in k`: operand k is INT, not a SET"),
    ("guard", "x notin s", None),
    ("guard", "s subseteq m", "guard `s subseteq m`: operand m is a "
                              "MAP({a, b} -> BOOL), not a SET"),
    ("guard", "s subseteq Dom", None),
    ("guard", "not k", "guard `not k`: operand k is INT, not BOOL"),
    ("guard", "flag => not m[x]", None),
    ("invariant", "exists y in Dom: sel", "invariant `exists y in Dom: sel`:"
                                          " quantifier body sel is an atom of"
                                          " {a, b}, not BOOL"),
    ("guard", "k + flag = 1", "guard `k + flag = 1`: operand flag is BOOL, "
                              "not INT"),
    ("guard", "k + 1 = 2", None),
    ("guard", "s union k = s", "guard `s union k = s`: operand k is INT, not "
                               "a SET"),
    ("guard", "s union {x} = Dom", None),
    ("guard", "{1} = s", "guard `{1} = s`: set element 1 is INT, not an "
                         "atom"),
    ("guard", "{a, x} = s", None),
    ("guard", "flag[a]", "guard `flag[a]`: indexed term flag is BOOL, not a "
                         "MAP"),
    ("guard", "k < 1 and d[x][sel] = {}", None),
    ("guard", "m[k]", "guard `m[k]`: map key k is INT, not an atom"),
    ("guard", "m[mode]", "guard `m[mode]`: map key mode may be {c, d}, "
                         "outside the key domain {a, b}"),
    ("guard", "m[sel]", None),
    ("update", "nope := true", "update `nope := true`: 'nope' is not a state "
                               "variable"),
    ("update", "flag := 1", "update `flag := 1`: the value is INT, not BOOL"),
    ("update", "flag := not flag", None),
    ("update", "sel := c", "update `sel := c`: the value is an atom of {c}, "
                           "not an atom of {a, b}"),
    ("update", "sel := x", None),
    ("update", "s := {c}", "update `s := {c}`: the value is a SET of {c}, "
                           "not a SET of {a, b}"),
    ("update", "s := s union {x}", None),
    ("update", "m[a][b] := true", "update `m[a][b] := true`: m[a][b] indexes "
                                  "past a map leaf"),
    # a map stored into a BOOL leaf
    ("update", "m[a] := n", "update `m[a] := n`: the value is a "
                            "MAP({a, b} -> BOOL), not BOOL"),
    ("update", "m[a] := n[b]", None),
    ("update", "m := s", "update `m := s`: the value is a SET of {a, b}, "
                         "not a MAP({a, b} -> BOOL)"),
    ("update", "m := n", None),
    ("update", "d[x] := m", "update `d[x] := m`: the value is a "
                            "MAP({a, b} -> BOOL), not a "
                            "MAP({a, b} -> a SET of {a, b})"),
    ("update", "d[x] := d[sel]", None),
]


@pytest.mark.parametrize("where, text, detail", SORT_RULES,
                         ids=[f"{w}: {t}" for w, t, _ in SORT_RULES])
def test_sort_rule(where, text, detail):
    model = _sort_case(**{where: text})
    subject = "INV" if where == "invariant" else "T"
    want = [] if detail is None else [f"sort-mismatch in {subject}: {detail}"]
    assert [str(f) for f in ir.validate(model).findings] == want


INIT_RULES = [
    ("flag all true", "needs a MAP sort, not BOOL"),
    ("m all 1", "the value is INT, not BOOL"),
    ("m 42", "the value is INT, not a MAP({a, b} -> BOOL)"),
    ("n [a: true, c: false]", "the keys are not those of Dom"),
    ("n [a: true]", "the keys are not those of Dom"),
    ("n [a: true, b: 0]", "the value is INT, not BOOL"),
    ("s {a, c}", "the value is a SET of {a, c}, not a SET of {a, b}"),
    ("sel c", "the value is an atom of {c}, not an atom of {a, b}"),
    ("k 4", "the value is outside COUNTER(3)"),
    ("k flag", "unknown name 'flag'"),
    ("d all {b}", None),
    ("n [a: true, b: true]", None),
]


@pytest.mark.parametrize("init, detail", INIT_RULES,
                         ids=[i for i, _ in INIT_RULES])
def test_init_sort_rule(init, detail):
    """An initial value reads no state, so `flag` names nothing there;
    it must have its variable's sort, a map literal must give every key
    of the domain a value, and a counter starts in its range."""
    model = _sort_case(init=init)
    var = init.partition(" ")[0]
    want = [] if detail is None else [f"init-sort-mismatch in {var}: {detail}"]
    assert [str(f) for f in ir.validate(model).findings] == want


@pytest.mark.parametrize("sort", ["MAP(Dom -> COUNTER(1))",
                                  "MAP(Dom -> MAP(Dom -> COUNTER(3)))"])
def test_a_counter_under_a_map_is_a_bad_sort(sort):
    """Only a counter variable's own stores are range-checked, so a
    COUNTER is refused as a map's value, at any depth."""
    text = _SORT_MODEL.format(guard="true", update="flag := true",
                              invariant="true").replace(
        "var k : COUNTER(3) init 0", f"var k : {sort} init all 0")
    from agentconform import irfmt
    assert [str(f) for f in ir.validate(irfmt.parse_model(text)).findings] \
        == [f"bad-sort in k: sort {sort} puts a COUNTER under a MAP"]


def test_random_models_are_well_sorted():
    from test_checker import random_model
    rng = random.Random(20261019)
    for i in range(200):
        model = random_model(rng, i)
        assert ir.validate(model).ok, model.name


# declared symbols and small literals a mutant may put in place of a name
_LITERALS = ("0", "1", "2", "true", "false", "{}")
_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")
_KEYWORDS = {"forall", "exists", "in", "notin", "subseteq", "and", "or",
             "not", "true", "false", "union"}


def _mutants(rng, count):
    """(name, text) of seeded one-identifier mutants of the bundled .ir
    files: a name in a guard, update or invariant swapped for another
    declared symbol or a small literal."""
    from agentconform import builtins as B
    texts = {n: B._read_asset("models", f"{n}.ir") for n in BUILTIN_NAMES}
    for _ in range(count):
        name = rng.choice(BUILTIN_NAMES)
        model = builtin(name)
        symbols = sorted(set(model.var_names) | model.atom_universe()
                         | {d for d, _ in model.constants}) + \
            list(_LITERALS)
        lines = texts[name].splitlines(keepends=True)
        spots = [(i, m) for i, line in enumerate(lines)
                 if line.lstrip().startswith(("guard:", "update:",
                                              "invariant:"))
                 for m in _IDENT.finditer(line, line.index(":") + 1)
                 if m[0] not in _KEYWORDS]
        i, m = rng.choice(spots)
        swap = rng.choice([s for s in symbols if s != m[0]])
        line = lines[i][:m.start()] + swap + lines[i][m.end():]
        yield name, "".join(lines[:i] + [line] + lines[i + 1:])


def test_well_sorted_mutants_never_error():
    """No mutant that validates gives an ERROR verdict: every run-time
    error the engine could raise on the bundled models' expressions is a
    sort-mismatch finding first."""
    from agentconform import checker, irfmt
    validated = refused = 0
    for name, text in _mutants(random.Random(20261019), 600):
        try:
            model = irfmt.parse_model(text)
        except Exception:  # a literal where the grammar wants a name
            continue
        if not ir.validate(model).ok:
            refused += 1
            continue
        validated += 1
        results = checker.check_all(model, model.properties)
        assert not [r.verdict for r in results.values()
                    if r.verdict.startswith("ERROR")], (name, text)
    assert validated >= 50 and refused >= 300, (validated, refused)
