"""TLA+ emission and TLC log parsing."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentconform import checker, compose, ir, report, tla
from agentconform import expr as E
from agentconform.builtins import BUILTIN_NAMES, builtin
from agentconform.record import replace

from _tlc_log import format_tlc_log

FIXTURES = Path(__file__).parent / "fixtures"
EMISSION_GOLDEN = Path(__file__).parent / "golden" / "emission.json"


def _module(model, bounds=checker.DEFAULT_BOUNDS):
    return tla.emit_module(checker.instance(model, bounds))


def test_p3_operator_body():
    model = builtin("a2a")
    module = _module(model)
    assert ("\\A ag1 \\in AgentID : \\A ag2 \\in AgentID : "
            "(ag1 # ag2) => delegation[ag1][ag2] \\subseteq "
            "original_caps[ag1]") in " ".join(module.split())


def test_module_structure():
    model = builtin("mcp")
    module = _module(model)
    assert module.startswith("---- MODULE mcp ----")
    assert "EXTENDS Naturals, FiniteSets, TLC" in module
    assert "Init ==" in module and "Next ==" in module
    for t in model.transitions:
        assert f"{t.id}" in module
    assert module.rstrip().endswith("====")


def test_config_lists_invariant_and_constants():
    model = builtin("mcp")
    inst = checker.instance(model, checker.DEFAULT_BOUNDS)
    cfg = tla.emit_config(inst, "P8_CredRevocation")
    assert "INIT Init" in cfg and "NEXT Next" in cfg
    assert "INVARIANT P8_CredRevocation" in cfg
    assert "CONSTANT Sessions" in cfg


def test_emission_deterministic():
    model = builtin("a2a")
    assert tla.emit_artifact(model) == tla.emit_artifact(model)


def test_unknown_property_rejected():
    with pytest.raises(KeyError):
        tla.emit_config(checker.instance(builtin("mcp"),
                                         checker.DEFAULT_BOUNDS),
                        "NoSuchProp")


def test_ill_sorted_model_refused():
    """Emitted through the library, a model whose transition stores an
    int into a BOOL variable raises IrError naming the finding."""
    model = ir.ProtocolModel(
        name="p", snapshot="s", constants=(),
        state_vars=(ir.StateVarDecl("v", ir.BoolSort(),
                                    ir.InitExpr(E.parse("false"))),),
        transitions=(ir.Transition(
            "T", "Protocol", "a", (), E.parse("true"),
            ((ir.UpdateTarget("v"), E.parse("1")),), "MAY",
            (ir.SourceRef("RFC", "1", "q"),)),),
        properties=())
    with pytest.raises(ir.IrError, match=re.escape(
            "sort-mismatch in T: update `v := 1`")):
        tla.emit_artifact(model)


AGREEMENT_BOUNDS = {
    "default": checker.DEFAULT_BOUNDS,
    "caps1": checker.DEFAULT_BOUNDS.with_caps(agents=1, agentid=1,
                                              sessions=1),
    "caps3": checker.DEFAULT_BOUNDS.with_caps(agents=3, agentid=3),
}


@pytest.mark.parametrize("bounds", AGREEMENT_BOUNDS.values(),
                         ids=AGREEMENT_BOUNDS.keys())
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_emission_explores_checker_instance(name, bounds):
    """TLC and the checker read the same bounded domains and Init."""
    model = builtin(name)
    artifact = tla.emit_artifact(model, bounds)
    lines = artifact.module_text.splitlines()
    declared = {c.strip() for line in lines if line.startswith("CONSTANTS ")
                for c in line[len("CONSTANTS "):].split(",")}
    inst = checker.instance(model, bounds)
    for _, cfg in artifact.config_texts:
        assigned = {}
        for line in cfg.splitlines():
            if line.startswith("CONSTANT "):
                lhs, _, rhs = line[len("CONSTANT "):].partition(" = ")
                assigned[lhs] = rhs
        assert set(assigned) == declared
        for dom, atoms in inst.constants.items():
            assert assigned[dom] == "{" + ", ".join(atoms) + "}"

    start = lines.index("Init ==") + 1
    init = lines[start:lines.index("", start)]
    enums = tla._enum_values(model)
    assert init == [f"  /\\ {var} = {tla._emit_value(value, enums)}"
                    for var, value in zip(inst.names, inst.initial)]


@pytest.mark.parametrize("bounds", [
    checker.DEFAULT_BOUNDS, replace(checker.DEFAULT_BOUNDS, counter_max=1)],
    ids=["default", "counter1"])
@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(
    p for p, *_ in compose.builtin_compositions()))
def test_counter_guards_are_the_checker_caps(name, bounds):
    """Every `<= N` guard of an action bounds a whole assignment of a
    counter by the cap the checker reads for it (`checker.instance`),
    and every such assignment has one, in update order."""
    model = builtin(name) if name in BUILTIN_NAMES else next(
        compose.compose(a, b, bridge)
        for p, a, b, bridge in compose.builtin_compositions() if p == name)
    inst = checker.instance(model, bounds)
    guarded = set()
    for block in tla.emit_module(inst).split("\n\n"):
        body = [line[len("  /\\ "):] for line in block.splitlines()[1:]]
        first = next((i for i, c in enumerate(body) if "' = " in c), None)
        if first is None:  # not an action
            continue
        whole = [c.split("' = ", 1) for c in body[first:] if "' = " in c]
        counted = [(var, rhs) for var, rhs in whole if var in inst.caps
                   and not rhs.startswith(f"[{var} EXCEPT ")]
        assert body[1:first] == [f"{rhs} <= {inst.caps[var]}"
                                 for var, rhs in counted], block
        guarded.update(var for var, _ in counted)
    assert guarded and guarded <= set(inst.caps)
    if bounds.counter_max == 1:
        assert set(inst.caps.values()) == {1}

def test_log_round_trip_matches_checker():
    model = builtin("mcp")
    prop = model.property_by_id("P8_CredRevocation")
    res = checker.check(model, prop)
    log = format_tlc_log(model, prop)
    parse = tla.parse_tlc_output(log)
    assert parse.violated == prop.id
    cx = tla.to_counterexample(parse, model)
    assert cx == res.counterexample
    assert checker.validate_trace(model, cx)


def test_fixture_logs_agree_with_checker():
    logs = sorted(FIXTURES.glob("*.log"))
    assert logs, "fixture logs missing"
    for path in logs:
        name, pid = path.stem.split("_", 1)
        model = builtin(name)
        prop = model.property_by_id(pid)
        parse = tla.parse_tlc_output(path.read_text())
        expected = checker.check(model, prop)
        got = tla.to_check_result(parse, model)
        assert got.verdict == expected.verdict, path.name
        if expected.failed:
            cx = tla.to_counterexample(parse, model)
            assert cx.depth == expected.counterexample.depth, path.name
            assert checker.validate_trace(model, cx), path.name


def test_parser_rejects_truncated_log():
    with pytest.raises(tla.TlcDialectError):
        tla.parse_tlc_output("TLC2 Version 2.18\n")


def test_parser_names_a_deadlock_report():
    log = ("TLC2 Version 2.18\n"
           "Error: Deadlock reached.\n"
           "The behavior up to this point is:\n"
           "State 1: <Initial predicate>\n"
           "/\\ session_state = (s1 :> \"CLOSED\")\n"
           "\n"
           "2 states generated, 1 distinct states found, "
           "0 states left on queue.\n")
    with pytest.raises(tla.TlcDialectError, match="log reports a deadlock"):
        tla.parse_tlc_output(log)


def test_parser_value_forms():
    model = builtin("a2a")
    prop = model.property_by_id("P3_DelegationMonotonicity")
    res = checker.check(model, prop)
    log = format_tlc_log(model, prop)
    # nested functions and set literals survive the round trip
    assert ":>" in log and "@@" in log
    cx = tla.to_counterexample(tla.parse_tlc_output(log), model)
    assert cx == res.counterexample


@pytest.mark.parametrize("text", [
    '"abc', '"', '(1 :> 2)', '({a} :> 2)', '{a b}', '{a,}', 'a b',
    '(a :> 1) x', '(a :> 1 @@ a :> 2)', '(a 1)', '(a :> 1 b)', '', '{',
    '-', 'a:b',
], ids=["unterminated-string", "lone-quote", "int-key", "set-key",
        "bad-set", "set-trailing-comma", "trailing-text",
        "trailing-after-function", "repeated-key", "missing-arrow",
        "bad-function", "empty", "open-set", "minus", "colon"])
def test_value_parser_rejects_malformed_forms(text):
    with pytest.raises(tla.TlcDialectError):
        tla._parse_tlc_value(text)


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in ("TRUE", "FALSE"))
# atoms TLC prints quoted, as it prints enum values
_QUOTED = ["a b", "", "x,y", "{}", "TRUE", "@@", ":>", "(", "\u00e9"]
_TLC_VALUES = st.recursive(
    st.one_of(st.booleans(), st.integers(-20, 20), _IDENT,
              st.sampled_from(_QUOTED)),
    lambda inner: st.one_of(
        st.frozensets(inner, max_size=3),
        st.dictionaries(_IDENT, inner, min_size=1, max_size=3).map(
            E.FMap.of)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_TLC_VALUES, st.sets(_IDENT, max_size=3))
def test_value_parser_round_trips_emitted_values(value, quoted):
    enums = set(_QUOTED) | quoted
    assert tla._parse_tlc_value(tla._emit_value(value, enums)) == value


def _p8_log():
    model = builtin("mcp")
    return model, format_tlc_log(
        model, model.property_by_id("P8_CredRevocation"))


@pytest.mark.parametrize("tamper, message", [
    (lambda log: log.replace("<OpenSession(", "<NoSuch("),
     "step 1 (NoSuch): unknown action 'NoSuch'"),
    (lambda log: log.replace("<OpenSession(s1)", "<OpenSession(s1, s2)"),
     "step 1 (OpenSession) has 2 arguments, not 1"),
    (lambda log: log.replace(
        '/\\ credentials = (s1 :> "ACTIVE" @@ s2 :> "NONE")\n', "", 1),
     "step 1 (OpenSession) state lacks variable 'credentials'"),
    (lambda log: log.replace(
        '/\\ credentials = (s1 :> "NONE" @@ s2 :> "NONE")\n', "", 1),
     "initial state lacks variable 'credentials'"),
], ids=["unknown-action", "argument-count", "step-variable",
        "initial-variable"])
def test_to_counterexample_checks_the_trace(tamper, message):
    model, log = _p8_log()
    parse = tla.parse_tlc_output(tamper(log))
    with pytest.raises(checker.CheckError, match=re.escape(message)):
        tla.to_counterexample(parse, model)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def emission_hashes():
    """sha256 of the emitted bytes: each TLA+ artifact (5 builtins and 5
    compositions at the agreement bounds), and the counterexample JSON and
    TLC log of every per-protocol FAIL cell."""
    models = [builtin(n) for n in BUILTIN_NAMES]
    models += [compose.compose(a, b, bridge)
               for _, a, b, bridge in compose.builtin_compositions()]
    artifacts = {}
    for model in models:
        for label, bounds in AGREEMENT_BOUNDS.items():
            artifact = tla.emit_artifact(model, bounds)
            artifacts[f"{model.name} {label}"] = _sha(json.dumps(
                [artifact.module_text, artifact.config_texts]))
    cells = {}
    for name in BUILTIN_NAMES:
        model = builtin(name)
        for pr in report.MATRIX_PRINCIPLES[:-1]:
            prop = report._cell_property(model, pr)
            res = checker.check(model, prop)
            if res.failed:
                cells[f"{name} {prop.id}"] = {
                    "counterexample": _sha(checker.export_counterexample(
                        model, res.counterexample)),
                    "tlc_log": _sha(format_tlc_log(model, prop))}
    return {"tla": artifacts, "cells": cells}


def test_emitted_bytes_match_golden():
    """`tests/golden/emission.json` was last written when the bridges of
    tool-delegation, chained-servers and tool-capability dropped the
    binders their guards never read, which changed only those three
    compositions' entries; regenerate it only for a deliberate output
    change:

        PYTHONPATH=src python tests/test_tla.py
    """
    assert emission_hashes() == json.loads(EMISSION_GOLDEN.read_text())


if __name__ == "__main__":
    EMISSION_GOLDEN.write_text(
        json.dumps(emission_hashes(), indent=2) + "\n")
