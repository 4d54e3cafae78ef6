"""Cross-protocol composition and composition-safety invariants."""

import re

import pytest

from agentconform import checker, compose, ir, irfmt
from agentconform import expr as E
from agentconform.builtins import builtin


def test_patterns_registry():
    assert set(compose.PATTERNS) == {
        "tool-delegation", "chained-servers", "tool-capability",
        "delegation-capability", "federated-delegation"}


def test_prefixing_is_total(composition_runs):
    composed, _, _ = composition_runs["tool-delegation"]
    bridge_vars = {n for n, _, _ in compose._BRIDGE_VARS}
    for v in composed.state_vars:
        assert v.name in bridge_vars or v.name[:2] in ("A_", "B_"), v.name
    for dom, _ in composed.constants:
        assert dom[:2] in ("A_", "B_"), dom
    assert ir.validate(composed).ok


def test_self_composition_rejected():
    mcp = builtin("mcp")
    with pytest.raises(compose.ComposeError):
        compose.compose(mcp, mcp, compose.BridgeSpec("loop", ()))


def test_dangling_route_rejected():
    bridge = compose.BridgeSpec("bad", (
        compose.Route("NoSuchTransition", "SendTask"),))
    with pytest.raises(compose.ComposeError):
        compose.compose(builtin("mcp"), builtin("a2a"), bridge)


def test_empty_bridge_keeps_sides_isolated():
    composed = compose.compose(builtin("mcp"), builtin("a2a"),
                               compose.BridgeSpec("none", ()))
    props = compose.cs_properties("tool-delegation")
    results = checker.check_all(composed, props)
    for pid in ("CS_NoLeakage", "CS_IsolationHolds", "CS_AuditChain"):
        assert results[pid].verdict == "PASS", pid


def test_conservativity(composition_runs):
    """Composition does not change a component's own verdicts."""
    from agentconform import catalog
    mcp = builtin("mcp")
    plain = checker.check(mcp, mcp.property_by_id("P8_CredRevocation"))
    composed, _, _ = composition_runs["tool-delegation"]
    lifted = catalog.instantiate_for(composed, "P8", prefix="A_")
    res = checker.check(composed, lifted)
    assert res.verdict == plain.verdict == "FAIL"
    assert res.counterexample.depth == plain.counterexample.depth


def test_composed_model_serializes(composition_runs):
    composed, _, _ = composition_runs["chained-servers"]
    again = irfmt.parse_model(irfmt.serialize_model(composed))
    assert again == composed


def test_cs_invariant_counts(composition_runs):
    per_pattern = {p: len(props)
                   for p, (_, props, _) in composition_runs.items()}
    assert per_pattern == {
        "tool-delegation": 4, "chained-servers": 5, "tool-capability": 4,
        "delegation-capability": 4, "federated-delegation": 4}


def test_twenty_of_twentyone_fail(composition_runs):
    verdicts = {}
    for pattern, (_, _, results) in composition_runs.items():
        for pid, res in results.items():
            verdicts[(pattern, pid)] = res.verdict
    fails = [k for k, v in verdicts.items() if v == "FAIL"]
    passes = [k for k, v in verdicts.items() if v == "PASS"]
    assert len(verdicts) == 21
    assert len(fails) == 20
    assert passes == [("federated-delegation", "CS_DomainIsolation")]


def test_chained_servers_fails_all_five(composition_runs):
    _, _, results = composition_runs["chained-servers"]
    assert len(results) == 5
    assert all(r.verdict == "FAIL" for r in results.values())


def test_leakage_traces_cross_adversary_and_bridge(composition_runs):
    for pattern, (composed, props, results) in composition_runs.items():
        cx = results["CS_NoLeakage"].counterexample
        kinds = [composed.transition(s.transition_id).kind
                 for s in cx.steps]
        actors = [composed.transition(s.transition_id).actor
                  for s in cx.steps]
        assert "Adversary" in kinds, pattern
        assert "bridge" in actors, pattern
        prop = next(p for p in props if p.id == "CS_NoLeakage")
        assert checker.validate_trace(composed, cx, prop), pattern


def test_bridge_guards_bind_only_what_they_read(composition_runs):
    """A bridge closes the source action's guard over the parameters the
    guard reads and no others: every quantifier in a bridge guard reads
    its variable."""
    for pattern, (composed, _, _) in composition_runs.items():
        bridges = [t for t in composed.transitions if t.actor == "bridge"]
        assert bridges, pattern
        for t in bridges:
            for x in E.iter_subterms(t.guard):
                if type(x) is E.Exists:
                    assert x.var in E.free_symbols(x.body), (pattern, t.id)


_SOURCE = '  source: { doc: d  section: "1"  quote: "q" }\n'


def test_a_parameter_over_an_empty_domain_is_refused():
    """A parameter over a domain with no atoms never binds, so its
    transition can never fire: `ir.validate` names it, a composition
    that bridges from it is refused, and a check of its model is an
    ERROR that names it."""
    a = irfmt.parse_model(
        "protocol: a\nsnapshot: s\nconstants { Empty: [] }\n"
        "var v : BOOL init true\ntransition Go {\n"
        "  kind: Protocol  actor: c  params: x in Empty\n"
        "  guard: v\n  update: v := false\n" + _SOURCE + "}\n")
    b = irfmt.parse_model(
        "protocol: b\nsnapshot: s\nvar w : BOOL init false\n"
        "transition Set {\n  kind: Protocol  actor: c\n"
        "  guard: true\n  update: w := true\n" + _SOURCE + "}\n")
    finding = ("bad-param-domain in Go: parameter 'x' ranges over empty "
               "domain 'Empty'")
    assert [str(f) for f in ir.validate(a).findings] == [finding]
    with pytest.raises(compose.ComposeError,
                       match=re.escape(f"model 'a' is invalid: {finding}")):
        compose.compose(a, b, compose.BridgeSpec(
            "b", (compose.Route("Go", "Set"),)))
    prop = ir.Property("Stays", "P0", "aasm-hardening", E.parse("v"),
                       (ir.INVENTED_REF,))
    assert checker.check(a, prop).verdict == f"ERROR: {finding}"
