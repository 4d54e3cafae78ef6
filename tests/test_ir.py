"""IR validation and clause coverage."""

import pytest

from agentconform import ir
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
    assert report.by_code("undeclared-symbol")


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
        state = model.initial_state()
        for v in model.state_vars:
            assert ir.value_in_sort(state[v.name], v.sort,
                                    model.constants_map), (name, v.name)
