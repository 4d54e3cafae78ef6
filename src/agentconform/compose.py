"""Cross-protocol composition through an explicit bridge component.

Two models are merged into one: every symbol of the first is prefixed
with ``A_``, every symbol of the second with ``B_``, and a small set of
unprefixed bridge variables tracks what flows across. Each routing rule
becomes one or two Environment-kind bridge transitions: a clean variant,
and a tainted variant that fires when the rule's taint condition holds
and marks the bridge compromised. Contamination therefore needs an
upstream adversary step; the bridge itself only propagates.

Composition safety invariants come in a base set of three plus
pattern-specific ones. The five shipped patterns carry 5+4+4+4+4 = 21
invariant instances. Formulas beyond the base three are reconstructed
from prose threat descriptions, not quoted from any protocol document.
"""

from __future__ import annotations

from . import expr as E
from . import ir
from . import irfmt
from .builtins import builtin
from .record import Record, replace


class ComposeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Symbol renaming

def _rename_sort(sort, mapping):
    if isinstance(sort, ir.SetSort):
        return ir.SetSort(mapping.get(sort.over, sort.over))
    if isinstance(sort, ir.MapSort):
        return ir.MapSort(mapping.get(sort.key, sort.key),
                          _rename_sort(sort.value, mapping))
    return sort


def _rename_init(init, mapping):
    if isinstance(init, (ir.InitExpr, ir.InitAll)):
        return type(init)(E.rename(init.expr, mapping))
    if isinstance(init, ir.InitMap):
        return ir.InitMap(tuple(
            (mapping.get(k, k), E.rename(v, mapping))
            for k, v in init.entries))
    raise ComposeError(f"unknown init spec {init!r}")


def _prefix_model(model: ir.ProtocolModel, prefix: str):
    """Rename every constant, atom, state var and transition id."""
    mapping = {}
    for dom, atoms in model.constants:
        mapping[dom] = prefix + dom
        for a in atoms:
            mapping[a] = prefix + a
    for d in model.state_vars:
        mapping[d.name] = prefix + d.name

    constants = tuple(
        (prefix + dom, tuple(prefix + a for a in atoms))
        for dom, atoms in model.constants)
    state_vars = tuple(
        ir.StateVarDecl(prefix + d.name, _rename_sort(d.sort, mapping),
                        _rename_init(d.init, mapping))
        for d in model.state_vars)
    transitions = []
    for t in model.transitions:
        params = tuple((p, mapping.get(dom, dom)) for p, dom in t.params)
        # a parameter is a bound name and keeps it
        outer = {k: v for k, v in mapping.items()
                 if k not in {p for p, _ in t.params}}
        guard = E.rename(t.guard, outer)
        updates = tuple(
            (ir.UpdateTarget(mapping.get(tgt.var, tgt.var),
                             tuple(E.rename(k, outer) for k in tgt.keys)),
             E.rename(rhs, outer))
            for tgt, rhs in t.updates)
        transitions.append(replace(
            t, id=prefix + t.id, params=params, guard=guard,
            updates=updates))
    return constants, state_vars, tuple(transitions)


# ---------------------------------------------------------------------------
# Bridge specification

class Route(Record):
    """One routing rule: when the A-side action could fire, the bridge
    may inject the B-side action's effect."""
    # source: transition id in model A
    # target: transition id in model B
    # tainted_when: expr over composed symbols; "" = never
    # extra_updates: update text over composed symbols
    __slots__ = ("source", "target", "tainted_when", "forwards_credential",
                 "extra_updates")
    _defaults = {"tainted_when": "", "forwards_credential": False,
                 "extra_updates": ""}


class BridgeSpec(Record):
    __slots__ = ("name", "routes")


_BRIDGE_VARS = (
    ("bridge_compromised", ir.BoolSort(), "false"),
    ("credential_forwarded", ir.BoolSort(), "false"),
    # a single crossing already decides every bridge invariant, so the
    # counters stop at 1 to keep the composed state space small
    ("bridge_op_count", ir.CounterSort(1), "0"),
    ("cross_writes", ir.CounterSort(1), "0"),
)


def _exists_wrap(t: ir.Transition, constants: tuple) -> E.Expr:
    """Existentially close a prefixed transition's guard over the params
    it reads. A param it does not read decides nothing, unless constants
    declare its domain with no atoms: then the guard is false, and it
    stays closed over that param."""
    guard = E.rename(t.guard, {p: f"src_{p}" for p, _ in t.params})
    free = E.free_symbols(guard)
    for p, dom in reversed(t.params):
        if f"src_{p}" in free or (dom, ()) in constants:
            guard = E.Exists(f"src_{p}", dom, guard)
    return guard


def _bridge_transitions(route: Route, a_side: dict, b_side: dict,
                        a_consts: tuple):
    src = a_side.get("A_" + route.source)
    tgt = b_side.get("B_" + route.target)
    if src is None:
        raise ComposeError(f"dangling routing rule: no source action "
                           f"{route.source!r} in model A")
    if tgt is None:
        raise ComposeError(f"dangling routing rule: no target action "
                           f"{route.target!r} in model B")
    base_guard = [_exists_wrap(src, a_consts), tgt.guard]
    count = (ir.UpdateTarget("bridge_op_count", ()),
             E.parse("bridge_op_count + 1"))
    base_updates = list(tgt.updates) + [count]
    if route.forwards_credential:
        base_updates.append((ir.UpdateTarget("credential_forwarded", ()),
                             E.parse("true")))

    def make(tid, guard_items, updates):
        return ir.Transition(
            tid, "Environment", "bridge", tgt.params,
            E.And(tuple(guard_items)) if len(guard_items) > 1
            else guard_items[0],
            tuple(updates), "NOT_SPECIFIED", (ir.INVENTED_REF,), None)

    stem = f"Bridge_{route.source}_to_{route.target}"
    if not route.tainted_when:
        return (make(stem, base_guard, base_updates),)
    taint = E.parse(route.tainted_when)
    clean = make(stem, base_guard + [E.Not(taint)], base_updates)
    tainted_updates = list(base_updates)
    tainted_updates.append((ir.UpdateTarget("bridge_compromised", ()),
                            E.parse("true")))
    # the tainted variant always touches B-side state
    tainted_updates.append((ir.UpdateTarget("cross_writes", ()),
                            E.parse("cross_writes + 1")))
    tainted_updates.extend(irfmt.parse_updates(route.extra_updates, 0))
    tainted = make(stem + "_tainted", base_guard + [taint], tainted_updates)
    return (clean, tainted)


def compose(model_a: ir.ProtocolModel, model_b: ir.ProtocolModel,
            bridge: BridgeSpec) -> ir.ProtocolModel:
    """Merge two models and a bridge into one checkable model."""
    if model_a.name == model_b.name:
        raise ComposeError("models must be distinct; cannot compose "
                           f"{model_a.name!r} with itself")
    a_consts, a_vars, a_trans = _prefix_model(model_a, "A_")
    b_consts, b_vars, b_trans = _prefix_model(model_b, "B_")
    bridge_vars = tuple(
        ir.StateVarDecl(name, sort, ir.InitExpr(E.parse(init)))
        for name, sort, init in _BRIDGE_VARS)
    a_side = {t.id: t for t in a_trans}
    b_side = {t.id: t for t in b_trans}
    bridge_trans = []
    for route in bridge.routes:
        bridge_trans.extend(_bridge_transitions(route, a_side, b_side,
                                                a_consts))
    composed = ir.ProtocolModel(
        name=f"{model_a.name}+{model_b.name}",
        snapshot=f"{model_a.snapshot}/{model_b.snapshot}",
        constants=a_consts + b_consts,
        state_vars=a_vars + b_vars + bridge_vars,
        transitions=a_trans + b_trans + tuple(bridge_trans),
        properties=(),
        aps=())
    report = ir.validate(composed)
    if report.findings:
        raise ComposeError(f"composed model invalid: {report.findings}")
    return composed


# ---------------------------------------------------------------------------
# Builtin patterns: bridges and composition safety invariants

# per pattern: the protocol pair, the bridge between them, the
# capability-integrity consequent for CS_NoLeakage and the pattern-specific
# invariants; all formulas over composed symbols
_SUBSET_B = ("(forall x in {dom}: forall y in {dom}: "
             "B_delegation[x][y] subseteq B_original_caps[x])")
_CONSENT_B = "(forall op in B_Ops: B_executed[op] => B_consent_granted[op])"
_ATTEST_B = ("(forall a in B_Agents: "
             "B_capability_used[a] => B_manifest_attested[a])")

# taint conditions: true only after an Adversary-kind step on the A side
_TAINT_MCP = "A_prompt_tainted"
_TAINT_A2A = ("exists x in A_AgentID: exists y in A_AgentID: "
              "not (A_delegation[x][y] subseteq A_original_caps[x])")


PATTERNS = {
    "tool-delegation": {
        "pair": ("mcp", "a2a"),
        "bridge": BridgeSpec("conductor", (Route(
            "CallTool", "SendTask", tainted_when=_TAINT_MCP,
            extra_updates=("B_delegation[B_ag1][B_ag2] := "
                           "B_delegation[B_ag1][B_ag2] union {B_c2}")),)),
        "leakage": _SUBSET_B.format(dom="B_AgentID"),
        "specific": (
            ("CS_PromptDelegationBarrier",
             "A_prompt_tainted => " + _SUBSET_B.format(dom="B_AgentID")),
        ),
    },
    "chained-servers": {
        "pair": ("mcp", "acp-client"),
        "bridge": BridgeSpec("pipeline", (Route(
            "CallTool", "fs_write", tainted_when=_TAINT_MCP,
            forwards_credential=True,
            extra_updates=("B_delegation[B_a1][B_a2] := "
                           "B_delegation[B_a1][B_a2] union {B_c1}")),)),
        "leakage": _SUBSET_B.format(dom="B_Agents"),
        "specific": (
            ("CS_CredentialConfinement", "credential_forwarded = false"),
            ("CS_TrustChain", "bridge_compromised => " + _CONSENT_B),
        ),
    },
    "tool-capability": {
        "pair": ("mcp", "acp-cap"),
        "bridge": BridgeSpec("consent-bypass", (Route(
            "CallTool", "InvokeCapability", tainted_when=_TAINT_MCP,
            extra_updates=("B_delegation[B_a1][B_a2] := "
                           "B_delegation[B_a1][B_a2] union {B_c1}")),)),
        "leakage": _SUBSET_B.format(dom="B_Agents"),
        "specific": (
            ("CS_ConsentPreserved", _CONSENT_B),
        ),
    },
    "delegation-capability": {
        "pair": ("a2a", "acp-cap"),
        "bridge": BridgeSpec("authority", (Route(
            "Delegate", "InvokeCapability", tainted_when=_TAINT_A2A,
            extra_updates=("B_delegation[B_a1][B_a2] := "
                           "B_delegation[B_a1][B_a2] union {B_c1}")),)),
        "leakage": _SUBSET_B.format(dom="B_Agents"),
        "specific": (
            ("CS_AuthorityAlignment", "bridge_compromised => " + _ATTEST_B),
        ),
    },
    "federated-delegation": {
        "pair": ("a2a", "anp"),
        "bridge": BridgeSpec("federation", (Route(
            "Delegate", "SendProposal", tainted_when=_TAINT_A2A),)),
        "leakage": _ATTEST_B,
        "specific": (
            ("CS_DomainIsolation", _SUBSET_B.format(dom="B_Agents")),
        ),
    },
}


def cs_properties(composed: ir.ProtocolModel, pattern: str):
    """Base CS invariants plus the pattern-specific ones."""
    spec = PATTERNS.get(pattern)
    if spec is None:
        raise ComposeError(f"unknown pattern {pattern!r}; expected one of "
                           f"{tuple(PATTERNS)}")
    formulas = [
        ("CS_NoLeakage", "bridge_compromised => " + spec["leakage"]),
        ("CS_IsolationHolds", "bridge_compromised => cross_writes = 0"),
        ("CS_AuditChain",
         "bridge_op_count <= A_audit_count + B_audit_count"),
    ]
    formulas.extend(spec["specific"])
    return tuple(
        ir.Property(name, "CS", "aasm-hardening", E.parse(text),
                    (ir.INVENTED_REF,))
        for name, text in formulas)


def builtin_compositions():
    """The five shipped composition patterns."""
    out = []
    for pattern, spec in PATTERNS.items():
        a, b = spec["pair"]
        out.append((pattern, builtin(a), builtin(b), spec["bridge"]))
    return tuple(out)
