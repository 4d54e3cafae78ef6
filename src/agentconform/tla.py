"""TLA+ emission and TLC log parsing.

The IR compiles to module text in a syntax-directed way: every transition
becomes a guarded action with primed updates and an UNCHANGED clause, and
every property becomes a named operator usable as a TLC invariant. One
configuration file is emitted per property so violations are attributed
unambiguously.

The parser reads the textual TLC counterexample dialect (an Error line,
`State N: <Action ...>` headers, one `/\\ var = value` conjunct per
variable); a value is tokenized by one regular expression and read by
recursive descent, and anything outside the dialect is a
TlcDialectError. A trace becomes a checker counterexample through
`checker.decode_trace`, which checks its actions, arguments and
variables as it checks a counterexample document's. No external tool is
invoked here; interop is exercised against stored logs.
"""

from __future__ import annotations

import re

from . import checker
from . import expr as E
from . import ir
from .record import Record


class TlaError(Exception):
    pass


class TlcDialectError(Exception):
    pass


# ---------------------------------------------------------------------------
# Expression emission

_CMP = {"=": "=", "#": "#", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
        "in": "\\in", "notin": "\\notin", "subseteq": "\\subseteq"}


def _enum_values(model: ir.ProtocolModel):
    return set().union(*(ir.sort_atoms(d.sort) for d in model.state_vars))


def _emit_value(v, enums) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v}"' if v in enums else v
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(_emit_value(x, enums) for x in v)) + "}"
    if isinstance(v, E.FMap):
        parts = [f"{k} :> {_emit_value(x, enums)}" for k, x in v.items]
        return "(" + " @@ ".join(parts) + ")"
    raise TlaError(f"cannot emit value {v!r}")


def _atomic(e) -> bool:
    return isinstance(e, (E.Name, E.IntLit, E.BoolLit))


def emit_expr(e, enums) -> str:
    """Render an IR expression as TLA+ text.

    Implication antecedents are parenthesized unless they are a bare
    identifier or literal; everything else gets minimal parentheses.
    """
    if isinstance(e, E.Forall):
        return f"\\A {e.var} \\in {e.domain} : {emit_expr(e.body, enums)}"
    if isinstance(e, E.Exists):
        return f"\\E {e.var} \\in {e.domain} : {emit_expr(e.body, enums)}"
    if isinstance(e, E.Implies):
        lhs = emit_expr(e.lhs, enums)
        if not _atomic(e.lhs):
            lhs = f"({lhs})"
        return f"{lhs} => {emit_expr(e.rhs, enums)}"
    if isinstance(e, (E.And, E.Or)):
        op = " /\\ " if isinstance(e, E.And) else " \\/ "
        parts = []
        for item in e.items:
            text = emit_expr(item, enums)
            if isinstance(item, (E.Implies, E.Forall, E.Exists, E.And, E.Or)):
                text = f"({text})"
            parts.append(text)
        return op.join(parts)
    if isinstance(e, E.Not):
        inner = emit_expr(e.operand, enums)
        if not _atomic(e.operand) and not isinstance(e.operand, E.Index):
            inner = f"({inner})"
        return f"~{inner}"
    if isinstance(e, E.Cmp):
        return (f"{emit_expr(e.lhs, enums)} {_CMP[e.op]} "
                f"{emit_expr(e.rhs, enums)}")
    if isinstance(e, E.BinTerm):
        op = "+" if e.op == "+" else "\\union"
        return f"{emit_expr(e.lhs, enums)} {op} {emit_expr(e.rhs, enums)}"
    if isinstance(e, E.Index):
        return f"{emit_expr(e.base, enums)}[{emit_expr(e.key, enums)}]"
    if isinstance(e, E.SetLit):
        return "{" + ", ".join(emit_expr(x, enums) for x in e.items) + "}"
    if isinstance(e, E.Name):
        return f'"{e.name}"' if e.name in enums else e.name
    if isinstance(e, E.IntLit):
        return str(e.value)
    if isinstance(e, E.BoolLit):
        return "TRUE" if e.value else "FALSE"
    raise TlaError(f"cannot emit expression {e!r}")


# ---------------------------------------------------------------------------
# Module emission

class TlaArtifact(Record):
    # config_texts: ((property id, config text), ...)
    __slots__ = ("module_text", "config_texts")


def _module_name(model: ir.ProtocolModel) -> str:
    return model.name.replace("-", "_")


def _emit_update_conjuncts(t: ir.Transition, inst, enums):
    by_var = {}
    for target, rhs in t.updates:
        by_var.setdefault(target.var, []).append((target, rhs))
    conjuncts = []
    guards = []
    for var, entries in by_var.items():
        if len(entries) > 1 and not all(tgt.keys for tgt, _ in entries):
            raise TlaError(f"transition {t.id} assigns {var} as a whole "
                           "next to another update of it")
        if entries[0][0].keys:
            clauses = []
            for tgt, rhs in entries:
                keys = "".join(
                    f"[{emit_expr(k, enums)}]" for k in tgt.keys)
                clauses.append(f"!{keys} = {emit_expr(rhs, enums)}")
            conjuncts.append(f"{var}' = [{var} EXCEPT {', '.join(clauses)}]")
        else:
            rhs = entries[0][1]
            text = emit_expr(rhs, enums)
            conjuncts.append(f"{var}' = {text}")
            # bounded-natural cap keeps the TLC state space finite
            cap = inst.caps.get(var)
            if cap is not None:
                guards.append(f"{text} <= {cap}")
    return guards, conjuncts, set(by_var)


def _emit_action(t: ir.Transition, inst, enums) -> str:
    head = t.id
    if t.params:
        head += "(" + ", ".join(p for p, _ in t.params) + ")"
    lines = [f"{head} =="]
    lines.append(f"  /\\ {emit_expr(t.guard, enums)}")
    guards, updates, touched = _emit_update_conjuncts(t, inst, enums)
    for g in guards:
        lines.append(f"  /\\ {g}")
    for u in updates:
        lines.append(f"  /\\ {u}")
    untouched = [n for n in inst.names if n not in touched]
    if untouched:
        lines.append(f"  /\\ UNCHANGED <<{', '.join(untouched)}>>")
    return "\n".join(lines)


def emit_module(inst: checker.Instance) -> str:
    """The module of the bounded instance (`checker.instance`)."""
    model = inst.model
    enums = _enum_values(model)
    out = []
    name = _module_name(model)
    out.append(f"---- MODULE {name} ----")
    out.append("EXTENDS Naturals, FiniteSets, TLC")
    out.append("")
    domains = [d for d, _ in model.constants]
    atoms = [a for _, elems in model.constants for a in elems]
    if domains:
        out.append(f"CONSTANTS {', '.join(domains)}")
        out.append(f"CONSTANTS {', '.join(atoms)}")
        out.append("")
    var_names = inst.names
    if var_names:
        out.append(f"VARIABLES {', '.join(var_names)}")
        out.append("")
        out.append(f"vars == <<{', '.join(var_names)}>>")
        out.append("")
    out.append("Init ==")
    for name, value in zip(var_names, inst.initial):
        out.append(f"  /\\ {name} = {_emit_value(value, enums)}")
    out.append("")
    for kind in ir.KINDS:
        group = [t for t in model.transitions if t.kind == kind]
        if not group:
            continue
        out.append(f"\\* {kind} actions")
        out.append("")
        for t in group:
            out.append(_emit_action(t, inst, enums))
            out.append("")
    out.append("Next ==")
    if model.transitions:
        for t in model.transitions:
            call = t.id
            prefix = ""
            if t.params:
                call += "(" + ", ".join(p for p, _ in t.params) + ")"
                prefix = " ".join(
                    f"\\E {p} \\in {dom} :" for p, dom in t.params) + " "
            out.append(f"  \\/ {prefix}{call}")
    else:
        out.append("  UNCHANGED vars")
    out.append("")
    for p in model.properties:
        out.append(f"{p.id} ==")
        out.append(f"  {emit_expr(p.invariant, enums)}")
        out.append("")
    out.append("====")
    return "\n".join(out) + "\n"


def emit_config(inst: checker.Instance, property_id: str) -> str:
    """The configuration checking one property on the bounded instance."""
    inst.model.property_by_id(property_id)  # raises on unknown id
    out = ["INIT Init", "NEXT Next", f"INVARIANT {property_id}"]
    for dom, atoms in inst.model.constants:
        out.append(f"CONSTANT {dom} = {{{', '.join(inst.constants[dom])}}}")
        # every declared atom stays a model value: expressions may name it
        for a in atoms:
            out.append(f"CONSTANT {a} = {a}")
    return "\n".join(out) + "\n"


def emit_artifact(model: ir.ProtocolModel,
                  bounds: checker.Bounds = checker.DEFAULT_BOUNDS
                  ) -> TlaArtifact:
    """The module and one configuration per property of the bounded
    instance (`checker.instance`); raises IrError naming the findings of
    an ill-sorted model or property, or a cap that drops a stored atom."""
    ir.refuse_ill_sorted(model, model.properties)
    inst = checker.instance(model, bounds)
    configs = tuple((p.id, emit_config(inst, p.id))
                    for p in model.properties)
    return TlaArtifact(emit_module(inst), configs)


# ---------------------------------------------------------------------------
# TLC log parsing

class TlcLogParse(Record):
    # trace: ((action label, {var: value}), ...); label "" for initial
    __slots__ = ("violated", "depth", "trace", "states_generated",
                 "distinct_states")


_ERROR_RE = re.compile(r"^Error: Invariant (\w+) is violated\.")
_STATE_RE = re.compile(r"^State (\d+): <(.+?)(?: line .*)?>$")
_INITIAL_RE = re.compile(r"^State (\d+): <Initial predicate>$")
_CONJ_RE = re.compile(r"^/\\ (\w+) = (.*)$")
_STATS_RE = re.compile(
    r"^(\d+) states generated, (\d+) distinct states found")
_DONE_RE = re.compile(r"^Model checking completed\. No error has been found\.")


# a TLC value's tokens: a quoted string, an int, a name, or punctuation
# (any other character)
_TLC_TOKEN_RE = re.compile(r'\s*(?:"([^"]*)"|(-?\d+)|(\w+)|(:>|@@|.))',
                           re.ASCII | re.DOTALL)


def _parse_tlc_value(text: str):
    """TRUE, FALSE, an int, an atom (a name or a quoted string), a set
    `{v, ...}` or a function `(k :> v @@ ...)` with atom keys; raises
    TlcDialectError for anything else."""
    tokens = [(m.lastindex, m.group(m.lastindex))  # last token first
              for m in _TLC_TOKEN_RE.finditer(text.strip())][::-1]

    def punct():
        return tokens.pop()[1] if tokens and tokens[-1][0] == 4 else None

    def items(item, sep, close):
        out = [item()]
        while (p := punct()) != close:
            if p != sep:
                raise TlcDialectError(f"expected {sep!r} or {close!r} in "
                                      f"value {text!r}")
            out.append(item())
        return out

    def entry():
        k = value()
        if type(k) is not str or punct() != ":>":
            raise TlcDialectError(f"expected 'atom :> value' in {text!r}")
        return k, value()

    def value():
        group, tok = tokens.pop() if tokens else (4, "")
        if group == 1:
            return tok
        if group == 2:
            return int(tok)
        if group == 3:
            return {"TRUE": True, "FALSE": False}.get(tok, tok)
        if tok == "{":
            if tokens and tokens[-1] == (4, "}"):
                tokens.pop()
                return frozenset()
            return frozenset(items(value, ",", "}"))
        if tok == "(":
            entries = items(entry, "@@", ")")
            if len(dict(entries)) < len(entries):
                raise TlcDialectError(f"repeated function key in {text!r}")
            return E.FMap.of(dict(entries))
        raise TlcDialectError(f"cannot parse value {text!r}")

    v = value()
    if tokens:
        raise TlcDialectError(f"trailing text in value {text!r}")
    return v


def parse_tlc_output(log: str) -> TlcLogParse:
    violated = None
    states = []  # (label, {var: value})
    current = None
    stats = None
    completed = False
    for raw in log.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _ERROR_RE.match(line)
        if m:
            violated = m.group(1)
            continue
        if _DONE_RE.match(line):
            completed = True
            continue
        if line == "Error: Deadlock reached.":
            raise TlcDialectError("log reports a deadlock, not an invariant "
                                  "verdict: TLC checks for deadlock unless the "
                                  "config sets CHECK_DEADLOCK FALSE")
        m = _INITIAL_RE.match(line)
        if m:
            current = ("", {})
            states.append(current)
            continue
        m = _STATE_RE.match(line)
        if m:
            current = (m.group(2), {})
            states.append(current)
            continue
        m = _CONJ_RE.match(line)
        if m:
            if current is None:
                raise TlcDialectError("conjunct outside a state block")
            current[1][m.group(1)] = _parse_tlc_value(m.group(2))
            continue
        m = _STATS_RE.match(line)
        if m:
            stats = (int(m.group(1)), int(m.group(2)))
            continue
    if stats is None:
        raise TlcDialectError("missing statistics line")
    if violated is None and not completed:
        raise TlcDialectError("log reports neither completion nor violation")
    if (violated is not None) != bool(states):
        raise TlcDialectError("trace present iff a violation is reported")
    return TlcLogParse(violated, max(0, len(states) - 1), tuple(
        (label, dict(assigns)) for label, assigns in states),
        stats[0], stats[1])


def _parse_action_label(label: str):
    m = re.match(r"^(\w+)(?:\((.*)\))?$", label.strip())
    if not m:
        raise TlcDialectError(f"bad action label {label!r}")
    args = []
    if m.group(2):
        args = [a.strip() for a in m.group(2).split(",")]
    return m.group(1), args


def to_counterexample(parse: TlcLogParse,
                      model: ir.ProtocolModel) -> checker.Counterexample:
    """Rebuild a checker counterexample from a parsed violation trace;
    actions and states are checked as a counterexample document's are."""
    if parse.violated is None:
        raise TlaError("log contains no violation")
    if not parse.trace or parse.trace[0][0] != "":
        raise TlcDialectError("trace does not start at the initial state")
    steps = [(*_parse_action_label(label), assigns)
             for label, assigns in parse.trace[1:]]
    return checker.decode_trace(model, parse.violated, len(steps),
                                parse.trace[0][1], steps,
                                value=lambda v, _: v)


def to_check_result(parse: TlcLogParse,
                    model: ir.ProtocolModel) -> checker.CheckResult:
    if parse.violated is None:
        return checker.CheckResult("PASS", parse.distinct_states)
    return checker.CheckResult("FAIL", parse.distinct_states,
                               to_counterexample(parse, model))
