"""TLA+ emission and TLC log parsing.

The IR compiles to module text in a syntax-directed way: every transition
becomes a guarded action with primed updates and an UNCHANGED clause, and
every property becomes a named operator usable as a TLC invariant. One
configuration file is emitted per property so violations are attributed
unambiguously.

The parser reads the textual TLC counterexample dialect (an Error line,
`State N: <Action ...>` headers, one `/\\ var = value` conjunct per
variable) and converts traces back into checker counterexamples. No
external tool is invoked here; interop is exercised against stored logs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import checker
from . import expr as E
from . import ir


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

@dataclass(frozen=True)
class TlaArtifact:
    module_text: str
    config_texts: tuple  # ((property id, config text), ...)


def _module_name(model: ir.ProtocolModel) -> str:
    return model.name.replace("-", "_")


def _emit_update_conjuncts(t: ir.Transition, model, enums, bounds):
    by_var = {}
    for target, rhs in t.updates:
        by_var.setdefault(target.var, []).append((target, rhs))
    conjuncts = []
    guards = []
    for var, entries in by_var.items():
        decl = model.var(var)
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
            cap = checker.counter_cap(decl.sort, bounds)
            if cap is not None:
                guards.append(f"{text} <= {cap}")
    return guards, conjuncts, set(by_var)


def _emit_action(t: ir.Transition, model, enums, bounds) -> str:
    head = t.id
    if t.params:
        head += "(" + ", ".join(p for p, _ in t.params) + ")"
    lines = [f"{head} =="]
    lines.append(f"  /\\ {emit_expr(t.guard, enums)}")
    guards, updates, touched = _emit_update_conjuncts(t, model, enums, bounds)
    for g in guards:
        lines.append(f"  /\\ {g}")
    for u in updates:
        lines.append(f"  /\\ {u}")
    untouched = [d.name for d in model.state_vars if d.name not in touched]
    if untouched:
        lines.append(f"  /\\ UNCHANGED <<{', '.join(untouched)}>>")
    return "\n".join(lines)


def emit_module(model: ir.ProtocolModel,
                bounds: checker.Bounds = checker.DEFAULT_BOUNDS) -> str:
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
    var_names = [d.name for d in model.state_vars]
    if var_names:
        out.append(f"VARIABLES {', '.join(var_names)}")
        out.append("")
        out.append(f"vars == <<{', '.join(var_names)}>>")
        out.append("")
    out.append("Init ==")
    constants = checker.bounded_constants(model, bounds)
    for d in model.state_vars:
        init = _emit_value(d.initial_value(constants), enums)
        out.append(f"  /\\ {d.name} = {init}")
    out.append("")
    for kind in ir.KINDS:
        group = [t for t in model.transitions if t.kind == kind]
        if not group:
            continue
        out.append(f"\\* {kind} actions")
        out.append("")
        for t in group:
            out.append(_emit_action(t, model, enums, bounds))
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


def emit_config(model: ir.ProtocolModel, property_id: str,
                bounds: checker.Bounds = checker.DEFAULT_BOUNDS) -> str:
    model.property_by_id(property_id)  # raises on unknown id
    out = ["INIT Init", "NEXT Next", f"INVARIANT {property_id}"]
    bounded = checker.bounded_constants(model, bounds)
    for dom, atoms in model.constants:
        out.append(f"CONSTANT {dom} = {{{', '.join(bounded[dom])}}}")
        # every declared atom stays a model value: expressions may name it
        for a in atoms:
            out.append(f"CONSTANT {a} = {a}")
    return "\n".join(out) + "\n"


def emit_artifact(model: ir.ProtocolModel,
                  bounds: checker.Bounds = checker.DEFAULT_BOUNDS
                  ) -> TlaArtifact:
    configs = tuple(
        (p.id, emit_config(model, p.id, bounds)) for p in model.properties)
    return TlaArtifact(emit_module(model, bounds), configs)


# ---------------------------------------------------------------------------
# TLC log parsing

@dataclass(frozen=True)
class TlcLogParse:
    violated: str | None
    depth: int
    trace: tuple  # ((action label, {var: value}), ...); label "" for initial
    states_generated: int
    distinct_states: int


_ERROR_RE = re.compile(r"^Error: Invariant (\w+) is violated\.")
_STATE_RE = re.compile(r"^State (\d+): <(.+?)(?: line .*)?>$")
_INITIAL_RE = re.compile(r"^State (\d+): <Initial predicate>$")
_CONJ_RE = re.compile(r"^/\\ (\w+) = (.*)$")
_STATS_RE = re.compile(
    r"^(\d+) states generated, (\d+) distinct states found")
_DONE_RE = re.compile(r"^Model checking completed\. No error has been found\.")


def _parse_tlc_value(text: str):
    text = text.strip()
    pos = [0]

    def peek():
        return text[pos[0]] if pos[0] < len(text) else ""

    def skip_ws():
        while pos[0] < len(text) and text[pos[0]] in " \t":
            pos[0] += 1

    def parse_atom():
        skip_ws()
        c = peek()
        if c == '"':
            end = text.index('"', pos[0] + 1)
            name = text[pos[0] + 1:end]
            pos[0] = end + 1
            return name
        if c == "{":
            pos[0] += 1
            items = []
            skip_ws()
            if peek() == "}":
                pos[0] += 1
                return frozenset()
            while True:
                items.append(parse_atom())
                skip_ws()
                if peek() == ",":
                    pos[0] += 1
                    continue
                if peek() == "}":
                    pos[0] += 1
                    return frozenset(items)
                raise TlcDialectError(f"bad set in value {text!r}")
        if c == "(":
            pos[0] += 1
            entries = []
            while True:
                k = parse_atom()
                skip_ws()
                if text[pos[0]:pos[0] + 2] != ":>":
                    raise TlcDialectError(f"expected ':>' in {text!r}")
                pos[0] += 2
                v = parse_atom()
                if not isinstance(k, str):
                    raise TlcDialectError(f"non-atom function key in {text!r}")
                entries.append((k, v))
                skip_ws()
                if text[pos[0]:pos[0] + 2] == "@@":
                    pos[0] += 2
                    continue
                if peek() == ")":
                    pos[0] += 1
                    return E.FMap(tuple(sorted(entries)))
                raise TlcDialectError(f"bad function in value {text!r}")
        m = re.match(r"-?\d+", text[pos[0]:])
        if m:
            pos[0] += m.end()
            return int(m.group())
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[pos[0]:])
        if m:
            pos[0] += m.end()
            word = m.group()
            if word == "TRUE":
                return True
            if word == "FALSE":
                return False
            return word
        raise TlcDialectError(f"cannot parse value {text!r}")

    v = parse_atom()
    skip_ws()
    if pos[0] != len(text):
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
    """Rebuild a checker counterexample from a parsed violation trace."""
    if parse.violated is None:
        raise TlaError("log contains no violation")
    if not parse.trace or parse.trace[0][0] != "":
        raise TlcDialectError("trace does not start at the initial state")
    initial = checker.state_vector(model, parse.trace[0][1])
    steps = []
    for label, assigns in parse.trace[1:]:
        tid, args = _parse_action_label(label)
        t = model.transition(tid)
        if len(args) != len(t.params):
            raise TlcDialectError(
                f"action {tid} expects {len(t.params)} arguments")
        binding = tuple((p, a) for (p, _), a in zip(t.params, args))
        steps.append(checker.TraceStep(
            tid, binding, checker.state_vector(model, assigns)))
    return checker.Counterexample(
        model.name, parse.violated, len(steps), initial, tuple(steps))


def to_check_result(parse: TlcLogParse,
                    model: ir.ProtocolModel) -> checker.CheckResult:
    if parse.violated is None:
        return checker.CheckResult("PASS", parse.distinct_states)
    return checker.CheckResult("FAIL", parse.distinct_states,
                               to_counterexample(parse, model))


def format_tlc_log(model: ir.ProtocolModel,
                   result: checker.CheckResult) -> str:
    """Render a check result in the TLC output dialect.

    Used to author interop fixtures and to round-trip traces in tests.
    """
    enums = _enum_values(model)
    out = ["TLC2 Version 2.18"]
    cx = result.counterexample
    if cx is not None:
        out.append(f"Error: Invariant {cx.property_id} is violated.")
        out.append("The behavior up to this point is:")

        def emit_state(n, label, vector):
            out.append(f"State {n}: <{label}>")
            for var, value in checker.state_dict(model, vector).items():
                out.append(f"/\\ {var} = {_emit_value(value, enums)}")
            out.append("")

        emit_state(1, "Initial predicate", cx.initial)
        for i, step in enumerate(cx.steps):
            model.transition(step.transition_id)  # raises on unknown id
            label = step.transition_id
            if step.binding:
                label += "(" + ", ".join(a for _, a in step.binding) + ")"
            emit_state(i + 2, f"{label} line 1, col 1 to line 1, col 1 of "
                       f"module {_module_name(model)}", step.post_state)
    else:
        out.append("Model checking completed. No error has been found.")
    out.append(f"{result.states_explored * 2} states generated, "
               f"{result.states_explored} distinct states found, "
               "0 states left on queue.")
    return "\n".join(out) + "\n"
