"""Typed Protocol IR: clause store, model structure, validation, coverage.

A ProtocolModel is a finite-state description of one protocol: constant
domains, sorted state variables, kinded transitions (Protocol / Environment /
Adversary) and classed properties. Every Protocol-kind transition must carry
provenance back to a normative clause; Environment and Adversary transitions
carry the explicit marker for modeling assumptions instead.
"""

from __future__ import annotations

from typing import Optional, Union

from . import expr as E
from .record import Record

INVENTED_MARKER = "invented — modeling assumption"

MODALITIES = ("MUST", "SHOULD", "MAY", "NOT_SPECIFIED")
KINDS = ("Protocol", "Environment", "Adversary")
ADV_TAGS = ("ADV-1", "ADV-2", "ADV-3")
PRINCIPLES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "WF", "SL", "CS")
PROPERTY_CLASSES = ("spec-mandated", "spec-recommended", "aasm-hardening",
                    "aps-completeness")


class IrError(Exception):
    pass


# ---------------------------------------------------------------------------
# Sorts

class BoolSort(Record):
    __slots__ = ()

    def __str__(self):
        return "BOOL"


class CounterSort(Record):
    __slots__ = ("max",)

    def __init__(self, max: int):
        object.__setattr__(self, "max", max)

    def __str__(self):
        return f"COUNTER({self.max})"


class EnumSort(Record):
    __slots__ = ("values",)

    def __init__(self, values: tuple):
        object.__setattr__(self, "values", values)

    def __str__(self):
        return "ENUM[" + ", ".join(self.values) + "]"


class SetSort(Record):
    __slots__ = ("over",)

    def __init__(self, over: str):
        object.__setattr__(self, "over", over)  # domain name

    def __str__(self):
        return f"SET({self.over})"


class MapSort(Record):
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: "Sort"):
        object.__setattr__(self, "key", key)  # domain name
        object.__setattr__(self, "value", value)

    def __str__(self):
        return f"MAP({self.key} -> {self.value})"


Sort = Union[BoolSort, CounterSort, EnumSort, SetSort, MapSort]


def sort_atoms(sort: Sort) -> set:
    """Enum values introduced by a sort (recursing through map values)."""
    if isinstance(sort, EnumSort):
        return set(sort.values)
    if isinstance(sort, MapSort):
        return sort_atoms(sort.value)
    return set()


def sort_domains(sort: Sort) -> set:
    """Domain names a sort refers to."""
    if isinstance(sort, SetSort):
        return {sort.over}
    if isinstance(sort, MapSort):
        return {sort.key} | sort_domains(sort.value)
    return set()


def value_in_sort(v, sort: Sort, constants) -> bool:
    if isinstance(sort, BoolSort):
        return isinstance(v, bool)
    if isinstance(sort, CounterSort):
        return isinstance(v, int) and not isinstance(v, bool) \
            and 0 <= v <= sort.max
    if isinstance(sort, EnumSort):
        return isinstance(v, str) and v in sort.values
    if isinstance(sort, SetSort):
        dom = constants.get(sort.over, ())
        return isinstance(v, frozenset) and all(
            isinstance(x, str) and x in dom for x in v)
    if isinstance(sort, MapSort):
        dom = constants.get(sort.key, ())
        return isinstance(v, E.FMap) \
            and sorted(v.keys()) == sorted(dom) \
            and all(value_in_sort(x, sort.value, constants)
                    for _, x in v.items)
    return False


# ---------------------------------------------------------------------------
# Initial-value specs (kept structured for serialization round-trips)

class InitExpr(Record):
    __slots__ = ("expr",)

    def __init__(self, expr: E.Expr):
        object.__setattr__(self, "expr", expr)


class InitAll(Record):
    __slots__ = ("expr",)

    def __init__(self, expr: E.Expr):
        # same value for every key of a map
        object.__setattr__(self, "expr", expr)


class InitMap(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        object.__setattr__(self, "entries", entries)  # ((key, E.Expr), ...)


InitSpec = Union[InitExpr, InitAll, InitMap]


# ---------------------------------------------------------------------------
# Domain types

class SourceRef(Record):
    __slots__ = ("document", "section", "quote")

    def __init__(self, document: str, section: str = "", quote: str = ""):
        object.__setattr__(self, "document", document)
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "quote", quote)

    @property
    def invented(self) -> bool:
        return self.document == INVENTED_MARKER


INVENTED_REF = SourceRef(INVENTED_MARKER)


class NormativeClause(Record):
    __slots__ = ("id", "protocol", "modality", "actor", "behavior", "source",
                 "ambiguous", "precedence")

    def __init__(self, id: str, protocol: str, modality: str, actor: str,
                 behavior: str, source: SourceRef, ambiguous: bool = False,
                 precedence: int = 1):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "modality", modality)
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "behavior", behavior)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "ambiguous", ambiguous)
        object.__setattr__(self, "precedence", precedence)


class StateVarDecl(Record):
    __slots__ = ("name", "sort", "init")

    def __init__(self, name: str, sort: Sort, init: InitSpec):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "init", init)

    def initial_value(self, constants):
        return eval_init(self.init, self.sort, constants)


def eval_init(init: InitSpec, sort: Sort, constants):
    if isinstance(init, InitExpr):
        return E.evaluate(init.expr, {}, constants)
    if isinstance(init, InitAll):
        if not isinstance(sort, MapSort):
            raise IrError("'init all' requires a MAP sort")
        v = eval_init(InitExpr(init.expr), sort.value, constants) \
            if not isinstance(sort.value, MapSort) \
            else eval_init(InitAll(init.expr), sort.value, constants)
        return E.FMap.of({k: v for k in constants.get(sort.key, ())})
    if isinstance(init, InitMap):
        if not isinstance(sort, MapSort):
            raise IrError("map-literal init requires a MAP sort")
        return E.FMap.of({k: E.evaluate(x, {}, constants)
                          for k, x in init.entries})
    raise IrError(f"bad init spec {init!r}")


class UpdateTarget(Record):
    __slots__ = ("var", "keys")

    def __init__(self, var: str, keys: tuple = ()):
        object.__setattr__(self, "var", var)
        # key expressions for map targets, outermost first
        object.__setattr__(self, "keys", keys)

    def __str__(self):
        return self.var + "".join(f"[{E.print_expr(k)}]" for k in self.keys)


class Transition(Record):
    __slots__ = ("id", "kind", "actor", "params", "guard", "updates",
                 "modality", "source_refs", "adv")

    def __init__(self, id: str, kind: str, actor: str, params: tuple,
                 guard: E.Expr, updates: tuple,
                 modality: str = "NOT_SPECIFIED", source_refs: tuple = (),
                 adv: Optional[str] = None):
        object.__setattr__(self, "id", id)
        # Protocol | Environment | Adversary
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "params", params)  # ((name, domain), ...)
        object.__setattr__(self, "guard", guard)
        # ((UpdateTarget, E.Expr), ...); unlisted vars unchanged
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "modality", modality)
        object.__setattr__(self, "source_refs", source_refs)
        # ADV-1 / ADV-2 / ADV-3 for Adversary kind
        object.__setattr__(self, "adv", adv)


class Property(Record):
    __slots__ = ("id", "principle", "cls", "invariant", "source_refs")

    def __init__(self, id: str, principle: str, cls: str, invariant: E.Expr,
                 source_refs: tuple = ()):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "principle", principle)
        object.__setattr__(self, "cls", cls)  # property class
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "source_refs", source_refs)


class ProtocolModel(Record):
    __slots__ = ("name", "snapshot", "constants", "state_vars", "transitions",
                 "properties", "aps")

    def __init__(self, name: str, snapshot: str, constants: tuple,
                 state_vars: tuple, transitions: tuple, properties: tuple,
                 aps: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "snapshot", snapshot)
        # ((domain, (atom, ...)), ...), declaration order
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "state_vars", state_vars)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "properties", properties)
        # ((layer, status), ...) bundled metadata, may be empty
        object.__setattr__(self, "aps", aps)

    @property
    def constants_map(self) -> dict:
        return dict(self.constants)

    @property
    def var_names(self) -> tuple:
        return tuple(v.name for v in self.state_vars)

    def var(self, name: str) -> StateVarDecl:
        for v in self.state_vars:
            if v.name == name:
                return v
        raise KeyError(name)

    def transition(self, tid: str) -> Transition:
        for t in self.transitions:
            if t.id == tid:
                return t
        raise KeyError(tid)

    def property_by_id(self, pid: str) -> Property:
        for p in self.properties:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def atom_universe(self) -> frozenset:
        atoms = set()
        for _, members in self.constants:
            atoms.update(members)
        for v in self.state_vars:
            atoms.update(sort_atoms(v.sort))
        return frozenset(atoms)

    def initial_state(self) -> dict:
        consts = self.constants_map
        return {v.name: v.initial_value(consts) for v in self.state_vars}


# ---------------------------------------------------------------------------
# Validation

class Finding(Record):
    __slots__ = ("code", "subject", "detail")

    def __init__(self, code: str, subject: str, detail: str):
        # undeclared-symbol | init-sort-mismatch | missing-provenance
        # | missing-adv-tag | bad-param-domain
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "subject", subject)  # transition/property/var
        object.__setattr__(self, "detail", detail)


class ValidationReport(Record):
    __slots__ = ("findings",)

    def __init__(self, findings: tuple):
        object.__setattr__(self, "findings", findings)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_code(self, code: str) -> list:
        return [f for f in self.findings if f.code == code]


def _declared_symbols(model: ProtocolModel) -> frozenset:
    return frozenset(model.var_names) \
        | frozenset(d for d, _ in model.constants) \
        | model.atom_universe() \
        | {"true", "false"}


def validate(model: ProtocolModel) -> ValidationReport:
    """Structural well-formedness and provenance checks. Pure; never raises
    for content problems, the report carries the findings."""
    findings = []
    declared = _declared_symbols(model)
    consts = model.constants_map

    def check_expr(e, subject, extra_bound=frozenset()):
        for sym in sorted(E.free_symbols(e) - declared - extra_bound):
            findings.append(Finding("undeclared-symbol", subject,
                                    f"symbol {sym!r} is not declared"))
        for sub in E.iter_subterms(e):
            if isinstance(sub, (E.Forall, E.Exists)) \
                    and sub.domain not in consts:
                findings.append(Finding(
                    "undeclared-symbol", subject,
                    f"quantifier domain {sub.domain!r} is not declared"))

    for v in model.state_vars:
        for dom in sorted(sort_domains(v.sort)):
            if dom not in consts:
                findings.append(Finding(
                    "undeclared-symbol", v.name,
                    f"sort references unknown domain {dom!r}"))
        try:
            init = v.initial_value(consts)
        except Exception as exc:  # init must at least evaluate
            findings.append(Finding("init-sort-mismatch", v.name, str(exc)))
            continue
        if not value_in_sort(init, v.sort, consts):
            findings.append(Finding(
                "init-sort-mismatch", v.name,
                f"initial value {init!r} not in sort {v.sort}"))

    for t in model.transitions:
        params = frozenset(n for n, _ in t.params)
        for name, dom in t.params:
            if dom not in consts:
                findings.append(Finding(
                    "bad-param-domain", t.id,
                    f"parameter {name!r} ranges over unknown domain {dom!r}"))
        check_expr(t.guard, t.id, params)
        for target, rhs in t.updates:
            if target.var not in model.var_names:
                findings.append(Finding(
                    "undeclared-symbol", t.id,
                    f"update target {target.var!r} is not a state variable"))
            for k in target.keys:
                check_expr(k, t.id, params)
            check_expr(rhs, t.id, params)
        if t.kind == "Protocol" and not t.source_refs:
            findings.append(Finding(
                "missing-provenance", t.id,
                "Protocol-kind transition has no source references"))
        if t.kind == "Adversary" and t.adv not in ADV_TAGS:
            findings.append(Finding(
                "missing-adv-tag", t.id,
                f"Adversary transition needs one of {ADV_TAGS}, got {t.adv!r}"))

    for p in model.properties:
        check_expr(p.invariant, p.id)

    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# Clause coverage

class CoverageReport(Record):
    __slots__ = ("protocol", "resolved", "uncovered_must",
                 "ambiguity_contacts")

    def __init__(self, protocol: str, resolved: tuple, uncovered_must: tuple,
                 ambiguity_contacts: tuple):
        object.__setattr__(self, "protocol", protocol)
        # ((transition id, bool), ...) Protocol-kind only
        object.__setattr__(self, "resolved", resolved)
        # clause ids with no transition/property backing
        object.__setattr__(self, "uncovered_must", uncovered_must)
        # ((property id, (clause id, ...)), ...)
        object.__setattr__(self, "ambiguity_contacts", ambiguity_contacts)

    @property
    def all_resolved(self) -> bool:
        return all(ok for _, ok in self.resolved)


def coverage(model: ProtocolModel, clauses) -> CoverageReport:
    """Match transition/property provenance against the clause store."""
    protos = {c.protocol for c in clauses}
    if protos and protos != {model.name}:
        raise IrError(
            f"clause protocol(s) {sorted(protos)} do not match model "
            f"{model.name!r}")

    by_loc = {}
    for c in clauses:
        by_loc.setdefault((c.source.document, c.source.section), []).append(c)

    def located(refs):
        out = []
        for r in refs:
            if not r.invented:
                out.extend(by_loc.get((r.document, r.section), []))
        return out

    resolved = tuple(
        (t.id, bool(located(t.source_refs)))
        for t in model.transitions if t.kind == "Protocol")

    referenced = set()
    for t in model.transitions:
        referenced.update(c.id for c in located(t.source_refs))
    for p in model.properties:
        referenced.update(c.id for c in located(p.source_refs))
    uncovered = tuple(c.id for c in clauses
                      if c.modality == "MUST" and c.id not in referenced)

    contacts = []
    for p in model.properties:
        amb = tuple(c.id for c in located(p.source_refs) if c.ambiguous)
        if amb:
            contacts.append((p.id, amb))

    return CoverageReport(model.name, resolved, uncovered, tuple(contacts))
