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

    def __str__(self):
        return f"COUNTER({self.max})"


class EnumSort(Record):
    __slots__ = ("values",)

    def __str__(self):
        return "ENUM[" + ", ".join(self.values) + "]"


class SetSort(Record):
    __slots__ = ("over",)  # domain name

    def __str__(self):
        return f"SET({self.over})"


class MapSort(Record):
    __slots__ = ("key", "value")  # key: domain name

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


def leaf_sort(sort: Sort) -> Sort:
    """The sort of a map's innermost values; a non-map sort itself."""
    while isinstance(sort, MapSort):
        sort = sort.value
    return sort


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


class InitAll(Record):
    __slots__ = ("expr",)  # same value for every key of a map


class InitMap(Record):
    __slots__ = ("entries",)  # ((key, E.Expr), ...)


InitSpec = Union[InitExpr, InitAll, InitMap]


# ---------------------------------------------------------------------------
# Domain types

class SourceRef(Record):
    __slots__ = ("document", "section", "quote")
    _defaults = {"section": "", "quote": ""}

    @property
    def invented(self) -> bool:
        return self.document == INVENTED_MARKER


INVENTED_REF = SourceRef(INVENTED_MARKER)


class NormativeClause(Record):
    __slots__ = ("id", "protocol", "modality", "actor", "behavior", "source",
                 "ambiguous", "precedence")
    _defaults = {"ambiguous": False, "precedence": 1}


class StateVarDecl(Record):
    __slots__ = ("name", "sort", "init")

    def initial_value(self, constants):
        return eval_init(self.init, self.sort, constants)


def eval_init(init: InitSpec, sort: Sort, constants):
    """The value of a well-sorted initial value (`typecheck`) under
    the bounded domains constants: a map literal keeps only its keys that
    are atoms of its key domain there."""
    if isinstance(init, InitExpr):
        return E.evaluate(init.expr, {}, constants)
    if not isinstance(sort, MapSort):
        raise IrError(f"initial value {init!r} needs a MAP sort")
    if isinstance(init, InitMap):
        return E.FMap.of({k: E.evaluate(x, {}, constants) for k, x in
                          init.entries if k in constants.get(sort.key, ())})
    v = eval_init(init if isinstance(sort.value, MapSort)
                  else InitExpr(init.expr), sort.value, constants)
    return E.FMap.of({k: v for k in constants.get(sort.key, ())})


class UpdateTarget(Record):
    # keys: key expressions for map targets, outermost first
    __slots__ = ("var", "keys")
    _defaults = {"keys": ()}

    def __str__(self):
        return self.var + "".join(f"[{E.print_expr(k)}]" for k in self.keys)


class Transition(Record):
    # kind: Protocol | Environment | Adversary
    # params: ((name, domain), ...)
    # updates: ((UpdateTarget, E.Expr), ...); unlisted vars unchanged
    # adv: ADV-1 / ADV-2 / ADV-3 for Adversary kind
    __slots__ = ("id", "kind", "actor", "params", "guard", "updates",
                 "modality", "source_refs", "adv")
    _defaults = {"modality": "NOT_SPECIFIED", "source_refs": (),
                 "adv": None}


class Property(Record):
    # cls: property class
    __slots__ = ("id", "principle", "cls", "invariant", "source_refs")
    _defaults = {"source_refs": ()}


class ProtocolModel(Record):
    # constants: ((domain, (atom, ...)), ...), declaration order
    # aps: ((layer, status), ...) bundled metadata, may be empty
    __slots__ = ("name", "snapshot", "constants", "state_vars", "transitions",
                 "properties", "aps", "_typed", "_footprints")
    # _typed keeps `typecheck`'s findings, _footprints `footprints`
    _fields = __slots__[:-2]
    _defaults = {"aps": ()}

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


# ---------------------------------------------------------------------------
# Validation

class Finding(Record):
    # code: undeclared-symbol | bad-sort | init-sort-mismatch
    # | sort-mismatch | missing-provenance | missing-adv-tag
    # | bad-param-domain
    # subject: transition/property/var
    __slots__ = ("code", "subject", "detail")

    def __str__(self):
        return f"{self.code} in {self.subject}: {self.detail}"


class ValidationReport(Record):
    __slots__ = ("findings",)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_code(self, code: str) -> list:
        return [f for f in self.findings if f.code == code]


# An inferred sort is a tuple that starts with its kind: (BOOL,), (INT,),
# (ATOM, atoms) for one of some atoms, (SET, atoms) for a set of them and
# (MAP, key atoms, value sort, key domain). An ill-sorted term's sort is
# None, which fits anywhere, so that each mistake is reported once.
BOOL, INT, ATOM, SET, MAP = "BOOL", "INT", "an atom", "a SET", "a MAP"
_BOOL, _INT = (BOOL,), (INT,)


def _atoms(atoms) -> str:
    return "{" + ", ".join(sorted(atoms)) + "}"


def _show(s) -> str:
    if s[0] == MAP:
        return f"a MAP({_atoms(s[1])} -> {_show(s[2])})"
    return s[0] if len(s) == 1 else f"{s[0]} of {_atoms(s[1])}"


def _declared(sort: Sort, domains: dict):
    """The inferred form of a declared sort, None past an unknown domain;
    domains maps each domain to the sort of its atoms."""
    if isinstance(sort, (BoolSort, CounterSort)):
        return _BOOL if isinstance(sort, BoolSort) else _INT
    if isinstance(sort, EnumSort):
        return (ATOM, frozenset(sort.values))
    if isinstance(sort, SetSort):
        return sort.over in domains and (SET, domains[sort.over][1]) or None
    value = _declared(sort.value, domains)
    return value and sort.key in domains \
        and (MAP, domains[sort.key][1], value, sort.key) or None


def _fits(s, want) -> bool:
    """Whether a value of sort s may stand where sort want is declared. A
    map needs its target's key domain: a cap bounds a domain by its name,
    so another domain of the same atoms may keep other keys."""
    if s is None or want is None:
        return True
    if s[0] == want[0] == MAP:
        return s[3] == want[3] and _fits(s[2], want[2])
    return s[0] == want[0] and (len(s) == 1 or s[1] <= want[1])


def _want(x, kind, what, scope, domains, bad):
    """The sort of x, which must be of the given kind."""
    s = _infer(x, scope, domains, bad)
    if s is None or s[0] == kind:
        return s
    return bad(f"{what} {E.print_expr(x)} is {_show(s)}, not {kind}")


def _key(k, keys, scope, domains, bad):
    """Checks that the map key k is an atom of keys."""
    s = _want(k, ATOM, "map key", scope, domains, bad)
    if s is not None and keys is not None and not s[1] <= keys:
        bad(f"map key {E.print_expr(k)} may be {_atoms(s[1] - keys)}, "
            f"outside the key domain {_atoms(keys)}")


# the operand kinds of a comparison other than = and # (INT for orderings)
_OPERANDS = {"in": (ATOM, SET), "notin": (ATOM, SET), "subseteq": (SET, SET)}


def _infer(e, scope: dict, domains: dict, bad):
    """The sort of e. scope maps each name e may use to its sort, as
    `expr.evaluate` resolves it: a bound variable, else a state variable,
    a domain (the set of its atoms) or an atom. Each mismatch goes to
    bad(problem) and gives its term the sort None."""
    t = type(e)
    if t is E.Name:
        if e.name in scope:
            return scope[e.name]
        return bad(f"unknown name {e.name!r}")
    if t is E.Cmp:
        if e.op in ("=", "#"):
            l = _infer(e.lhs, scope, domains, bad)
            r = _infer(e.rhs, scope, domains, bad)
            if l and r and l[0] != r[0]:
                bad(f"cannot compare {_show(l)} {e.op} {_show(r)}")
            return _BOOL
        lhs, rhs = _OPERANDS.get(e.op, (INT, INT))
        _want(e.lhs, lhs, "element" if lhs == ATOM else "operand", scope,
              domains, bad)
        _want(e.rhs, rhs, "operand", scope, domains, bad)
        return _BOOL
    if t is E.Index:
        base = _want(e.base, MAP, "indexed term", scope, domains, bad)
        _key(e.key, base and base[1], scope, domains, bad)
        return base and base[2]
    if t is E.IntLit or t is E.BoolLit:
        return _INT if t is E.IntLit else _BOOL
    if t is E.Forall or t is E.Exists:
        if e.domain not in domains:
            bad(f"unknown domain {e.domain!r}")
        _want(e.body, BOOL, "quantifier body",
              {**scope, e.var: domains.get(e.domain)}, domains, bad)
        return _BOOL
    if t is E.BinTerm:
        kind = INT if e.op == "+" else SET
        l = _want(e.lhs, kind, "operand", scope, domains, bad)
        r = _want(e.rhs, kind, "operand", scope, domains, bad)
        return _INT if kind == INT else l and r and (SET, l[1] | r[1])
    if t is E.SetLit:
        atoms = frozenset()
        for x in e.items:
            s = _want(x, ATOM, "set element", scope, domains, bad)
            atoms = atoms | s[1] if s else atoms
        return (SET, atoms)
    for x in E.children(e):  # not, and, or, =>
        _want(x, BOOL, "operand", scope, domains, bad)
    return _BOOL


def _path(s) -> str:
    """The key domains of a map sort, outermost first."""
    return s[3] + (" -> " + _path(s[2]) if s[2][0] == MAP else "")


def _expect(s, want, bad):
    if _fits(s, want):
        return
    text = f"the value is {_show(s)}, not {_show(want)}"
    if _show(s) == _show(want):  # maps over other domains of the same atoms
        text += f": its key domains are {_path(s)}, not {_path(want)}"
    bad(text)


def _target(target: UpdateTarget, var_sorts, scope, domains, bad):
    """The sort an update of target stores; checks its keys."""
    if target.var not in var_sorts:
        return bad(f"{target.var!r} is not a state variable")
    s = var_sorts[target.var]
    for k in target.keys:
        if s is not None and s[0] != MAP:
            s = bad(f"{target} indexes past a map leaf")
        _key(k, s and s[1], scope, domains, bad)
        s = s and s[2]
    return s


def _init_sorts(v: StateVarDecl, want, scope, domains, bad):
    """Checks v's initial value, which reads no state: `all x` puts x at
    every leaf, a map literal a value at each key of the domain, and a
    counter starts in its range."""
    init = v.init
    if not isinstance(init, InitExpr) and not isinstance(v.sort, MapSort):
        return bad(f"needs a MAP sort, not {v.sort}")
    if isinstance(init, InitMap):
        if {k for k, _ in init.entries} != want[1]:
            bad(f"the keys are not those of {v.sort.key}")
        for _, x in init.entries:
            _expect(_infer(x, scope, domains, bad), want[2], bad)
        return
    while isinstance(init, InitAll) and want[0] == MAP:
        want = want[2]
    s = _infer(init.expr, scope, domains, bad)
    _expect(s, want, bad)
    if isinstance(v.sort, CounterSort) and s == _INT \
            and not 0 <= E.evaluate(init.expr, {}, {}) <= v.sort.max:
        bad(f"the value is outside {v.sort}")


def _sort_pass(model: ProtocolModel, subjects) -> list:
    """One pass of sort inference over subjects, state variables,
    transitions and properties of model: a list of findings per subject.
    Every subterm gets one sort:
    BOOL, INT, an atom of a known set, a SET of such atoms, or a MAP from
    a domain's atoms to a sort. Guards and invariants are BOOL, operands
    have the sorts `expr.evaluate` requires and set elements are atoms, a
    map key is an atom of its key domain (as a parameter or quantified
    variable is of its domain), and an update stores its target's sort,
    a map over its target's key domain.
    Each mismatch, unknown name or unknown domain is a `sort-mismatch`
    finding that names the subject and prints the expression; an initial
    value, which reads no state, has `init-sort-mismatch` findings, and
    a sort or parameter naming an unknown domain an `undeclared-symbol`
    or `bad-param-domain` one; so does a parameter over a domain with no
    atoms, whose transition never fires. A COUNTER is a `bad-sort` under
    a MAP: only a counter variable's own stores are range-checked, so a
    map's counters would have no bound. Never raises for content."""
    domains = {d: (ATOM, frozenset(atoms)) for d, atoms in model.constants}
    consts = {a: (ATOM, frozenset((a,))) for a in model.atom_universe()}
    consts.update((d, (SET, atoms)) for d, (_, atoms) in domains.items())
    var_sorts = {v.name: _declared(v.sort, domains) for v in model.state_vars}
    state, groups = {**consts, **var_sorts}, []

    def reporter(subject, role, text):
        return lambda problem: out.append(Finding(
            "sort-mismatch", subject, f"{role} `{text()}`: {problem}"))

    for x in subjects:
        out = []  # x's findings, which reporter's lambdas append to
        groups.append(out)
        if isinstance(x, StateVarDecl) and var_sorts[x.name] is None:
            out.append(Finding("undeclared-symbol", x.name,
                               f"sort {x.sort} names an undeclared domain"))
        elif isinstance(x, StateVarDecl) and isinstance(x.sort, MapSort) \
                and isinstance(leaf_sort(x.sort), CounterSort):
            out.append(Finding("bad-sort", x.name,
                               f"sort {x.sort} puts a COUNTER under a MAP"))
        elif isinstance(x, StateVarDecl):
            _init_sorts(x, var_sorts[x.name], consts, domains,
                        lambda problem, v=x.name: out.append(
                            Finding("init-sort-mismatch", v, problem)))
        elif isinstance(x, Property):
            bad = reporter(x.id, "invariant", lambda: E.print_expr(x.invariant))
            _expect(_infer(x.invariant, state, domains, bad), _BOOL, bad)
        else:
            out += [Finding("bad-param-domain", x.id,
                            f"parameter {n!r} ranges over "
                            f"{'empty' if d in domains else 'unknown'} "
                            f"domain {d!r}")
                    for n, d in x.params if not domains.get(d, (0, ()))[1]]
            scope = {**state, **{n: domains.get(d) for n, d in x.params}}
            bad = reporter(x.id, "guard", lambda: E.print_expr(x.guard))
            _expect(_infer(x.guard, scope, domains, bad), _BOOL, bad)
            for target, rhs in x.updates:
                bad = reporter(x.id, "update",
                               lambda: f"{target} := {E.print_expr(rhs)}")
                want = _target(target, var_sorts, scope, domains, bad)
                _expect(_infer(rhs, scope, domains, bad), want, bad)
    return groups


def typecheck(model: ProtocolModel) -> dict:
    """The sort findings of model, kept in it: under None those of its
    state variables and transitions, and under the id of each of its
    properties that property's, which the model keeps alive. One pass
    makes them, once per model object; `subject_findings` adds those of
    other properties, under the property."""
    typed = getattr(model, "_typed", None)
    if typed is None:
        own = model.state_vars + model.transitions
        groups = _sort_pass(model, own + model.properties)
        typed = {id(p): tuple(found) for p, found in
                 zip(model.properties, groups[len(own):])}
        typed[None] = tuple(f for found in groups[:len(own)] for f in found)
        ProtocolModel._typed.__set__(model, typed)
    return typed


def subject_findings(model: ProtocolModel, subject) -> tuple:
    """The sort findings of subject in model (`typecheck`): a property,
    or None for the model's state variables and transitions. The model's
    own are found by id, so no invariant is hashed; any other property is
    checked in a pass of its own and kept by value, so an equal one is
    not checked again."""
    typed = typecheck(model)
    found = typed.get(None if subject is None else id(subject))
    if found is None:
        found = typed.get(subject)
        if found is None:
            found = typed[subject] = tuple(_sort_pass(model, (subject,))[0])
    return found


def refuse_ill_sorted(model: ProtocolModel, props=()):
    """Raises IrError naming the sort findings of model's state variables
    and transitions and of props, if any (`subject_findings`)."""
    findings = [f for x in (None, *props) for f in subject_findings(model, x)]
    if findings:
        raise IrError("; ".join(map(str, findings)))


def validate(model: ProtocolModel) -> ValidationReport:
    """Declarations and sorts (`typecheck`), and provenance: every
    Protocol-kind transition cites a source and every Adversary one
    carries an ADV tag. Pure; never raises for content problems, the
    report carries the findings."""
    findings = [f for x in (None, *model.properties)
                for f in subject_findings(model, x)]
    for t in model.transitions:
        if t.kind == "Protocol" and not t.source_refs:
            findings.append(Finding(
                "missing-provenance", t.id,
                "Protocol-kind transition has no source references"))
        if t.kind == "Adversary" and t.adv not in ADV_TAGS:
            findings.append(Finding(
                "missing-adv-tag", t.id,
                f"Adversary transition needs one of {ADV_TAGS}, got {t.adv!r}"))
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# Footprints and cones of influence

class Footprint(Record):
    # reads: each state access of the guard, right-hand sides and keys
    # (or of an invariant) once; stores: one per update, in order. An
    # access is (variable, keys), outermost key first, each (kind, name,
    # domain): ("atom", a, None), ("param", p, D), ("bound", x, D) for x
    # quantified over D, ("var", v, None) or ("opaque", None, None).
    # read_vars and written: the variables of reads and of stores.
    __slots__ = ("reads", "stores", "read_vars", "written")


def _key_of(k, names, scope) -> tuple:
    if type(k) is not E.Name:
        return ("opaque", None, None)
    return scope.get(k.name) or (
        "var" if k.name in names else "atom", k.name, None)


def _accesses(e, names, scope, out: dict):
    """Adds to out, a dict kept as an ordered set, each state access of
    e (`Footprint`) over the state variables names; scope maps each
    bound name to its key, hiding a state variable of its name."""
    t = type(e)
    if t is E.Name:
        if e.name in names and e.name not in scope:
            out[e.name, ()] = None
    elif t is E.Index:
        path = []
        while type(e) is E.Index:
            path.insert(0, e.key)
            e = e.base
        if type(e) is not E.Name:
            _accesses(e, names, scope, out)
        elif e.name in names and e.name not in scope:
            out[e.name, tuple(_key_of(k, names, scope) for k in path)] = None
        for k in path:
            _accesses(k, names, scope, out)
    elif t is E.Forall or t is E.Exists:
        _accesses(e.body, names, {**scope, e.var: ("bound", e.var, e.domain)},
                  out)
    else:
        for x in E.children(e):
            _accesses(x, names, scope, out)


def _footprint(names, scope, guard, updates) -> Footprint:
    """The `Footprint` of a guard, or an invariant, and updates."""
    reads = {}
    _accesses(guard, names, scope, reads)
    for target, rhs in updates:
        for x in (rhs, *target.keys):
            _accesses(x, names, scope, reads)
    stores = tuple([(target.var, tuple([_key_of(k, names, scope)
                                        for k in target.keys]))
                    for target, _ in updates])
    return Footprint(tuple(reads), stores, frozenset([v for v, _ in reads]),
                     frozenset([v for v, _ in stores]))


def footprints(model: ProtocolModel) -> tuple:
    """The `Footprint` of each transition of model, in order, made once
    per model object; a parameter hides a variable of its name."""
    prints = getattr(model, "_footprints", None)
    if prints is None:
        names = frozenset(model.var_names)
        prints = tuple([_footprint(
            names, {n: ("param", n, d) for n, d in t.params}, t.guard,
            t.updates) for t in model.transitions])
        ProtocolModel._footprints.__set__(model, prints)
    return prints


def footprint(model: ProtocolModel, invariant) -> Footprint:
    """The `Footprint` of an invariant over model's state: its reads."""
    return _footprint(frozenset(model.var_names), {}, invariant, ())


def cone(model: ProtocolModel, found: Footprint) -> frozenset:
    """The cone of influence of an invariant's footprint (`footprint`):
    the state variables it reads, and every variable read by a
    transition that stores into one of them, closed under that rule
    (`footprints`). No other transition can change a value the invariant
    reads, or whether a transition that can is enabled."""
    names, size = set(found.read_vars), -1
    while size != len(names):
        size = len(names)
        for p in footprints(model):
            if not p.written.isdisjoint(names):
                names |= p.read_vars
    return frozenset(names)


# ---------------------------------------------------------------------------
# Clause coverage

class CoverageReport(Record):
    # resolved: ((transition id, bool), ...) Protocol-kind only
    # uncovered_must: clause ids with no transition/property backing
    # ambiguity_contacts: ((property id, (clause id, ...)), ...)
    __slots__ = ("protocol", "resolved", "uncovered_must",
                 "ambiguity_contacts")

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
