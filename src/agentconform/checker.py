"""Bounded explicit-state model checker.

Breadth-first reachability over a ProtocolModel with per-invariant checking.
BFS guarantees counterexamples of minimal depth, which matters because
traces feed the replay harness where short action sequences are cheaper to
execute and easier to attribute.

Determinism contract: successors are expanded in sorted transition-id order,
then sorted parameter-binding order, so results are byte-identical across
runs.

Slicing: `check` and `check_all` search each property's slice, the model
with only the transitions that can influence its invariant (see `check`);
`enumerate_states` searches the whole model.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

from . import compiled as C
from . import expr as E
from . import ir
from .record import Record, replace


class CheckError(Exception):
    pass


class StateOverflowError(CheckError):
    """The depth or state budget ended a search with a live frontier;
    `states` is the count of states it reached, as BOUND_EXHAUSTED
    reports it."""

    def __init__(self, message: str, states: int):
        super().__init__(message)
        self.states = states


class Bounds(Record):
    # domain_caps: ((domain-name lowercased, cap), ...)
    __slots__ = ("domain_caps", "counter_max", "max_depth", "max_states")
    _defaults = {"domain_caps": (), "counter_max": 3, "max_depth": 20,
                 "max_states": 10**6}

    def cap_for(self, domain: str) -> Optional[int]:
        for name, cap in self.domain_caps:
            if name == domain.lower():
                return cap
        return None

    def with_caps(self, **caps) -> "Bounds":
        merged = dict(self.domain_caps)
        merged.update({k.lower(): v for k, v in caps.items()})
        return replace(self, domain_caps=tuple(sorted(merged.items())))


DEFAULT_BOUNDS = Bounds(
    domain_caps=(("agentid", 2), ("agents", 2), ("caps", 2),
                 ("sessions", 2), ("tasks", 2)),
    counter_max=3, max_depth=20, max_states=10**6)


def bounded_constants(model: ir.ProtocolModel, bounds: Bounds) -> dict:
    """Each domain's atoms as explored: a cap keeps a declared prefix and
    never adds atoms. The TLA+ emitter reads the same domains."""
    return {dom: atoms[:bounds.cap_for(dom)] for dom, atoms in model.constants}


class Instance(Record):
    # names, sorts ({name: sort}): the state variables in vector order
    # caps: {counter: its largest value}; initial: state vector
    __slots__ = ("model", "bounds", "names", "sorts", "constants", "atoms",
                 "caps", "initial")


def instance(model: ir.ProtocolModel, bounds: Bounds) -> Instance:
    """The bounded instance that the checker, the trace validator and the
    TLA+ emitter explore: the one place its domains, counter caps and
    initial state are made. Raises IrError naming the findings of an
    ill-sorted model, or a cap that drops an atom an update stores at by
    name (a literal atom key of a store in `ir.footprints`), naming the
    cap, the atom, the transition and the update: the checker could not
    take such a step, and TLA+'s EXCEPT would skip the store."""
    ir.refuse_ill_sorted(model)
    constants = bounded_constants(model, bounds)
    sorts = {v.name: v.sort for v in model.state_vars}
    if any(len(constants[d]) < len(atoms) for d, atoms in model.constants):
        for t, p in zip(model.transitions, ir.footprints(model)):
            for i, (kind, atom, _), dom in _unkept_keys(p.stores, sorts,
                                                        constants):
                if kind == "atom":  # declared in dom, as well-sorted
                    target, rhs = t.updates[i]
                    raise ir.IrError(
                        f"cap {dom.lower()}={bounds.cap_for(dom)} drops atom "
                        f"{atom!r}, which transition {t.id} stores at: update "
                        f"`{target} := {E.print_expr(rhs)}`")
    return Instance(
        model, bounds, model.var_names, sorts, constants,
        model.atom_universe(),
        {v.name: min(v.sort.max, bounds.counter_max)
         for v in model.state_vars if isinstance(v.sort, ir.CounterSort)},
        tuple(v.initial_value(constants) for v in model.state_vars))


def _unkept_keys(accesses, sorts, bounded):
    """Yields (i, key, domain) for each key of the i-th access
    (`ir.Footprint`) that may fall outside its map's key domain as
    bounded, and so raise: any but a parameter or quantified variable
    whose domain's bounded atoms all lie in it, an ENUM state variable
    whose values all do, or a literal atom that does."""
    for i, (var, keys) in enumerate(accesses):
        sort = sorts[var]
        for key in keys:
            kind, name, domain = key
            if kind == "var" and type(sorts[name]) is ir.EnumSort:
                atoms = sorts[name].values
            elif kind == "var" or kind == "opaque":
                atoms = None
            else:
                atoms = (name,) if kind == "atom" else bounded[domain]
            if atoms is None or not set(atoms) <= set(bounded[sort.key]):
                yield i, key, sort.key
            sort = sort.value


class TraceStep(Record):
    # binding: ((param, atom name), ...)
    # post_state: state vector
    __slots__ = ("transition_id", "binding", "post_state")


class Counterexample(Record):
    # initial: state vector
    __slots__ = ("model", "property_id", "depth", "initial", "steps")


class CheckResult(Record):
    # verdict: PASS | FAIL | BOUND_EXHAUSTED
    __slots__ = ("verdict", "states_explored", "counterexample")
    _defaults = {"counterexample": None}

    @property
    def failed(self) -> bool:
        return self.verdict == "FAIL"


# ---------------------------------------------------------------------------
# State handling

def _pairs(transitions, constants: dict) -> list:
    """Every (transition, ((param, atom), ...)) in expansion order."""
    return [(t, tuple(zip((n for n, _ in t.params), combo)))
            for t in sorted(transitions, key=lambda t: t.id)
            for combo in itertools.product(
                *(sorted(constants.get(d, ())) for _, d in t.params))]


def _apply(inst: Instance, t: ir.Transition, binding,
           vector: tuple) -> Optional[tuple]:
    """The post-state vector of t under binding from the state vector, by
    the reference evaluator, or None when the guard is false or a counter
    leaves its range. On a well-sorted model the order and errors are the
    kernel's (`compiled._writer`): an update's right-hand side is
    evaluated, range-checked and then its keys read, all in the
    pre-state; updates of one variable apply in order."""
    names, constants, atoms = inst.names, inst.constants, inst.atoms
    pre = dict(zip(names, vector))
    scope = {**pre, **dict(binding)}
    if not E.evaluate_bool(t.guard, scope, constants, atoms):
        return None
    for target, rhs in t.updates:
        v = E.evaluate(rhs, scope, constants, atoms)
        cap = inst.caps.get(target.var)
        if cap is not None and not 0 <= v <= cap:
            return None
        keys = [E.evaluate(k, scope, constants, atoms) for k in target.keys]
        pre[target.var] = _store(pre[target.var], keys, v)
    return tuple(map(pre.__getitem__, names))


def _store(old, keys, v):
    """old with v at the key path keys; a key outside the map raises
    KeyError."""
    if not keys:
        return v
    return old.set(keys[0], _store(old[keys[0]], keys[1:], v))


class _Engine:
    """Compiled successor and invariant evaluation for one bounded
    instance (`instance`), with the transitions whose ids are in kept,
    or all of them; prints maps each kept transition's id to its
    footprint (`ir.footprints`).

    The instance admits only a model `ir.typecheck` accepts; `invariant`
    raises IrError naming the findings of an ill-sorted property (found
    once per model). A state inside the engine is one packed
    int (`compiled.layout`, `compiled.pack`), with the fields of the
    variables the kept transitions store into from bit 0. State vectors
    appear only at the boundary: the initial state and counterexamples.
    The kernel (`compiled.kernel`) serves the search only: one call
    expands a whole BFS level over the steps of `_pairs`, in that order,
    and stops before a state once `seen` holds more than `budget`
    states. Its `memo` is keyed by the mask R that `compiled.read_mask`
    resolves from the footprints of the steps whose guards do not fold
    to false; it lives and dies with the engine, so the searches of one
    `check_all` that keep the same transitions share it.
    """

    def __init__(self, inst: Instance, kept=None):
        self.inst = inst
        model, constants = inst.model, inst.constants
        self.slots, leaves = C.layout(inst.names, list(inst.sorts.values()),
                                      constants)
        self.prints = {t.id: p for t, p in zip(model.transitions,
                                               ir.footprints(model))
                       if kept is None or t.id in kept}
        self.pairs = _pairs([t for t in model.transitions
                             if t.id in self.prints], constants)
        self.env = C.environment()
        C.pack(self.slots, leaves, model.constants_map, self.env,
               frozenset().union(*(p.written for p in self.prints.values())))
        self.start = C.encode(inst.initial, self.env)
        steps, live = [], []
        for t, binding in self.pairs:
            step = C.compile_step(t, binding, self.slots, constants,
                                  inst.caps, self.env)
            if step[0] is not False:
                steps.append(step)
                live.append((self.prints[t.id], binding))
        # the initial state is never over the budget
        self.budget = max(inst.bounds.max_states, 1)
        self.memo = {}  # the kernel's step effects, shared by searches
        self.expand = C.kernel(
            steps, C.read_mask(live, self.slots, constants, self.env),
            self.env, self.budget, self.memo)

    def canonical(self, state: int) -> tuple:
        return C.decode(state, self.env)

    def invariant(self, prop: ir.Property):
        """The property's invariant as a predicate on packed states."""
        ir.refuse_ill_sorted(self.inst.model, (prop,))
        return C.function(C.value(
            C.compile_expr(prop.invariant, self.slots, self.inst.constants,
                           self.env), self.env)[0], self.env)


# ---------------------------------------------------------------------------
# Public operations

def _bfs(eng: _Engine, parents: dict):
    """Yields, per BFS level, the list of its newly reached states in
    deterministic BFS order.

    `parents` holds only the initial state (mapped to None) on entry; every
    reached state is recorded as `parents[post] = pre`, by the first
    (pre, step) to reach it. Each level is one call of the kernel over
    the whole frontier, which hashes each post-state once, against
    `parents`, and appends the new ones to the level. A step whose
    evaluation raises ends the search, but only once the states reached
    before it are searched: they are yielded first. Raises
    StateOverflowError when the depth or state budget ends the search
    with a live frontier: past the budget, only the states within it
    are yielded.
    """
    bounds, expand, budget = eng.inst.bounds, eng.expand, eng.budget
    frontier = list(parents)
    depth = 0
    while frontier:
        if depth >= bounds.max_depth:
            raise StateOverflowError(
                f"depth bound {bounds.max_depth} hit with live frontier",
                len(parents))
        depth += 1
        level, raised = [], None
        try:
            expand(frontier, parents, level)
        except Exception as exc:
            raised = exc
        over = len(parents) - budget
        if over > 0:
            yield level[:len(level) - over]
            raise StateOverflowError(
                f"more than {bounds.max_states} states", budget + 1)
        yield level
        if raised is not None:
            raise raised
        frontier = level


def _extract(eng: _Engine, prop: ir.Property, parents: dict,
             final: int) -> Counterexample:
    path = [final]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path = [eng.canonical(s) for s in reversed(path)]
    names, steps = eng.inst.names, []
    # the first step from pre reaching post is the one BFS recorded; only
    # a transition that stores every variable that changed can be it
    for pre, post in zip(path, path[1:]):
        changed = {n for n, a, b in zip(names, pre, post) if a != b}
        steps.append(next(
            TraceStep(t.id, binding, post) for t, binding in eng.pairs
            if changed <= eng.prints[t.id].written
            and _apply(eng.inst, t, binding, pre) == post))
    return Counterexample(eng.inst.model.name, prop.id, len(steps), path[0],
                          tuple(steps))


def check(model: ir.ProtocolModel, prop: ir.Property,
          bounds: Bounds = DEFAULT_BOUNDS) -> CheckResult:
    """BFS reachability of the property's slice; FAIL carries a
    minimal-depth counterexample.

    The slice is the model with only the transitions that store into the
    property's cone of influence (`ir.cone`): the variables the invariant
    reads, closed under the reads of every transition that stores into
    one of them. No other transition can change what the invariant
    reads, or whether a kept transition is enabled, so the slice
    reaches a violation exactly when the model does, at the same least
    depth. States stay whole, so a FAIL trace is a trace of the whole
    model, and `states_explored` counts the states of the slice's
    search. A property whose cone no transition stores into is decided
    at the initial state under any depth bound of 1 or more.

    PASS is reported only when the frontier is exhausted within bounds;
    hitting the depth or state budget yields BOUND_EXHAUSTED, never PASS.
    The slice's states carry the variables outside its cone, so it may
    need more depth or states than the whole model to be exhausted: a
    slice's search that a bound ends is searched again in the whole
    model, whose result is reported, its count included. Three kinds of
    search stay whole, so that an ERROR verdict keeps its place in the
    search: `enumerate_states`, the searches of a model with a step that
    can raise in the bounded instance, and that of a property whose
    invariant can raise, as their footprints tell (`_unkept_keys`).

    An ill-sorted model or property (`ir.typecheck`), a cap that drops an
    atom an update stores at, or a key outside a capped domain, yields an
    ERROR verdict naming the problem.
    """
    return check_all(model, [prop], bounds)[prop.id]


def _search(eng: _Engine, prop: ir.Property) -> CheckResult:
    """One property's BFS; the explored-state count is the first
    violating state's place in discovery order, and its trace is minimal
    because BFS visits states in depth order."""
    parents = {eng.start: None}
    explored = 0
    try:
        holds = eng.invariant(prop)
        for level in itertools.chain(([eng.start],), _bfs(eng, parents)):
            for state in level:
                explored += 1
                if not holds(state):
                    return CheckResult("FAIL", explored,
                                       _extract(eng, prop, parents, state))
    except StateOverflowError as exc:
        return CheckResult("BOUND_EXHAUSTED", exc.states)
    except Exception as exc:  # a guard, update or invariant that raises
        return CheckResult(f"ERROR: {exc}", 0)
    return CheckResult("PASS", explored)


def check_all(model: ir.ProtocolModel, properties,
              bounds: Bounds = DEFAULT_BOUNDS) -> dict:
    """Checks each property with its own search of its slice (see
    `check`); results therefore equal per-property check() calls.

    Properties with the same slice share one engine and its memo, built
    once for all of them. A separate search per property costs little:
    a FAIL search stops at its first violating state (within a few
    hundred states on every bundled model). A model the bounded instance
    refuses (`instance`) gets every property an ERROR naming why.
    """
    try:
        inst = instance(model, bounds)
    except ir.IrError as exc:
        return {p.id: CheckResult(f"ERROR: {exc}", 0) for p in properties}
    whole = frozenset(t.id for t in model.transitions)
    engines = {}  # kept transition ids -> engine, or what building raised

    def search(kept, prop):
        if kept not in engines:
            try:
                engines[kept] = _Engine(inst, kept)
            except Exception as exc:
                engines[kept] = exc
        eng = engines[kept]
        if isinstance(eng, Exception):
            return CheckResult(f"ERROR: {eng}", 0)
        return _search(eng, prop)

    out = {}
    for prop, kept in zip(properties, _slices(inst, properties)):
        res = search(kept, prop)
        if res.verdict == "BOUND_EXHAUSTED" and kept != whole:
            res = search(whole, prop)
        out[prop.id] = res
    return out


def _slices(inst: Instance, properties) -> list:
    """Per property, the ids of the transitions its search keeps in the
    bounded instance: those that store into the property's cone
    (`ir.cone`), or every one where the search stays whole (see
    `check`)."""
    model, sorts, bounded = inst.model, inst.sorts, inst.constants
    whole = frozenset(t.id for t in model.transitions)
    prints = ir.footprints(model)
    if any(_unkept_keys([a for p in prints for a in p.reads + p.stores],
                        sorts, bounded)):
        return [whole] * len(properties)
    out = []
    for prop in properties:
        found = ir.footprint(model, prop.invariant)
        if ir.subject_findings(model, prop) or any(_unkept_keys(
                found.reads, sorts, bounded)):
            out.append(whole)
            continue
        names = ir.cone(model, found)
        out.append(frozenset(t.id for t, p in zip(model.transitions, prints)
                             if not p.written.isdisjoint(names)))
    return out


def enumerate_states(model: ir.ProtocolModel,
                     bounds: Bounds = DEFAULT_BOUNDS) -> int:
    """Exact count of distinct reachable states within bounds."""
    eng = _Engine(instance(model, bounds))
    parents = {eng.start: None}
    for _ in _bfs(eng, parents):
        pass
    return len(parents)


def validate_trace(model: ir.ProtocolModel, cx: Counterexample,
                   prop: Optional[ir.Property] = None,
                   bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Internal soundness oracle: replays the trace with the reference
    evaluator (`_apply`), independent of the compiled kernel.

    True iff the trace starts in the model's initial state, each step
    binds its transition's parameters to atoms, is enabled and reaches
    its recorded post-state, and the property holds in every state but
    the last, which violates it. The replay goes on from the states it
    computes. Raises IrError for an ill-sorted model or property, or a
    bounded instance that `instance` refuses, as the checker does.
    """
    if prop is None:
        prop = model.property_by_id(cx.property_id)
    ir.refuse_ill_sorted(model, (prop,))
    inst = instance(model, bounds)
    # raises KeyError for an unknown action
    steps = [(model.transition(s.transition_id), s) for s in cx.steps]

    def holds(vector):
        return E.evaluate_bool(prop.invariant, dict(zip(inst.names, vector)),
                               inst.constants, inst.atoms)
    if cx.initial != inst.initial:
        return False
    cur = inst.initial
    for t, step in steps:
        bound = dict(step.binding)
        if not holds(cur) or set(bound) != {n for n, _ in t.params} \
                or any(type(a) is not str for a in bound.values()):
            return False
        cur = _apply(inst, t, step.binding, cur)
        if cur != step.post_state:
            return False
    return not holds(cur) and cx.depth == len(cx.steps)


# ---------------------------------------------------------------------------
# Counterexample documents (the Phase-2 input format)

def value_to_json(v):
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, frozenset):
        return sorted(value_to_json(x) for x in v)
    if isinstance(v, E.FMap):
        return {k: value_to_json(x) for k, x in v.items}
    raise CheckError(f"unencodable value {v!r}")


# per sort: the JSON type of its values
_JSON_TYPES = {ir.BoolSort: bool, ir.CounterSort: int, ir.EnumSort: str,
               ir.SetSort: list, ir.MapSort: dict}


def value_from_json(obj, sort: ir.Sort):
    """The value that obj, decoded JSON, gives a variable of this sort.
    Raises TypeError unless obj has the sort's JSON type: a bool, an int
    that is no bool, a string, a list of strings or an object."""
    want = _JSON_TYPES[type(sort)]
    if type(obj) is not want or want is list and any(
            type(x) is not str for x in obj):
        raise TypeError(f"{json.dumps(obj, default=repr)} is no {sort} value")
    if want is list:
        return frozenset(obj)
    if want is dict:
        return E.FMap.of({k: value_from_json(v, sort.value)
                          for k, v in obj.items()})
    return obj


def export_counterexample(model: ir.ProtocolModel, cx: Counterexample) -> str:
    doc = {
        "model": cx.model,
        "property": cx.property_id,
        "depth": cx.depth,
        "initial": {v.name: value_to_json(cx.initial[i])
                    for i, v in enumerate(model.state_vars)},
        "steps": [
            {"action": s.transition_id,
             "params": dict(s.binding),
             "state": {v.name: value_to_json(s.post_state[i])
                       for i, v in enumerate(model.state_vars)}}
            for s in cx.steps],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def decode_trace(model: ir.ProtocolModel, property_id, depth, initial,
                 steps, value=value_from_json) -> Counterexample:
    """A counterexample from a trace document, or a CheckError naming what
    does not fit the model. A state maps variable names to what
    `value(v, sort)` decodes; each step is (action, params, state), params
    naming its atoms or, as in a TLC action label, listing them in
    declared order; depth must count the steps."""
    def decode(obj, where):
        if not isinstance(obj, dict):
            raise CheckError(f"{where} is not a map of variables")
        for v in model.state_vars:
            if v.name not in obj:
                raise CheckError(f"{where} lacks variable {v.name!r}")
        try:
            return tuple(value(obj[v.name], v.sort) for v in model.state_vars)
        except TypeError as exc:
            raise CheckError(f"{where} holds a bad value: {exc}") from None

    def trace_step(i, action, params, state):
        where = f"step {i} ({action})"
        try:
            names = [n for n, _ in model.transition(action).params]
        except KeyError:
            raise CheckError(f"{where}: unknown action {action!r}") from None
        if isinstance(params, list):
            if len(params) != len(names):
                raise CheckError(f"{where} has {len(params)} arguments, "
                                 f"not {len(names)}")
            params = dict(zip(names, params))
        for n in names:
            if n not in params:
                raise CheckError(f"{where} lacks parameter {n!r}")
        # the declared parameter order, as the checker binds them
        return TraceStep(action, tuple((n, params[n]) for n in names),
                         decode(state, f"{where} state"))

    start = decode(initial, "initial state")
    steps = tuple(trace_step(i, *step) for i, step in enumerate(steps, 1))
    if type(depth) is not int or depth != len(steps):
        raise CheckError(f"depth {depth!r} does not count the "
                         f"{len(steps)} steps")
    return Counterexample(model.name, property_id, depth, start, steps)


def _fields(obj, keys, where) -> list:
    """obj's values at keys, if obj is a JSON object with all of them."""
    if not isinstance(obj, dict):
        raise CheckError(f"{where} is not a JSON object")
    for k in keys:
        if k not in obj:
            raise CheckError(f"{where} lacks {k!r}")
    return [obj[k] for k in keys]


def import_counterexample(model: ir.ProtocolModel, text: str) -> Counterexample:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"counterexample is not JSON: {exc}") from None
    name, prop, depth, initial, steps = _fields(
        doc, ("model", "property", "depth", "initial", "steps"),
        "counterexample")
    if name != model.name:
        raise CheckError(f"counterexample is for model {name!r}, "
                         f"not {model.name!r}")
    if not isinstance(steps, list):
        raise CheckError("counterexample steps are not a JSON list")
    steps = [_fields(s, ("action", "params", "state"), f"step {i}")
             for i, s in enumerate(steps, 1)]
    if any(not isinstance(params, dict) for _, params, _ in steps):
        raise CheckError("a step's params are not a JSON object")
    return decode_trace(model, prop, depth, initial, steps)
