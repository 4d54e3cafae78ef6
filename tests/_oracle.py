"""Naive reference checker used to cross-check the BFS engine.

Deliberately shares nothing with checker._Engine beyond the expression
evaluator: successor computation is re-derived from the IR, states are
canonicalized by sorted variable name instead of declaration order, and
the search is a depth-first traversal with per-state best-depth memoing
rather than a frontier BFS. Exhaustive within bounds, so the minimal
violation depth it reports is exact.
"""

import itertools

from agentconform import expr as E
from agentconform import ir
from agentconform.checker import Bounds, DEFAULT_BOUNDS


def _constants(model, bounds):
    out = {}
    for dom, atoms in model.constants:
        cap = bounds.cap_for(dom)
        out[dom] = list(atoms) if cap is None else list(atoms)[:cap]
    return out


def _freeze(state):
    return tuple(sorted(state.items()))


def _thaw(frozen):
    return dict(frozen)


def _counter_cap(sort, bounds):
    if isinstance(sort, ir.CounterSort):
        return min(sort.max, bounds.counter_max)
    return None


def _set_nested(value, keys, new):
    if not keys:
        return new
    return value.set(keys[0], _set_nested(value[keys[0]], keys[1:], new))


def _successors(model, state, constants, atoms, sorts, bounds):
    out = []
    for t in model.transitions:
        domains = [constants.get(d, ()) for _, d in t.params]
        for combo in itertools.product(*domains):
            env = {n: a for (n, _), a in zip(t.params, combo)}
            scope = {**state, **env}
            if not E.evaluate(t.guard, scope, constants, atoms):
                continue
            new = dict(state)
            ok = True
            for target, rhs in t.updates:
                val = E.evaluate(rhs, scope, constants, atoms)
                cap = _counter_cap(sorts[target.var], bounds)
                if cap is not None and isinstance(val, int) \
                        and not isinstance(val, bool) \
                        and (val < 0 or val > cap):
                    ok = False
                    break
                if target.keys:
                    keys = [E.evaluate(k, scope, constants, atoms)
                            for k in target.keys]
                    new[target.var] = _set_nested(
                        new[target.var], keys, val)
                else:
                    new[target.var] = val
            if ok:
                out.append(new)
    return out


def oracle_check(model, prop, bounds: Bounds = DEFAULT_BOUNDS):
    """Returns (verdict, min_depth): ('FAIL', d) or ('PASS', None).

    Raises on state overflow instead of reporting BOUND_EXHAUSTED; it is
    only meant for models small enough to exhaust.
    """
    constants = _constants(model, bounds)
    atoms = model.atom_universe()
    sorts = {v.name: v.sort for v in model.state_vars}
    init = {v.name: v.initial_value(constants) for v in model.state_vars}

    best = {}  # frozen state -> least depth reached
    found = []  # least violation depth seen so far

    def visit(state, depth):
        if len(best) > bounds.max_states:
            raise RuntimeError("oracle state budget exceeded")
        key = _freeze(state)
        prior = best.get(key)
        if prior is not None and prior <= depth:
            return
        best[key] = depth
        if not E.evaluate(prop.invariant, state, constants, atoms):
            if not found or depth < found[0]:
                found[:] = [depth]
            return
        if depth >= bounds.max_depth:
            return
        for nxt in _successors(model, state, constants, atoms, sorts,
                               bounds):
            visit(nxt, depth + 1)

    visit(init, 0)
    if found:
        return ("FAIL", found[0])
    return ("PASS", None)
