"""Expressions compiled into closures over a flat state tuple.

The checker's successor and invariant paths run on these closures; the
tree-walking evaluator in `expr` stays the reference semantics. A closure
returns what `expr.evaluate` returns, or raises the exception it raises,
with the same message and after the same sub-evaluations.

Layout. A flat state is one tuple. A scalar variable takes one slot, a map
one slot per leaf key path, in declaration order and then sorted key order.
Map key sets never change (`FMap.set` rejects unknown keys), so `Index`
becomes slot arithmetic. A variable's shape is None for a scalar and
(keys, child shape, stride) for a map, whose children share one shape.
A flat state holds the same values as a state vector (`expr.Value`) and
differs from it only in map layout; a map needed as a whole value is built
back into an `E.FMap`. Atoms (name strings) and frozensets hash in C and
cache their hashes.

Binding. Transition parameters are compiled per binding and quantifiers
are unrolled over their (bounded) domains, so every bound name is a
literal atom at compile time and a literal map key is a fixed slot.
Sub-expressions without state reads are folded, and a guard that folds to
false disables its binding outright.

Kinds. Each slot has a static kind ("bool", "int", "atom" or "set") when
the initial state and every update agree on it, else None. A closure
checks a value's type at run time only where its kind is not static.

A compiled value is (kind, fn, form): fn(s) reads the flat state s, and
form is ("slot", i), ("const", v) or None. A map that lives in slots
compiles to (_IN_SLOTS, shape, base) instead, where base is its first slot
or, for a key read from the state, a function of s computing it.
"""

from __future__ import annotations

import operator

from . import expr as E

_IN_SLOTS = "in-slots"

_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


def _static_kind(v):
    try:
        return E.value_kind(v)
    except E.ExprTypeError:
        return None


# ---------------------------------------------------------------------------
# Layout

def shape_of(v):
    """None unless v is a map; raises ExprTypeError for a map whose values
    differ in shape."""
    if type(v) is not E.FMap:
        return None
    kids = [shape_of(x) for _, x in v.items]
    if any(k != kids[0] for k in kids):
        raise E.ExprTypeError("map values of different shapes")
    child = kids[0] if kids else None
    return (tuple(v.keys()), child, size(child) if kids else 0)


def size(shape) -> int:
    return 1 if shape is None else len(shape[0]) * shape[2]


def _leaves(v, shape, out):
    if shape is None:
        out.append(v)
    else:
        for _, x in v.items:
            _leaves(x, shape[1], out)


def layout(names, values):
    """(slots, kinds) of a state vector: slots maps each variable to
    (shape, first slot), and kinds lists each slot's kind."""
    slots, flat = {}, []
    for name, v in zip(names, values):
        slots[name] = (shape_of(v), len(flat))
        _leaves(v, slots[name][0], flat)
    return slots, [_static_kind(x) for x in flat]


def flatten(values, slots, kinds):
    """The flat form of a state vector, or None when the state does not
    fit the layout: a map with other keys, or a slot of another kind."""
    if len(values) != len(slots):
        return None
    out = []
    for v, (shape, _) in zip(values, slots.values()):
        try:
            if shape_of(v) != shape:
                return None
        except E.ExprTypeError:
            return None
        _leaves(v, shape, out)
    if any(k is not None and _static_kind(x) != k
           for x, k in zip(out, kinds)):
        return None
    return tuple(out)


def _build(s, i, shape):
    if shape is None:
        return s[i]
    keys, child, stride = shape
    return E.FMap(tuple((k, _build(s, i + n * stride, child))
                        for n, k in enumerate(keys)))


def unflatten(s, slots) -> tuple:
    """The state vector of a flat state."""
    return tuple(_build(s, i, shape) for shape, i in slots.values())


# ---------------------------------------------------------------------------
# Expressions

def _const(v):
    return (_static_kind(v), lambda s: v, ("const", v))


def _is_const(res):
    return res[2] is not None and res[2][0] == "const"


def _raiser(exc, msg, *first):
    """A value that evaluates the functions `first` in order, then raises."""
    def fn(s):
        for f in first:
            f(s)
        raise exc(msg)
    return (None, fn, None)


def _fold(k, fn, *parts):
    """(k, fn, None), or fn's value or exception as a constant when every
    part is a constant."""
    if not all(_is_const(p) for p in parts):
        return (k, fn, None)
    try:
        return _const(fn(None))
    except Exception as exc:
        cls, args = type(exc), exc.args

        def again(s):  # a fresh exception on every evaluation
            raise cls(*args)
        return (None, again, None)


def value(res):
    """(kind, fn, form) of a compiled expression: a map in slots is built
    into an FMap value."""
    if res[0] is not _IN_SLOTS:
        return res
    _, shape, base = res
    if type(base) is int:
        return ("map", lambda s: _build(s, base, shape), None)
    return ("map", lambda s: _build(s, base(s), shape), None)


def as_bool(res, what):
    """The value as (kind, fn, form) of a bool, raising ExprTypeError like
    the evaluator when it is something else."""
    res = value(res)
    k, fn, _ = res
    if k == "bool":
        return res
    return _fold("bool", lambda s: E._bool(fn(s), what), res)


def compile_expr(e, slots, kinds, constants, atoms, scope=None):
    """Compile `e` over a layout. constants maps a domain to its bounded
    atom names, atoms is the atom universe (None: any name is an atom),
    and scope maps bound names (parameters, quantifier variables) to
    their atoms."""
    scope = scope or {}

    def sub(x, inner=scope):
        return compile_expr(x, slots, kinds, constants, atoms, inner)

    t = type(e)
    if t is E.Name:
        return _name(e.name, slots, kinds, constants, atoms, scope)
    if t is E.IntLit or t is E.BoolLit:
        return _const(e.value)
    if t is E.Cmp:
        return _cmp(e.op, value(sub(e.lhs)), value(sub(e.rhs)))
    if t is E.Index:
        return _index(sub(e.base), value(sub(e.key)), kinds)
    if t is E.Forall or t is E.Exists:
        if e.domain not in constants:
            return _raiser(E.UnboundSymbolError,
                           f"unknown domain {e.domain!r}")
        return _junction(t is E.Exists, [
            as_bool(sub(e.body, {**scope, e.var: a}), "quantifier body")
            for a in constants[e.domain]])
    if t is E.And or t is E.Or:
        what = "and" if t is E.And else "or"
        return _junction(t is E.Or, [as_bool(sub(x), what)
                                     for x in e.items])
    if t is E.Not:
        operand = as_bool(sub(e.operand), "not")
        f = operand[1]
        return _fold("bool", lambda s: not f(s), operand)
    if t is E.Implies:
        lhs = as_bool(sub(e.lhs), "=>")
        rhs = as_bool(sub(e.rhs), "=>")
        if _is_const(lhs):
            return rhs if lhs[2][1] else _const(True)
        lf, rf = lhs[1], rhs[1]
        return ("bool", lambda s: (not lf(s)) or rf(s), None)
    if t is E.BinTerm:
        return _binterm(e.op, value(sub(e.lhs)), value(sub(e.rhs)))
    if t is E.SetLit:
        items = [value(sub(x)) for x in e.items]
        fns = [f for _, f, _ in items]
        return _fold("set", lambda s: frozenset([f(s) for f in fns]),
                     *items)
    return _raiser(E.ExprTypeError, f"not an expression: {e!r}")


def _name(n, slots, kinds, constants, atoms, scope):
    if n in scope:
        return _const(scope[n])
    if n in slots:
        shape, base = slots[n]
        if shape is None:
            return (kinds[base], lambda s: s[base], ("slot", base))
        return (_IN_SLOTS, shape, base)
    if n in constants:
        return _const(frozenset(constants[n]))
    if atoms is None or n in atoms:
        return _const(n)
    return _raiser(E.UnboundSymbolError, f"unbound symbol {n!r}")


def _junction(is_or, items):
    """`or` (`and`) of bool values, evaluated left to right until one is
    true (false). Constant items are folded where they decide nothing or
    everything."""
    fns = []
    for item in items:
        if _is_const(item):
            if item[2][1] is not is_or:
                continue  # `and true`, `or false`
            if not fns:
                return item  # decides before anything is evaluated
            fns.append(item[1])
            break  # decides; later items are never evaluated
        fns.append(item[1])
    if not fns:
        return _const(not is_or)
    fn = fns.pop()
    while fns:
        fn = _pair(is_or, fns.pop(), fn)
    return ("bool", fn, None)


def _pair(is_or, f, g):
    if is_or:
        return lambda s: f(s) or g(s)
    return lambda s: f(s) and g(s)


def _cmp(op, left, right):
    lk, lf, lform = left
    rk, rf, rform = right
    if op in ("in", "notin", "subseteq"):
        if op == "subseteq" and lk == rk == "set":
            fn = lambda s: lf(s) <= rf(s)  # noqa: E731
        elif op != "subseteq" and rk == "set":
            fn = (lambda s: lf(s) in rf(s)) if op == "in" \
                else (lambda s: lf(s) not in rf(s))
        else:
            fn = lambda s: E._compare(op, lf(s), rf(s))  # noqa: E731
        return _fold("bool", fn, left, right)
    if lk is None or rk is None or op not in ("=", "#", *_ORDER) \
            or (_is_const(left) and _is_const(right)):
        return _fold("bool", lambda s: E._compare(op, lf(s), rf(s)),
                     left, right)
    if lk != rk:
        return _raiser(E.ExprTypeError, f"cannot compare {lk} {op} {rk}",
                       lf, rf)
    if op in ("=", "#"):
        return ("bool", _eq(op == "=", left, right), None)
    if lk != "int":
        return _raiser(E.ExprTypeError,
                       f"ordering {op!r} requires ints, got {lk}", lf, rf)
    order = _ORDER[op]
    if lform and lform[0] == "slot" and _is_const(right):
        i, c = lform[1], rform[1]
        return ("bool", lambda s: order(s[i], c), None)
    return ("bool", lambda s: order(lf(s), rf(s)), None)


def _eq(equal, left, right):
    """`=` (or `#`) of two values of one static kind."""
    if _is_const(right):
        left, right = right, left
    (_, lf, lform), (_, rf, rform) = left, right
    if _is_const(left):
        c = lform[1]
        if rform and rform[0] == "slot":
            i = rform[1]
            return (lambda s: s[i] == c) if equal else (lambda s: s[i] != c)
        return (lambda s: rf(s) == c) if equal else (lambda s: rf(s) != c)
    return (lambda s: lf(s) == rf(s)) if equal \
        else (lambda s: lf(s) != rf(s))


def _binterm(op, left, right):
    lk, lf, lform = left
    rk, rf, rform = right
    want, what, combine = ("int", "+", operator.add) if op == "+" \
        else ("set", "union", operator.or_)
    if lk == rk == want and not (_is_const(left) and _is_const(right)):
        if lform and lform[0] == "slot" and _is_const(right):
            i, c = lform[1], rform[1]
            if op == "+":
                return (want, lambda s: s[i] + c, None)
            return (want, lambda s: s[i] | c, None)
        return (want, lambda s: combine(lf(s), rf(s)), None)

    def fn(s):
        v, r = lf(s), rf(s)
        E._require(want, v, what)
        E._require(want, r, what)
        return combine(v, r)
    return _fold(want, fn, left, right)


def _index(base, key, kinds):
    kk, kf, _ = key
    if base[0] is not _IN_SLOTS:
        bf = base[1]

        def fn(s):
            m, k = bf(s), kf(s)
            E._require("map", m, "indexing")
            E._require("atom", k, "map key")
            if k not in m:
                raise E.ExprTypeError(f"index {k!r} outside map key domain")
            return m[k]
        return _fold(None, fn, base, key)
    _, shape, base = base
    keys, child, stride = shape
    offsets = {k: n * stride for n, k in enumerate(keys)}
    if type(base) is int and _is_const(key):
        k = key[2][1]
        if kk != "atom":
            return _raiser(E.ExprTypeError,
                           f"map key: expected atom, got {kk}")
        if k not in offsets:
            return _raiser(E.ExprTypeError,
                           f"index {k!r} outside map key domain")
        at = base + offsets[k]
        if child is None:
            return (kinds[at], lambda s: s[at], ("slot", at))
        return (_IN_SLOTS, child, at)
    bf = (lambda s: base) if type(base) is int else base

    def at(s):
        p, k = bf(s), kf(s)
        E._require("atom", k, "map key")
        try:
            return p + offsets[k]
        except KeyError:
            raise E.ExprTypeError(
                f"index {k!r} outside map key domain") from None
    if child is not None:
        return (_IN_SLOTS, child, at)
    return (None, lambda s: s[at(s)], None)


# ---------------------------------------------------------------------------
# Transitions

def compile_step(t, binding, slots, kinds, constants, atoms, caps):
    """(guard, apply, writes) of one transition under one binding.

    guard(s) is the guard's bool value; guard is True or False when it
    folds to a constant. apply(s) is the post-state, or None when a
    top-level counter update leaves its range (caps maps such a variable
    to its largest value). writes lists, per update, the slots it may
    write and the kind it stores there (None: not known statically).
    """
    scope = dict(binding)

    def comp(x):
        return compile_expr(x, slots, kinds, constants, atoms, scope)

    guard = as_bool(comp(t.guard), "top-level expression")
    guard = guard[2][1] if _is_const(guard) else guard[1]
    fixed, writers, writes = [], [], []
    names = [target.var for target, _ in t.updates]
    ordered = len(set(names)) < len(names)
    for n, (target, rhs) in enumerate(t.updates):
        keys = [value(comp(x)) for x in target.keys]
        w, at, k = _writer(target, value(comp(rhs)), keys, slots,
                           caps.get(target.var),
                           target.var in names[:n])
        writes.append((at, k))
        if type(w) is tuple and not ordered:
            fixed.append(w)  # (slot, constant) stores commute
        else:
            writers.append(_store(*w) if type(w) is tuple else w)

    def apply(s):
        n = list(s)
        for i, v in fixed:
            n[i] = v
        for w in writers:
            if w(s, n):
                return None
        return tuple(n)
    return guard, apply, writes


def _store(i, v):
    def write(s, n):
        n[i] = v
    return write


def _writer(target, rhs, keys, slots, cap, again):
    """(writer, slots, kind) of one update. The writer is (slot, constant)
    for a constant store, else writer(s, n) storing into the list n and
    returning True when a counter leaves its range.

    As in the checker's reference semantics, the right-hand side reads the
    pre-state, a counter is range-checked before the keys are evaluated,
    and a keyed update starts from the variable's pre-state value (undoing
    an earlier update of the same variable, `again`).
    """
    var = target.var
    rk, rf, rform = rhs
    shape, base = slots[var]
    every = tuple(range(base, base + size(shape)))
    levels, sub = [], shape  # per key: map key -> slot offset at its level
    for _ in keys:
        if sub is None:
            break
        levels.append({k: n * sub[2] for n, k in enumerate(sub[0])})
        sub = sub[1]
    past = len(levels) < len(keys)
    at = None  # the slot, when every key is a literal inside its map
    if not past and sub is None and all(
            _is_const(k) and type(k[2][1]) is str and k[2][1] in level
            for k, level in zip(keys, levels)):
        at = base + sum(level[k[2][1]] for k, level in zip(keys, levels))
    if at is not None and not (again and keys):
        if _is_const(rhs) and not (cap is not None and type(rform[1]) is int
                                   and not 0 <= rform[1] <= cap):
            return (at, rform[1]), (at,), rk
        if cap is None:
            def write(s, n):
                n[at] = rf(s)
        else:
            def write(s, n):
                v = rf(s)
                if type(v) is int and (v < 0 or v > cap):
                    return True
                n[at] = v
        return write, (at,), rk

    key_fns = [f for _, f, _ in keys]
    sub_width = size(sub)

    def write(s, n):
        v = rf(s)
        if cap is not None and type(v) is int and (v < 0 or v > cap):
            return True
        names = [f(s) for f in key_fns]
        i = base
        for level, k in zip(levels, names):
            i += level[k]  # KeyError(k), as FMap lookups raise
        if past:
            raise E.ExprTypeError(
                f"update target {target} indexes past a map leaf")
        if again and keys:
            n[base:base + len(every)] = s[base:base + len(every)]
        if sub is None:
            n[i] = v
            return
        try:
            fits = type(v) is E.FMap and shape_of(v) == sub
        except E.ExprTypeError:
            fits = False
        if not fits:
            raise E.ExprTypeError(
                f"update {target} would change the shape of {var!r}")
        out = []
        _leaves(v, sub, out)
        n[i:i + sub_width] = out
    if past:
        return write, (), None
    return write, every, rk if sub is None else None
