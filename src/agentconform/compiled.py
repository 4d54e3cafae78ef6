"""Guards, updates and invariants compiled to Python source over packed
states.

The checker runs the functions this module writes as source text and
builds with `compile()`; the tree-walking evaluator in `expr` stays the
reference semantics. Compiled code returns what `expr.evaluate` returns,
or raises the exception it raises, with the same message and after the
same sub-evaluations. Python evaluates operands and call arguments left
to right, as the evaluator does, so a slow path written as a call whose
arguments are the sub-expressions' source keeps that order.

Layout. A state's values sit in slots. A scalar variable takes one slot,
a map one slot per leaf key path, in declaration order and then sorted
key order. Map key sets never change (`FMap.set` rejects unknown keys),
so `Index` becomes slot arithmetic. A variable's shape is None for a
scalar and (keys, child shape, stride) for a map, whose children share
one shape.

Packing. Inside the engine a state is one int, and each slot is a
fixed-width bit field of it (`pack`). A bool slot takes 1 bit and a
counter slot holds its value 0..cap. Every other slot holds a code into
the slot's intern table, which grows as the search meets new values;
values equal as Python values (True and 1) share a code, as they were
equal as tuple elements. An intern field is as wide as the engine's
budget of distinct values, but codes are small, so only its low bits
vary. Fields are laid out from bit 0 in rank order: bools, then
counters, then atoms, then sets and slots of no static kind, each rank
in slot order. The sparse intern fields thus sit on top, a state's int
ends a few bits past the start of the last one (339 bits on the
chained-servers composition, 438 in slot order), and guards mostly read
low fields. Python hashes ints modulo 2**61 - 1, so bits 61 apart alias
in the hash. In rank order the 65,090 chained-servers states have as
many distinct hashes; on the other four compositions there are 66-81%
as many distinct hashes as states. A shared hash costs a dict probe,
not a wrong answer. `encode` and `decode` convert between state vectors and
packed states; a map needed as a whole value is built back into an
`E.FMap` by `_build`.

Binding. Transition parameters are compiled per binding and quantifiers
are unrolled over their (bounded) domains, so every bound name is a
literal atom at compile time and a literal map key is a fixed slot.
Sub-expressions without state reads are folded, and a guard that folds to
false disables its binding outright.

Kinds. Each slot has a static kind ("bool", "int", "atom" or "set") when
the initial state and every update agree on it, else None. Compiled code
checks a value's type at run time only where its kind is not static, and
only a slot of static kind bool, or a counter of static kind int, holds
its value instead of a code.

Source. A compiled value is (kind, src, form): src is a Python expression
over the packed state `s`, and form is ("slot", i), ("const", v) or
None. Every field read starts from the field's masked value `(s & M)`: a
bool field reads as `((s & B) != 0)`, a counter as `((s & M) >> k)` and
an intern field as `_v<i>[(s & M) >> k]`; a comparison of a field with a
constant compares the field's bits, `(s & M) == C`, with the constant
encoded at compile time. Bools, ints and atom names are literals in src;
every other constant (sets, maps, shapes, exception classes) is a global
`_k<n>` of the environment `env` the source is compiled in. The
environment also binds the packing (`_L`, the fields, and `_v<i>` and
`_c<i>`, slot i's values by code and codes by value) and the slow paths:
`_compare`, `_require` and `_bool` from `expr`, and `_raise`, `_lookup`,
`_at`, `_binterm`, `_build`, `_offset`, `_fit`, `_get` and `_put` below.
A map that lives in slots compiles to (_IN_SLOTS, shape, base) instead,
where base is its first slot or the source of an int expression computing
it. A step writes its post-state as one expression, `s & K | V | ...`:
K keeps the fields it does not store, V holds its constant stores, and
each other store is its value's code shifted into place.

Functions. `function` turns a value's source into `value(s)`, and
`kernel` writes one `successors(s, out)` for all of an engine's steps,
for the search only. Both use `_define`, which reads each mask that the
function reads two or more times once, into a local `m<j> = s & M` at
the top of the function, and spells those reads with the local; a mask
read once stays inline, where short-circuiting may skip it. `s & M` on
an int cannot raise, so this moves no exception and no evaluation of
anything that can. `compile()` is memoised on the source text, so a
model checked again (another property, another run in one process)
reuses its code objects.
"""

from __future__ import annotations

import builtins
import collections
import functools
import re

from . import expr as E

_IN_SLOTS = "in-slots"

_ORDER = ("<", "<=", ">", ">=")


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
    slots, leaves = {}, []
    for name, v in zip(names, values):
        slots[name] = (shape_of(v), len(leaves))
        _leaves(v, slots[name][0], leaves)
    return slots, [_static_kind(x) for x in leaves]


_BOOLS = (False, True)


class _Codes(dict):
    """value -> code of one intern field, growing on lookup; values[code]
    is the value. A code past limit would not fit the field."""
    __slots__ = ("values", "limit")

    def __missing__(self, v):
        code = len(self.values)
        if code > self.limit:
            raise OverflowError(f"more than {self.limit + 1} distinct "
                                f"values in one state slot")
        self[v] = code
        self.values.append(v)
        return code


def pack(slots, kinds, counters, width, env):
    """Lays the slots out as bit fields of one int and binds the layout
    into env. counters maps a slot that only ever holds 0..cap to cap;
    every slot that is neither a static bool nor such a counter of
    static kind int is interned, in a field `width` bits wide."""
    ranks = [0 if k == "bool" else 1 if k == "int" and i in counters
             else 2 if k == "atom" else 3 for i, k in enumerate(kinds)]
    fields, masks, shift = [None] * len(kinds), [0] * len(kinds), 0
    for rank, i in sorted(zip(ranks, range(len(kinds)))):
        if rank == 0:
            fields[i] = (shift, 1, _BOOLS, None)
        elif rank == 1:
            cap = counters[i]
            fields[i] = (shift, (1 << cap.bit_length()) - 1,
                         range(cap + 1), None)
        else:
            codes = _Codes()
            codes.values, codes.limit = [], (1 << width) - 1
            env[f"_v{i}"], env[f"_c{i}"] = codes.values, codes
            fields[i] = (shift, codes.limit, codes.values, codes)
        masks[i] = fields[i][1] << shift
        shift += fields[i][1].bit_length()
    env["_L"], env["_FULL"] = fields, (1 << shift) - 1
    # per variable: the mask of its fields, its values decoded so far by
    # their bits, its first slot and its shape
    env["_vars"] = [(sum(masks[base:base + size(shape)]), {}, base, shape)
                    for shape, base in slots.values()]


def encode(values, env) -> int:
    """The packed form of a state vector that fits the layout."""
    leaves, s = [], 0
    for v, (_, _, _, shape) in zip(values, env["_vars"]):
        _leaves(v, shape, leaves)
    for v, (shift, _, _, codes) in zip(leaves, env["_L"]):
        s |= (v if codes is None else codes[v]) << shift
    return s


def _build(L, s, i, shape):
    if shape is None:
        return _get(L, s, i)
    keys, child, stride = shape
    return E.FMap(tuple((k, _build(L, s, i + n * stride, child))
                        for n, k in enumerate(keys)))


def decode(s, env) -> tuple:
    """The state vector of a packed state. A variable's value is built
    once per bit pattern and then shared by every state that holds it."""
    out = []
    for mask, seen, base, shape in env["_vars"]:
        bits = s & mask
        if bits not in seen:
            seen[bits] = _build(env["_L"], s, base, shape)
        out.append(seen[bits])
    return tuple(out)


# ---------------------------------------------------------------------------
# Slow paths, called from compiled code with their operands evaluated

def _raise(cls, args, *_):
    """Raises cls(*args) once the operands after args are evaluated."""
    raise cls(*args)


def _lookup(m, k):
    """Index on a map value."""
    E._require("map", m, "indexing")
    E._require("atom", k, "map key")
    if k not in m:
        raise E.ExprTypeError(f"index {k!r} outside map key domain")
    return m[k]


def _at(p, offsets, k):
    """Slot of key k in the map whose first slot is p."""
    E._require("atom", k, "map key")
    try:
        return p + offsets[k]
    except KeyError:
        raise E.ExprTypeError(
            f"index {k!r} outside map key domain") from None


def _binterm(want, what, v, r):
    E._require(want, v, what)
    E._require(want, r, what)
    return v + r if want == "int" else v | r


def _offset(i, levels, *names):
    """Slot of an update target whose keys are read from the state."""
    for level, k in zip(levels, names):
        i += level[k]  # KeyError(k), as FMap lookups raise
    return i


def _fit(v, shape, message):
    """The leaves of a map value stored into slots of this shape."""
    try:
        fits = type(v) is E.FMap and shape_of(v) == shape
    except E.ExprTypeError:
        fits = False
    if not fits:
        raise E.ExprTypeError(message)
    out = []
    _leaves(v, shape, out)
    return out


def _get(L, s, i):
    """The value in slot i of a packed state."""
    shift, mask, values, _ = L[i]
    return values[s >> shift & mask]


def _put(L, n, i, *vs):
    """The packed state n with the values vs stored in slots i, i + 1, ..."""
    for v in vs:
        shift, mask, _, codes = L[i]
        n = n & ~(mask << shift) | (v if codes is None else codes[v]) << shift
        i += 1
    return n


_GLOBALS = {"__builtins__": builtins, "_compare": E._compare,
            "_require": E._require, "_bool": E._bool, "_raise": _raise,
            "_lookup": _lookup, "_at": _at, "_binterm": _binterm,
            "_build": _build, "_offset": _offset, "_fit": _fit,
            "_get": _get, "_put": _put}


def environment() -> dict:
    """A fresh environment (globals) to compile source in."""
    return dict(_GLOBALS)


def _lit(v, env) -> str:
    """Source for the constant v: a literal, or a new global of env."""
    t = type(v)
    if t is bool or t is str or v is None:
        return repr(v)
    if t is int:
        return repr(v) if v >= 0 else f"({v})"
    name = f"_k{len(env)}"
    env[name] = v
    return name


# A field read: the state masked to the read's fields, in parentheses of
# its own. A post-state `s & K | ...` never is: `add(s & K)` passes one
# to a call, which the look-behind tells apart. The pattern starts with
# the literal `(`, which `re` scans for quickly.
_READ = re.compile(r"\((?<![\w)\]]\()s & (0x[0-9a-f]+)\)")


def _hoist(src: str) -> str:
    """The definition src of a function of the packed state s, with every
    mask its body reads two or more times applied once, into a local at
    the top of the body, in order of first read."""
    header, _, body = src.partition("\n")
    reads = collections.Counter(_READ.findall(body))
    local = {m: f"m{j}" for j, m in enumerate(
        m for m, n in reads.items() if n > 1)}
    return "\n".join([header, *(f"    {v} = s & {m}"
                               for m, v in local.items()),
                      _READ.sub(lambda r: local.get(r[1], r[0]), body)])


@functools.lru_cache(maxsize=1024)
def _code(src: str):
    return compile(_hoist(src), "<agentconform.compiled>", "exec")


def _define(lines, name, env):
    """The function `name` that lines define in env, with the masks it
    reads two or more times hoisted (`_hoist`)."""
    namespace = {}
    exec(_code("\n".join(lines) + "\n"), env, namespace)
    return namespace[name]


def function(src: str, env: dict):
    """The function s -> value of a compiled value's source, written by
    `_define` as `value(s)`, so a mask the source reads two or more
    times is read once."""
    return _define(["def value(s):", f"    return {src}"], "value", env)


# ---------------------------------------------------------------------------
# Expressions

def _const(v, env):
    return (_static_kind(v), _lit(v, env), ("const", v))


def _is_const(res):
    return res[2] is not None and res[2][0] == "const"


def _raiser(exc, msg, env, *first):
    """A value that evaluates the sources `first` in order, then raises."""
    return (None, "".join([f"_raise({_lit(exc, env)}, {_lit((msg,), env)}",
                           *(", " + f for f in first), ")"]), None)


def _fold(k, src, fn, env, *parts):
    """(k, src, None), or, when every part is a constant, fn's value or
    exception for the parts' values as a constant."""
    if not all(_is_const(p) for p in parts):
        return (k, src, None)
    try:
        return _const(fn(*[p[2][1] for p in parts]), env)
    except Exception as exc:  # a fresh exception on every evaluation
        return (None, f"_raise({_lit(type(exc), env)}, "
                      f"{_lit(exc.args, env)})", None)


def value(res, env):
    """(kind, src, form) of a compiled expression: a map in slots is
    built into an FMap value."""
    if res[0] is not _IN_SLOTS:
        return res
    _, shape, base = res
    return ("map", f"_build(_L, s, {base}, {_lit(shape, env)})", None)


def as_bool(res, what, env):
    """The value as (kind, src, form) of a bool, raising ExprTypeError
    like the evaluator when it is something else."""
    res = value(res, env)
    if res[0] == "bool":
        return res
    return _fold("bool", f"_bool({res[1]}, {what!r})",
                 lambda v: E._bool(v, what), env, res)


def compile_expr(e, slots, kinds, constants, atoms, env, scope=None):
    """Compile `e` over a layout into env. constants maps a domain to its
    bounded atom names, atoms is the atom universe (None: any name is an
    atom), and scope maps bound names (parameters, quantifier variables)
    to their atoms."""
    scope = scope or {}

    def sub(x, inner=scope):
        return compile_expr(x, slots, kinds, constants, atoms, env, inner)

    t = type(e)
    if t is E.Name:
        return _name(e.name, slots, kinds, constants, atoms, env, scope)
    if t is E.IntLit or t is E.BoolLit:
        return _const(e.value, env)
    if t is E.Cmp:
        return _cmp(e.op, value(sub(e.lhs), env), value(sub(e.rhs), env),
                    env)
    if t is E.Index:
        return _index(sub(e.base), value(sub(e.key), env), kinds, env)
    if t is E.Forall or t is E.Exists:
        if e.domain not in constants:
            return _raiser(E.UnboundSymbolError,
                           f"unknown domain {e.domain!r}", env)
        return _junction(t is E.Exists, [
            as_bool(sub(e.body, {**scope, e.var: a}), "quantifier body",
                    env)
            for a in constants[e.domain]], env)
    if t is E.And or t is E.Or:
        what = "and" if t is E.And else "or"
        return _junction(t is E.Or, [as_bool(sub(x), what, env)
                                     for x in e.items], env)
    if t is E.Not:
        operand = as_bool(sub(e.operand), "not", env)
        return _fold("bool", f"(not {operand[1]})", lambda v: not v, env,
                     operand)
    if t is E.Implies:
        lhs = as_bool(sub(e.lhs), "=>", env)
        rhs = as_bool(sub(e.rhs), "=>", env)
        if _is_const(lhs):
            return rhs if lhs[2][1] else _const(True, env)
        return ("bool", f"(not {lhs[1]} or {rhs[1]})", None)
    if t is E.BinTerm:
        return _binterm_expr(e.op, value(sub(e.lhs), env),
                             value(sub(e.rhs), env), env)
    if t is E.SetLit:
        items = [value(sub(x), env) for x in e.items]
        src = "".join(["frozenset((", *(f"{i[1]}, " for i in items), "))"])
        return _fold("set", src, lambda *vs: frozenset(vs), env, *items)
    return _raiser(E.ExprTypeError, f"not an expression: {e!r}", env)


def _slot(kinds, i, env):
    """(kind, src, form) of slot i's value in the packed state s."""
    shift, mask, values, codes = env["_L"][i]
    read = f"(s & {mask << shift:#x})"
    if values is _BOOLS:
        return (kinds[i], f"({read} != 0)", ("slot", i))
    if shift:
        read = f"({read} >> {shift})"
    return (kinds[i], read if codes is None else f"_v{i}[{read}]",
            ("slot", i))


def _name(n, slots, kinds, constants, atoms, env, scope):
    if n in scope:
        return _const(scope[n], env)
    if n in slots:
        shape, base = slots[n]
        if shape is None:
            return _slot(kinds, base, env)
        return (_IN_SLOTS, shape, base)
    if n in constants:
        return _const(frozenset(constants[n]), env)
    if atoms is None or n in atoms:
        return _const(n, env)
    return _raiser(E.UnboundSymbolError, f"unbound symbol {n!r}", env)


def _junction(is_or, items, env):
    """`or` (`and`) of bool values, evaluated left to right until one is
    true (false). Constant items are folded where they decide nothing or
    everything."""
    srcs = []
    for item in items:
        if _is_const(item):
            if item[2][1] is not is_or:
                continue  # `and true`, `or false`
            if not srcs:
                return item  # decides before anything is evaluated
            srcs.append(item[1])
            break  # decides; later items are never evaluated
        srcs.append(item[1])
    if not srcs:
        return _const(not is_or, env)
    if len(srcs) == 1:
        return ("bool", srcs[0], None)
    return ("bool", "(" + (" or " if is_or else " and ").join(srcs) + ")",
            None)


def _cmp(op, left, right, env):
    lk, ls, _ = left
    rk, rs, _ = right

    def compare(lv, rv):
        return E._compare(op, lv, rv)
    slow = f"_compare({op!r}, {ls}, {rs})"
    if op in ("in", "notin", "subseteq"):
        if op == "subseteq" and lk == rk == "set":
            src = f"({ls} <= {rs})"
        elif op != "subseteq" and rk == "set":
            src = f"({ls} {'in' if op == 'in' else 'not in'} {rs})"
        else:
            src = slow
        return _fold("bool", src, compare, env, left, right)
    if lk is None or rk is None or op not in ("=", "#", *_ORDER) \
            or (_is_const(left) and _is_const(right)):
        return _fold("bool", slow, compare, env, left, right)
    if lk != rk:
        return _raiser(E.ExprTypeError, f"cannot compare {lk} {op} {rk}",
                       env, ls, rs)
    if op in ("=", "#"):
        if _is_const(left):  # the state read first, the constant second
            left, right = right, left
        eq = "==" if op == "=" else "!="
        if left[2] is not None and left[2][0] == "slot" \
                and _is_const(right):
            bits = _field_bits(left[2][1], right[2][1], env)
            if bits is not None:
                return ("bool",
                        f"((s & {bits[0]:#x}) {eq} {bits[1]:#x})", None)
        return ("bool", f"({left[1]} {eq} {right[1]})", None)
    if lk != "int":
        return _raiser(E.ExprTypeError,
                       f"ordering {op!r} requires ints, got {lk}", env,
                       ls, rs)
    return ("bool", f"({ls} {op} {rs})", None)


def _field_bits(i, v, env):
    """(the field mask, v's code in place) for slot i, or None when v
    has no code there (a counter value out of range)."""
    shift, mask, values, codes = env["_L"][i]
    if codes is None and v not in values:
        return None
    return mask << shift, (v if codes is None else codes[v]) << shift


def _binterm_expr(op, left, right, env):
    lk, ls, _ = left
    rk, rs, _ = right
    want, what = ("int", "+") if op == "+" else ("set", "union")
    if lk == rk == want and not (_is_const(left) and _is_const(right)):
        return (want, f"({ls} {'+' if op == '+' else '|'} {rs})", None)
    return _fold(want, f"_binterm({want!r}, {what!r}, {ls}, {rs})",
                 lambda v, r: _binterm(want, what, v, r), env, left, right)


def _index(base, key, kinds, env):
    kk, ks, _ = key
    if base[0] is not _IN_SLOTS:
        return _fold(None, f"_lookup({base[1]}, {ks})", _lookup, env,
                     base, key)
    _, shape, base = base
    keys, child, stride = shape
    offsets = {k: n * stride for n, k in enumerate(keys)}
    if type(base) is int and _is_const(key):
        k = key[2][1]
        if kk != "atom":
            return _raiser(E.ExprTypeError,
                           f"map key: expected atom, got {kk}", env)
        if k not in offsets:
            return _raiser(E.ExprTypeError,
                           f"index {k!r} outside map key domain", env)
        at = base + offsets[k]
        if child is None:
            return _slot(kinds, at, env)
        return (_IN_SLOTS, child, at)
    at = f"_at({base}, {_lit(offsets, env)}, {ks})"
    if child is not None:
        return (_IN_SLOTS, child, at)
    return (None, f"_get(_L, s, {at})", None)


# ---------------------------------------------------------------------------
# Transitions

def compile_step(t, binding, slots, kinds, constants, atoms, caps, env):
    """(guard, plan, writes) of one transition under one binding.

    guard is the guard's source, or True or False when it folds to a
    constant. plan lists the updates for `kernel`.
    writes lists, per update, the slots it may write and the kind it
    stores there (None: not known statically). caps maps a counter
    variable to its largest value.
    """
    scope = dict(binding)

    def comp(x):
        return compile_expr(x, slots, kinds, constants, atoms, env, scope)

    guard = as_bool(comp(t.guard), "top-level expression", env)
    guard = guard[2][1] if _is_const(guard) else guard[1]
    plan, writes = [], []
    for target, rhs in t.updates:
        keys = [value(comp(x), env) for x in target.keys]
        op, at, k = _writer(target, value(comp(rhs), env), keys, slots,
                            caps.get(target.var), env)
        plan.append(op)
        writes.append((at, k))
    return guard, plan, writes


def _writer(target, rhs, keys, slots, cap, env):
    """(op, slots, kind) of one update: op for the plan, the slots it may
    write and the kind it stores there.

    An op is ("const", slot, value) for an in-range constant stored at a
    fixed slot, ("slot", slot, src, cap, kind) for another value stored
    there, and ("keyed", index, src, cap, kind, past, fit) for a target
    whose slot `index` computes at run time; past is the source that
    raises for a target past a map leaf, and fit, for a map value, is
    (shape, message) of the slots it fills. As in the checker's
    reference semantics and TLA+'s EXCEPT, the right-hand side and the
    keys read the pre-state, a counter is range-checked before the keys
    are evaluated, and updates of one variable apply in order, each on
    top of the ones before it.
    """
    var = target.var
    rk, rs, rform = rhs
    shape, base = slots[var]
    every = tuple(range(base, base + size(shape)))
    levels, sub = [], shape  # per key: map key -> slot offset at its level
    for _ in keys:
        if sub is None:
            break
        levels.append({k: n * sub[2] for n, k in enumerate(sub[0])})
        sub = sub[1]
    past = len(levels) < len(keys)
    if not past and sub is None and all(
            _is_const(k) and type(k[2][1]) is str and k[2][1] in level
            for k, level in zip(keys, levels)):
        at = base + sum(level[k[2][1]] for k, level in zip(keys, levels))
        if _is_const(rhs) and not (cap is not None and type(rform[1]) is int
                                   and not 0 <= rform[1] <= cap):
            return ("const", at, rform[1]), (at,), rk
        return ("slot", at, rs, cap, rk), (at,), rk
    index = "".join([f"_offset({base}, {_lit(levels, env)}",
                     *(", " + k[1] for k in keys), ")"]) if keys \
        else str(base)
    if past:
        past = _raiser(E.ExprTypeError,
                       f"update target {target} indexes past a map leaf",
                       env)[1]
    fit = None if sub is None else (
        _lit(sub, env),
        repr(f"update {target} would change the shape of {var!r}"))
    op = ("keyed", index, rs, cap, rk, past, fit)
    if past:
        return op, (), None
    return op, every, rk if sub is None else None


def _fields(group, env):
    """(K, V, terms) of stores to fixed slots, group mapping each slot to
    (value source, or None for the constant v, v): K masks their fields,
    V holds the constants' codes in place, and terms are the sources that
    put the other values' codes in place."""
    L, keep, bits, terms = env["_L"], 0, 0, []
    for at, (src, v) in group.items():
        shift, mask, _, codes = L[at]
        keep |= mask << shift
        if src is None:
            bits |= (v if codes is None else codes[v]) << shift
        else:
            code = f"({src})" if codes is None else f"_c{at}[{src}]"
            terms.append(f" | {code} << {shift}" if shift else f" | {code}")
    return keep, bits, terms


def _merge(base, fields, env):
    """Source of the packed state base with the stores (K, V, terms)
    applied."""
    keep, bits, terms = fields
    return "".join([f"{base} & {env['_FULL'] ^ keep:#x}",
                    f" | {bits:#x}" if bits else "", *terms])


def _post_lines(stores, env):
    """Lines computing the post-state n from s by the stores, in order:
    each is (slot, value source or None, constant) for a fixed slot, or
    (index source, value source) for a slot computed at run time."""
    lines, base, group = [], "s", {}
    for store in stores + [None]:
        if group and (store is None or type(store[0]) is not int
                      or store[0] in group):
            lines.append(f"n = {_merge(base, _fields(group, env), env)}")
            base, group = "n", {}
        if store is None:
            break
        if type(store[0]) is int:
            group[store[0]] = store[1:]
        else:
            lines.append(f"n = _put(_L, {base}, {store[0]}, {store[1]})")
            base = "n"
    return lines


def _step_lines(guard, plan, env):
    """The kernel's lines for one step: the guard, each update's
    evaluation and range check in order, then `add(post-state)`, which a
    step storing only constants the state holds skips."""
    lines, pad = [], "    "

    def line(text):
        lines.append(pad + text)

    cond = None if guard is True else guard
    if all(op[0] == "const" for op in plan):
        if not plan:  # a self-loop whenever enabled
            if cond is not None:
                line(cond)  # evaluated for what it raises
            return lines
        # the last store to a slot wins
        fields = _fields({at: (None, v) for _, at, v in plan}, env)
        change = f"(s & {fields[0]:#x}) != {fields[1]:#x}"
        cond = change if cond is None else f"{cond} and {change}"
        line(f"if {cond}:")
        line(f"    add({_merge('s', fields, env)})")
        return lines
    if cond is not None:
        line(f"if {cond}:")
        pad += "    "
    stores = []  # as _post_lines reads them
    deferred = []  # stores whose value source is evaluated at the store
    for j, op in enumerate(plan):
        if op[0] == "const":
            stores.append((op[1], None, op[2]))
            continue
        if op[0] == "slot" and op[3] is None:
            deferred.append(len(stores))
            stores.append((op[1], op[2], None))
            continue
        # this update may stop the step or raise: the values deferred so
        # far are evaluated before it, in order
        for n in deferred:
            line(f"w{n} = {stores[n][1]}")
            stores[n] = (stores[n][0], f"w{n}", None)
        deferred = []
        _, at, src, cap, kind = op[:5]
        v = f"v{j}"
        line(f"{v} = {src}")
        if cap is not None:
            line(f"if 0 <= {v} <= {cap}:" if kind == "int" else
                 f"if type({v}) is not int or 0 <= {v} <= {cap}:")
            pad += "    "
        if op[0] == "slot":
            stores.append((at, v, None))
            continue
        past, fit = op[5:]
        line(f"i{j} = {at}")
        if past:
            line(past)
            return lines
        if fit is None:
            stores.append((f"i{j}", v))
        else:
            shape, message = fit
            line(f"l{j} = _fit({v}, {shape}, {message})")
            stores.append((f"i{j}", f"*l{j}"))
    for text in _post_lines(stores, env):
        line(text)
    line("add(n)")
    return lines


def kernel(steps, env):
    """successors(s, out): appends the post-states of the compiled steps
    (guard, plan) to the list out, in order, each as soon as its step is
    evaluated, so a step that raises leaves the post-states of the steps
    before it in out. A step whose counter update leaves its range gives
    no post-state, and a step that only stores constants the state
    already holds (a self-loop) is skipped. A mask the steps read two
    or more times, in guards, self-loop tests or updates, is applied once
    per state, before the first step."""
    lines = ["def successors(s, out):", "    add = out.append"]
    for guard, plan in steps:
        lines += _step_lines(guard, plan, env)
    return _define(lines, "successors", env)

