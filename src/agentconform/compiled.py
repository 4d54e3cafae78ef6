"""Guards, updates and invariants compiled to Python source over packed
states.

The checker runs the functions this module writes as source text and
builds with `compile()`; the tree-walking evaluator in `expr` stays the
reference semantics. Compiled code returns what `expr.evaluate` returns,
or raises the exception it raises, with the same message and after the
same sub-evaluations, for every expression `ir.typecheck` accepts:
the checker compiles nothing else. Python evaluates operands and call
arguments left to right, as the evaluator does.

Layout. A state's values sit in slots. A scalar variable takes one slot,
a map one slot per leaf key path, in declaration order and then sorted
key order. Map key sets never change (`FMap.set` rejects unknown keys),
so `Index` becomes slot arithmetic. A variable's shape is None for a
scalar and (keys, child shape, stride) for a map, whose children share
one shape. A map's shape follows from its sort: its keys are its key
domain as bounded (`checker.bounded_constants`), and so are those of its
initial value (`ir.eval_init`).

Packing. Inside the engine a state is one int, and each slot is a
fixed-width bit field of it (`pack`). The fields of the variables that
the engine's steps store into are laid out from bit 0, in slot order,
and those of the other variables above them, also in slot order. Only
the shifts move: slot indices, `_vars`, `encode` and `decode` keep
declaration order. A never-written field keeps its initial value, so a
reachable state is no wider than the written fields and the
never-written ones that start at a nonzero code, and its low bits,
which a dict probes first, differ most. A field's width
and its values' codes come from the slot's leaf sort alone: a BOOL
takes 1 bit and a COUNTER(n) the bits of n, each holding its value; an
ENUM is coded by a value's position among its declared values; and a
SET(D) takes one bit per declared atom of D, its code the mask of its
atoms. A counter is always a whole variable (a COUNTER under a MAP is a
`bad-sort`), whose initial value and stores are range-checked. So every
value fits its field, the encoding is the same for any bounds (given
the steps), and a counter that starts above its cap, or a set holding
an atom that a cap leaves out of D, needs no path of its own. Set codes
are found on demand, never by listing D's subsets. `encode` and
`decode` convert between state vectors and packed states; a map needed
as a whole value is built back into an `E.FMap` by `_build`.

Binding. Transition parameters are compiled per binding and quantifiers
are unrolled over their (bounded) domains, so every bound name is a
literal atom at compile time and a literal map key is a fixed slot.
Sub-expressions without state reads are folded, and a guard that folds
to false disables its binding outright.

Sorts. Compiled code checks no value's type at run time: every slot's
value is of its leaf sort. What a bounded instance can still raise is
raised: a key outside a capped domain.

Source. A compiled value is (src, form): src is a Python expression over
the packed state `s`, and form is ("const", v) or None. A map that lives
in slots is (None, ("map", shape, base)) instead, where base is its
first slot or the source of an int expression computing it. Every field
read starts from the field's masked value `(s & M)`: a bool field reads
as `((s & B) != 0)`, a counter as `((s & M) >> k)` and an enum or set
field as `_v<i>[(s & M) >> k]`. Bools, ints and atom names are literals
in src; every other constant (sets, maps, shapes) is a global `_k<n>` of
the environment `env` the source is compiled in, which also binds the
packing (`_L`, the fields, and `_v<i>` and `_c<i>`, an enum or set slot
i's values by code and codes by value) and the helpers in `_GLOBALS`.
A step writes its post-state as one expression, `s & K | V | ...`: K
keeps the fields it does not store, V holds its constant stores, and
each other store is its value's code shifted into place.

Functions. `function` turns a value's source into `value(s)`, and
`kernel` writes one `expand(frontier, seen, out)` for all of an
engine's steps, for the search only: a whole BFS level, deduped inline
against `seen`. The steps' effects are memoised by the bits they read:
a state's key is `s & R`, and a step that stores the fields W turns
every state of one key into `s & ~W | (n & W)`, so each key's steps run
once and every later state of that key is one table lookup and the
recorded deltas applied. R comes from the steps' footprints
(`ir.footprints`) resolved under the layout (`read_mask`), not from
their source. `compile()` is memoised on the source text, so a model
checked again (another property, another run in one process) reuses its
code objects.
"""

from __future__ import annotations

import builtins
import functools
import operator

from . import expr as E
from . import ir

# ---------------------------------------------------------------------------
# Layout

def _shape(sort, constants):
    """None unless sort is a MAP; a map's keys are its key domain's atoms
    in constants, in an FMap's (sorted) order."""
    if type(sort) is not ir.MapSort:
        return None
    child = _shape(sort.value, constants)
    return (tuple(sorted(constants[sort.key])), child, size(child))


def size(shape) -> int:
    return 1 if shape is None else len(shape[0]) * shape[2]


def _leaves(v, shape, out):
    if shape is None:
        out.append(v)
    else:
        for _, x in v.items:
            _leaves(x, shape[1], out)


def layout(names, sorts, constants):
    """(slots, leaves) of a state vector whose variables have these
    names and sorts, constants mapping each domain to its atoms as
    bounded: slots maps each variable to (shape, first slot), and leaves
    lists each slot's sort, its variable's leaf sort."""
    slots, leaves = {}, []
    for name, sort in zip(names, sorts):
        shape = _shape(sort, constants)
        slots[name] = (shape, len(leaves))
        leaves += [ir.leaf_sort(sort)] * size(shape)
    return slots, leaves


_BOOLS = (False, True)


class _Sets(dict):
    """Both ways between the sets of one SET(D) field and their codes,
    filled on demand: a set's code is the mask of its atoms' bits, and
    an atom outside D has none (KeyError)."""
    __slots__ = ("bits",)

    def __missing__(self, key):
        if type(key) is int:
            v = frozenset(a for a, bit in self.bits.items() if key & bit)
        else:
            v = sum(map(self.bits.__getitem__, key))
        self[key] = v
        return v


def _field(sort, domains):
    """(width, values by code, codes by value) of a slot of this leaf
    sort; codes is None where each value is its own code."""
    if type(sort) is ir.BoolSort:
        return 1, _BOOLS, None
    if type(sort) is ir.CounterSort:
        return sort.max.bit_length(), range(sort.max + 1), None
    if type(sort) is ir.EnumSort:
        return ((len(sort.values) - 1).bit_length(), sort.values,
                {v: n for n, v in enumerate(sort.values)})
    codes = _Sets()
    codes.bits = {a: 1 << n for n, a in enumerate(domains[sort.over])}
    return len(codes.bits), codes, codes


def pack(slots, leaves, domains, env, written):
    """Lays the slots out as bit fields of one int and binds the layout
    into env: the fields of the variables named in written from bit 0,
    then those of the others, each in slot order. Each field's width and
    codes come from its leaf sort, domains mapping each domain to its
    declared atoms."""
    fields, shift = [None] * len(leaves), 0
    # sorted() is stable: declaration order within each group
    for name, (shape, base) in sorted(slots.items(),
                                      key=lambda v: v[0] not in written):
        for i in range(base, base + size(shape)):
            width, values, codes = _field(leaves[i], domains)
            if codes is not None:
                env[f"_v{i}"], env[f"_c{i}"] = values, codes
            fields[i] = (shift, (1 << width) - 1, values, codes)
            shift += width
    env["_L"], env["_FULL"] = fields, (1 << shift) - 1
    # per variable: the mask of its fields, its values decoded so far by
    # their bits, its first slot and its shape
    env["_vars"] = [(sum(m << k for k, m, _, _ in
                         fields[base:base + size(shape)]), {}, base, shape)
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
# Helpers, called from compiled code with their operands evaluated

def _raise(message):
    raise E.ExprTypeError(message)


def _at(p, offsets, k):
    """Slot of key k in the map whose first slot is p."""
    try:
        return p + offsets[k]
    except KeyError:
        raise E.ExprTypeError(
            f"index {k!r} outside map key domain") from None


def _offset(i, levels, *names):
    """Slot of an update target whose keys are read from the state."""
    for level, k in zip(levels, names):
        i += level[k]  # KeyError(k), as FMap lookups raise
    return i


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


_GLOBALS = {"__builtins__": builtins, "_raise": _raise, "_at": _at,
            "_build": _build, "_offset": _offset, "_leaves": _leaves,
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


@functools.lru_cache(maxsize=1024)
def _code(source: str):
    return compile(source, "<agentconform.compiled>", "exec")


def _define(lines, name, env):
    """The function `name` that the source lines define in env."""
    namespace = {}
    exec(_code("\n".join(lines)), env, namespace)
    return namespace[name]


def function(src: str, env: dict):
    """The function s -> value of a compiled value's source."""
    return _define(["def value(s):", f"    return {src}"], "value", env)


# ---------------------------------------------------------------------------
# Expressions

def _const(v, env):
    return (_lit(v, env), ("const", v))


def _is_const(res):
    return res[1] is not None and res[1][0] == "const"


def _fold(src, fn, env, *parts):
    """(src, None), or, when every part is a constant, fn's value for the
    parts' values as a constant."""
    if not all(_is_const(p) for p in parts):
        return (src, None)
    return _const(fn(*[p[1][1] for p in parts]), env)


def value(res, env):
    """(src, form) of a compiled expression: a map in slots is built into
    an FMap value."""
    if res[0] is not None:  # not a map in slots
        return res
    _, shape, base = res[1]
    return (f"_build(_L, s, {base}, {_lit(shape, env)})", None)


def compile_expr(e, slots, constants, env, scope=None):
    """Compile the well-sorted expression `e` over a layout into env.
    constants maps a domain to its bounded atom names, and scope maps
    bound names (parameters, quantifier variables) to their atoms."""
    scope = scope or {}

    def sub(x, inner=scope):
        return compile_expr(x, slots, constants, env, inner)

    t = type(e)
    if t is E.Name:
        return _name(e.name, slots, constants, env, scope)
    if t is E.IntLit or t is E.BoolLit:
        return _const(e.value, env)
    if t is E.Index:
        return _index(sub(e.base), value(sub(e.key), env), env)
    if t is E.Forall or t is E.Exists:
        return _junction(t is E.Exists, [
            value(sub(e.body, {**scope, e.var: a}), env)
            for a in constants[e.domain]], env)
    if t is E.And or t is E.Or:
        return _junction(t is E.Or, [value(sub(x), env) for x in e.items],
                         env)
    if t is E.Not:
        operand = value(sub(e.operand), env)
        return _fold(f"(not {operand[0]})", lambda v: not v, env, operand)
    if t is E.Implies:
        lhs = value(sub(e.lhs), env)
        rhs = value(sub(e.rhs), env)
        if _is_const(lhs):
            return rhs if lhs[1][1] else _const(True, env)
        return (f"(not {lhs[0]} or {rhs[0]})", None)
    if t is E.Cmp or t is E.BinTerm:
        left, right = value(sub(e.lhs), env), value(sub(e.rhs), env)
        py, fold = _OPS[e.op]
        return _fold(f"({left[0]} {py} {right[0]})", fold, env, left, right)
    items = [value(sub(x), env) for x in e.items]  # a SetLit
    src = "".join(["frozenset((", *(f"{i[0]}, " for i in items), "))"])
    return _fold(src, lambda *vs: frozenset(vs), env, *items)


def _slot(i, env):
    """(src, form) of slot i's value in the packed state s."""
    shift, mask, values, codes = env["_L"][i]
    read = f"(s & {mask << shift:#x})"
    if values is _BOOLS:
        return (f"({read} != 0)", None)
    if shift:
        read = f"({read} >> {shift})"
    return (read if codes is None else f"_v{i}[{read}]", None)


def _name(n, slots, constants, env, scope):
    if n in scope:
        return _const(scope[n], env)
    if n in slots:
        shape, base = slots[n]
        if shape is None:
            return _slot(base, env)
        return (None, ("map", shape, base))
    if n in constants:
        return _const(frozenset(constants[n]), env)
    return _const(n, env)  # an atom


def _junction(is_or, items, env):
    """`or` (`and`) of bool values, evaluated left to right until one is
    true (false). Constant items are folded where they decide nothing or
    everything."""
    srcs = []
    for item in items:
        if _is_const(item):
            if item[1][1] is not is_or:
                continue  # `and true`, `or false`
            if not srcs:
                return item  # decides before anything is evaluated
            srcs.append(item[0])
            break  # decides; later items are never evaluated
        srcs.append(item[0])
    if not srcs:
        return _const(not is_or, env)
    if len(srcs) == 1:
        return (srcs[0], None)
    return ("(" + (" or " if is_or else " and ").join(srcs) + ")", None)


# per binary operator: its Python spelling and its folding function
_OPS = {"=": ("==", operator.eq), "#": ("!=", operator.ne),
        "<": ("<", operator.lt), "<=": ("<=", operator.le),
        ">": (">", operator.gt), ">=": (">=", operator.ge),
        "in": ("in", lambda l, r: l in r),
        "notin": ("not in", lambda l, r: l not in r),
        "subseteq": ("<=", operator.le), "+": ("+", operator.add),
        "union": ("|", operator.or_)}


def _index(base, key, env):
    if base[0] is not None:  # it raises, before the key is evaluated
        return base
    _, shape, at = base[1]
    keys, child, stride = shape
    offsets = {k: n * stride for n, k in enumerate(keys)}
    if type(at) is int and _is_const(key):
        k = key[1][1]
        if k not in offsets:  # outside a capped domain
            message = f"index {k!r} outside map key domain"
            return (f"_raise({message!r})", None)
        at += offsets[k]
        return _slot(at, env) if child is None else (None, ("map", child, at))
    at = f"_at({at}, {_lit(offsets, env)}, {key[0]})"
    if child is not None:
        return (None, ("map", child, at))
    return (f"_get(_L, s, {at})", None)


# ---------------------------------------------------------------------------
# Transitions

def compile_step(t, binding, slots, constants, caps, env):
    """(guard, plan) of one well-sorted transition under one binding.

    guard is the guard's source, or True or False when it folds to a
    constant. plan lists the updates for `kernel`. caps maps a counter
    variable to its largest value.
    """
    scope = dict(binding)

    def comp(x):
        return compile_expr(x, slots, constants, env, scope)

    guard = value(comp(t.guard), env)
    guard = guard[1][1] if _is_const(guard) else guard[0]
    plan = []
    for target, rhs in t.updates:
        keys = [value(comp(x), env) for x in target.keys]
        plan.append(_writer(target, comp(rhs), keys, slots,
                            caps.get(target.var), env))
    return guard, plan


def _writer(target, rhs, keys, slots, cap, env):
    """The plan's op for one update.

    An op is ("const", slot, value) for an in-range constant stored at a
    fixed slot, ("slot", slot, src, cap) for another value stored there,
    and ("keyed", index, src, cap, shape, region) for a target whose slot
    `index` computes at run time, shape being the source of the shape of
    the slots a map value fills, else None, and region the mask of the
    variable's fields. As in the checker's reference
    semantics and TLA+'s EXCEPT, the right-hand side and the keys read
    the pre-state, a counter is range-checked before the keys are
    evaluated, and updates of one variable apply in order, each on top
    of the ones before it. A map value fills its target's slots: a map's
    shape follows from its sort, and a well-sorted update stores a map
    over its target's key domain.
    """
    rhs = value(rhs, env)
    shape, base = slots[target.var]
    levels, sub = [], shape  # per key: map key -> slot offset at its level
    for _ in keys:
        levels.append({k: n * sub[2] for n, k in enumerate(sub[0])})
        sub = sub[1]
    if sub is None and all(_is_const(k) and k[1][1] in level
                           for k, level in zip(keys, levels)):
        at = base + sum(level[k[1][1]] for k, level in zip(keys, levels))
        if _is_const(rhs) and (cap is None or 0 <= rhs[1][1] <= cap):
            return ("const", at, rhs[1][1])
        return ("slot", at, rhs[0], cap)
    index = "".join([f"_offset({base}, {_lit(levels, env)}",
                     *(", " + k[0] for k in keys), ")"]) if keys \
        else str(base)
    return ("keyed", index, rhs[0], cap,
            None if sub is None else _lit(sub, env), _var_mask(base, env))


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
    """(lines, writes) of one step: lines evaluate the guard, then each
    update's value and range check in order, and compute the post-state
    n; writes masks the fields the step stores, the map's whole variable
    for a store at a run-time slot. A step without updates only
    evaluates its guard, for what it raises."""
    lines, pad, writes = [], "        ", 0

    def line(text):
        lines.append(pad + text)

    cond = None if guard is True else guard
    if not plan:  # a self-loop whenever enabled
        if cond is not None:
            line(cond)
        return lines, writes
    if cond is not None:
        line(f"if {cond}:")
        pad += "    "
    stores = []  # as _post_lines reads them
    deferred = []  # stores whose value source is evaluated at the store
    L = env["_L"]
    for j, op in enumerate(plan):
        if op[0] == "keyed":
            writes |= op[5]
        else:
            writes |= L[op[1]][1] << L[op[1]][0]
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
        _, at, src, cap = op[:4]
        v = f"v{j}"
        line(f"{v} = {src}")
        if cap is not None:
            line(f"if 0 <= {v} <= {cap}:")
            pad += "    "
        if op[0] == "slot":
            stores.append((at, v, None))
            continue
        line(f"i{j} = {at}")
        if op[4] is None:
            stores.append((f"i{j}", v))
        else:
            line(f"l{j} = []")
            line(f"_leaves({v}, {op[4]}, l{j})")
            stores.append((f"i{j}", f"*l{j}"))
    for text in _post_lines(stores, env):
        line(text)
    return lines, writes


def _var_mask(i, env):
    """The mask of the fields of the variable that holds slot i."""
    return next(mask for mask, _, base, shape in env["_vars"]
                if base <= i < base + size(shape))


def read_mask(steps, slots, constants, env) -> int:
    """R, the mask of the fields that the steps, (`ir.Footprint`,
    binding) each, read or carry from the pre-state: each leaf read at
    keys known at compile time, a quantified key taking each atom of its
    bounded domain (constants), and the whole variable of a map read
    whole or through a run-time key, or stored into through keys other
    than at one leaf, whose W is the whole variable. A key outside its
    map reaches no slot: that read raises. R may hold fields that no
    step reads (constant folding drops a read, or a key path uses one
    quantified variable twice), never fewer."""
    reads, stores, L, mask = set(), set(), env["_L"], 0
    for footprint, binding in steps:
        bound = dict(binding)
        for out, accesses in ((reads, footprint.reads),
                              (stores, footprint.stores)):
            for var, keys in accesses:
                out.add((var, tuple(
                    (n,) if k == "atom" else (bound[n],) if k == "param"
                    else constants[d] if k == "bound" else None
                    for k, n, d in keys) if keys else ()))

    def leaves(var, path):
        """The leaf slots the path reaches; None: the whole variable."""
        shape, base = slots[var]
        at = [base]
        for atoms in path:
            if atoms is None:
                return None
            names, shape, stride = shape
            at = [i + names.index(a) * stride for i in at for a in atoms
                  if a in names]
        return at if shape is None else None

    for var, path in reads:
        at = leaves(var, path)  # distinct slots
        mask |= _var_mask(slots[var][1], env) if at is None else sum(
            L[i][1] << L[i][0] for i in at)
    for var, path in stores:
        at = leaves(var, path)
        if path and (at is None or len(at) != 1):
            mask |= _var_mask(slots[var][1], env)
    return mask


def kernel(steps, reads, env, budget, memo):
    """expand(frontier, seen, out): one BFS level. For each state s of
    the list frontier, in order, it hands out the post-states of the
    compiled steps (guard, plan) in order: each post-state n that the
    dict seen does not hold it records as `seen[n] = s` and appends to
    the list out. It stops before a state once seen holds more than
    budget states.

    memo maps a key `s & R` to the steps' distinct deltas (~W, n & W),
    in first occurrence order, W masking the fields a step stores, and
    reads is R (`read_mask`). A state whose key memo holds applies the
    deltas; otherwise the steps run, handing out each post-state as it
    is made, and their distinct deltas are stored once all of them have
    run. So a step that raises stores nothing: it leaves in seen and out
    the post-states of the states and steps before it, and the next
    state of its key raises again. A repeated delta is stored once,
    since applied again it gives a post-state that seen holds already,
    and a delta is left out for a self-loop of a step that stores
    nothing outside R, which is a self-loop in every state of the key."""
    steps = [_step_lines(guard, plan, env) for guard, plan in steps]
    full, body = env["_FULL"], []
    for lines, writes in steps:
        body += lines
        if not writes:
            continue
        pad = lines[-1][:len(lines[-1]) - len(lines[-1].lstrip(" "))]
        if writes & ~reads == 0:  # a self-loop here is one for the key
            body.append(f"{pad}if n != s:")
            pad += "    "
        body += [f"{pad}rec(({full ^ writes:#x}, n & {writes:#x}))",
                 f"{pad}if n not in seen:", f"{pad}    seen[n] = s",
                 f"{pad}    add(n)"]
    env["_memo"] = memo  # no cycle: env holds no function
    return _define([
        "def expand(frontier, seen, out, memo=_memo):",
        "    add = out.append",
        "    get = memo.get",
        "    for s in frontier:",
        f"        if len(seen) > {budget}:",
        "            return",
        f"        r = s & {reads:#x}",
        "        d = get(r)",
        "        if d is not None:",
        "            for k, v in d:",
        "                n = s & k | v",
        "                if n not in seen:",
        "                    seen[n] = s",
        "                    add(n)",
        "            continue",
        "        d = []",
        "        rec = d.append",
        *body,
        "        memo[r] = tuple(dict.fromkeys(d))"], "expand", env)
