"""Guard/invariant expression language over finite domains.

Grammar (canonical concrete syntax):

    expr   := quant | impl
    quant  := ("forall" | "exists") IDENT "in" IDENT ":" expr
    impl   := disj ("=>" impl)?
    disj   := conj ("or" conj)*
    conj   := neg ("and" neg)*
    neg    := "not" neg | atom
    atom   := term (RELOP term)? | "(" expr ")" | "true" | "false"
    RELOP  := "=" | "#" | "!=" | "<" | "<=" | ">" | ">=" | "in" | "notin" | "subseteq"
    term   := addend (("+" | "union") addend)*
    addend := primary ("[" term "]")*
    primary:= IDENT | INT | "true" | "false" | "{" (term ("," term)*)? "}"

`+` and `union` are the only term-level operators; they exist so counter
increments and set-growing state updates can be written in the same language
as guards and invariants. `!=` is an accepted alias for `#`; the printer
always emits `#`.

`parse` reads the tokens as plain strings from one `findall` of the token
pattern and parses them by operator precedence (after Pratt, "Top Down
Operator Precedence", POPL 1973): `_formula` takes `not`, a parenthesized
expr or a comparison, then `and`, `or` and `=>` as far as its binding level
allows, and `_term` takes `+`, `union` and indexing, so a primary is three
calls deep. Positions are worked out only for an error: the same pattern is
run again with `finditer`, and the error names the line and column of the
token where parsing stopped, unless some character is no token at all, in
which case the first such character is the error.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, Union

from .record import Record, replace


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ExprTypeError(ExprError):
    pass


class UnboundSymbolError(ExprError):
    pass


# ---------------------------------------------------------------------------
# Values

class FMap(Record):
    """Immutable finite map with atom keys, hashable by construction. The
    hash is taken once; maps with different hashes differ, so equality
    compares hashes before items. A lookup goes through a key -> position
    index, built at the first lookup and handed on to each map `set`
    derives, which has the same keys; the index takes no part in equality,
    hash, repr or pickling."""
    __slots__ = ("items", "_hash", "_index")
    _fields = ("items",)

    def __init__(self, items: tuple):  # ((key: str, Value), ...) by key
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash((items,)))
        object.__setattr__(self, "_index", None)

    def __eq__(self, other):
        if other.__class__ is not FMap:
            return NotImplemented
        return self._hash == other._hash and self.items == other.items

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(mapping) -> "FMap":
        return FMap(tuple(sorted(mapping.items())))

    def _positions(self) -> dict:
        index = self._index
        if index is None:
            index = {k: i for i, (k, _) in enumerate(self.items)}
            object.__setattr__(self, "_index", index)
        return index

    def __getitem__(self, key: str):
        return self.items[self._positions()[key]][1]

    def __contains__(self, key: str) -> bool:
        return key in self._positions()

    def keys(self):
        return [k for k, _ in self.items]

    def set(self, key: str, value) -> "FMap":
        i = self._positions()[key]
        items = self.items
        new = FMap(items[:i] + ((items[i][0], value),) + items[i + 1:])
        object.__setattr__(new, "_index", self._index)
        return new


# An atom (a domain element or enum value) is its name string.
Value = Union[bool, int, str, frozenset, FMap]


def value_kind(v) -> str:
    t = type(v)
    if t is bool:
        return "bool"
    if t is int:
        return "int"
    if t is str:
        return "atom"
    if t is frozenset:
        return "set"
    if t is FMap:
        return "map"
    raise ExprTypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# AST

class Forall(Record):
    __slots__ = ("var", "domain", "body")


class Exists(Record):
    __slots__ = ("var", "domain", "body")


class Implies(Record):
    __slots__ = ("lhs", "rhs")


class And(Record):
    __slots__ = ("items",)


class Or(Record):
    __slots__ = ("items",)


class Not(Record):
    __slots__ = ("operand",)


class Cmp(Record):
    __slots__ = ("op", "lhs", "rhs")  # op: = # < <= > >= in notin subseteq


class BinTerm(Record):
    __slots__ = ("op", "lhs", "rhs")  # op: + union


class Index(Record):
    __slots__ = ("base", "key")


class SetLit(Record):
    __slots__ = ("items",)


class Name(Record):
    __slots__ = ("name",)


class IntLit(Record):
    __slots__ = ("value",)


class BoolLit(Record):
    __slots__ = ("value",)


Expr = Union[Forall, Exists, Implies, And, Or, Not, Cmp, BinTerm, Index,
             SetLit, Name, IntLit, BoolLit]


# ---------------------------------------------------------------------------
# Tokenizer and parser

_KEYWORDS = {"forall", "exists", "in", "notin", "subseteq", "and", "or",
             "not", "true", "false", "union"}
_RELOPS = {"=", "#", "!=", "<", "<=", ">", ">=", "in", "notin", "subseteq"}
# One token per match, after any blanks: a word, an ASCII integer, a
# punctuator (longest first), or any other character. A word that opens
# with a letter or `_` is a name or keyword; any other word (one that opens
# with a digit such as '²') and any other character is an error.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*([^\W\d]\w*|[0-9]+|=>|!=|<=|>=|:=|[=#<>:\[\]{}(),+]"
    r"|[^ \t\r\n])")
_PUNCT = {"=>", "!=", "<=", ">=", ":=", "=", "#", "<", ">", ":", "[", "]",
          "{", "}", "(", ")", ",", "+"}


class _Fail(Exception):
    """A syntax error at the token with `left` tokens (EOF included) left;
    `parse` turns it into an ExprSyntaxError with a line and column."""

    def __init__(self, message: str, left: int):
        self.message = message
        self.left = left


def _fail(toks: list, message: str):
    raise _Fail(message, len(toks))


def _expect(toks: list, text: str):
    if toks[-1] != text:
        _fail(toks, f"expected {text!r}, found {toks[-1]!r}")
    toks.pop()


def _ident(toks: list) -> str:
    t = toks[-1]
    if not (t[:1].isalpha() or t[:1] == "_") or t in _KEYWORDS:
        _fail(toks, f"expected identifier, found {t!r}")
    return toks.pop()


# how far a formula extends: through `=>`, through `and`, or no further
# than one negation, parenthesized expr or comparison
_B_IMPL, _B_AND, _B_NOT = range(3)


def _expr(toks: list):
    """expr := quant | impl"""
    t = toks[-1]
    if t == "forall" or t == "exists":
        toks.pop()
        var = _ident(toks)
        _expect(toks, "in")
        domain = _ident(toks)
        _expect(toks, ":")
        body = _expr(toks)  # body extends maximally right
        return (Forall if t == "forall" else Exists)(var, domain, body)
    return _formula(toks, _B_IMPL)


def _formula(toks: list, level: int):
    """A formula whose operators bind at least as tight as `level`: a
    negation, a parenthesized expr or a term with an optional comparison,
    then `and`, `or` and `=>` as far as `level` allows."""
    t = toks[-1]
    if t == "not":
        toks.pop()
        lhs = Not(_formula(toks, _B_NOT))
    elif t == "(":
        toks.pop()
        lhs = _expr(toks)
        _expect(toks, ")")
    else:
        lhs = _term(toks)
        if toks[-1] in _RELOPS:
            op = toks.pop()
            lhs = Cmp("#" if op == "!=" else op, lhs, _term(toks))
    if level == _B_NOT:
        return lhs
    if toks[-1] == "and":
        items = [lhs]
        while toks[-1] == "and":
            toks.pop()
            items.append(_formula(toks, _B_NOT))
        lhs = And(tuple(items))
    if level == _B_AND:
        return lhs
    if toks[-1] == "or":
        items = [lhs]
        while toks[-1] == "or":
            toks.pop()
            items.append(_formula(toks, _B_AND))
        lhs = Or(tuple(items))
    if toks[-1] == "=>":
        toks.pop()
        lhs = Implies(lhs, _formula(toks, _B_IMPL))  # right-associative
    return lhs


def _term(toks: list):
    """term := addend (("+" | "union") addend)*, where
    addend := primary ("[" term "]")*"""
    lhs = op = None
    while True:
        t = toks[-1]
        c = t[:1]
        if t in _KEYWORDS:
            if t != "true" and t != "false":
                _fail(toks, f"unexpected token {t!r}")
            e = BoolLit(toks.pop() == "true")
        elif c.isalpha() or c == "_":
            e = Name(toks.pop())
        elif "0" <= c <= "9":
            e = IntLit(int(toks.pop()))
        elif t == "{":
            toks.pop()
            items = []
            if toks[-1] != "}":
                items.append(_term(toks))
                while toks[-1] == ",":
                    toks.pop()
                    items.append(_term(toks))
            _expect(toks, "}")
            e = SetLit(tuple(items))
        else:
            _fail(toks, f"unexpected token {t!r}")
        while toks[-1] == "[":
            toks.pop()
            key = _term(toks)
            _expect(toks, "]")
            e = Index(e, key)
        lhs = e if lhs is None else BinTerm(op, lhs, e)
        op = toks[-1]
        if op != "+" and op != "union":
            return lhs
        toks.pop()


def _position(text: str, start: int, line_offset: int, col_offset: int):
    """The (line, column) of offset `start` in text that begins at
    column col_offset + 1 of line line_offset + 1."""
    bol = text.rfind("\n", 0, start) + 1
    if not bol:
        return line_offset + 1, start + col_offset + 1
    return line_offset + 1 + text.count("\n", 0, start), start - bol + 1


def _syntax_error(text: str, index: int, message: str, line_offset: int,
                  col_offset: int) -> ExprSyntaxError:
    """The error to raise for `message` at token `index` (EOF when past the
    last token), unless some token is no token at all: then the first such
    one is the error, wherever the parser stopped."""
    start = len(text)
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        tok = m[1]
        if not (tok[0].isalpha() or tok[0] == "_" or "0" <= tok[0] <= "9"
                or tok in _PUNCT):
            message, start = f"unexpected character {tok[0]!r}", m.start(1)
            break
        if i == index:
            start = m.start(1)
    return ExprSyntaxError(message,
                           *_position(text, start, line_offset, col_offset))


# The most levels an expression may have. The sort check, the evaluator,
# the compiler and the printers recurse a few frames per level, so a
# taller expression would exhaust the interpreter's stack after parsing.
_MAX_HEIGHT = 100


def _height(e) -> int:
    """The levels of the expression e, counted without recursing."""
    height, level = 0, [e]
    while level:
        height += 1
        below = []
        for x in level:
            for name in x.__slots__:
                v = getattr(x, name)
                if type(v) is tuple:
                    below += v
                elif isinstance(v, Record):
                    below.append(v)
        level = below
    return height


def parse(text: str, line_offset: int = 0, col_offset: int = 0) -> Expr:
    """Parse an expression; raises ExprSyntaxError with position on failure.
    An expression of more than `_MAX_HEIGHT` levels is an error at its
    first token."""
    toks = _TOKEN_RE.findall(text)
    toks.append("")  # EOF
    toks.reverse()  # the next token is toks[-1]
    n = len(toks)
    try:
        e = _expr(toks)
        if toks[-1]:
            _fail(toks, f"trailing input {toks[-1]!r}")
        # each level has a token of its own
        if n > _MAX_HEIGHT and _height(e) > _MAX_HEIGHT:
            raise _Fail("expression nested too deeply", n)
        return e
    except _Fail as f:
        err = _syntax_error(text, n - f.left, f.message, line_offset,
                            col_offset)
    except RecursionError:  # at the token the parser was reading
        err = _syntax_error(text, n - len(toks),
                            "expression nested too deeply", line_offset,
                            col_offset)
    raise err  # outside the handler: the error has no context


# ---------------------------------------------------------------------------
# Printer

# precedence levels, loosest to tightest
_L_QUANT, _L_IMPL, _L_OR, _L_AND, _L_NOT, _L_CMP, _L_TERM = range(7)


def _level(e) -> int:
    if isinstance(e, (Forall, Exists)):
        return _L_QUANT
    if isinstance(e, Implies):
        return _L_IMPL
    if isinstance(e, Or):
        return _L_OR
    if isinstance(e, And):
        return _L_AND
    if isinstance(e, Not):
        return _L_NOT
    if isinstance(e, Cmp):
        return _L_CMP
    return _L_TERM


def _p(e, need: int) -> str:
    s = _raw(e)
    return f"({s})" if _level(e) < need else s


def _raw(e) -> str:
    if isinstance(e, Forall):
        return f"forall {e.var} in {e.domain}: {_p(e.body, _L_QUANT)}"
    if isinstance(e, Exists):
        return f"exists {e.var} in {e.domain}: {_p(e.body, _L_QUANT)}"
    if isinstance(e, Implies):
        # => is right-associative: lhs must bind tighter
        return f"{_p(e.lhs, _L_OR)} => {_p(e.rhs, _L_IMPL)}"
    if isinstance(e, Or):
        return " or ".join(_p(x, _L_AND) for x in e.items)
    if isinstance(e, And):
        return " and ".join(_p(x, _L_NOT) for x in e.items)
    if isinstance(e, Not):
        return f"not {_p(e.operand, _L_NOT)}"
    if isinstance(e, Cmp):
        return f"{_p(e.lhs, _L_TERM)} {e.op} {_p(e.rhs, _L_TERM)}"
    if isinstance(e, BinTerm):
        return f"{_p(e.lhs, _L_TERM)} {e.op} {_p(e.rhs, _L_TERM)}"
    if isinstance(e, Index):
        return f"{_p(e.base, _L_TERM)}[{_raw(e.key)}]"
    if isinstance(e, SetLit):
        return "{" + ", ".join(_raw(x) for x in e.items) + "}"
    if isinstance(e, Name):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    raise ExprTypeError(f"not an expression: {e!r}")


def print_expr(e: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    return _raw(e)


# ---------------------------------------------------------------------------
# Structure: sub-expressions, binding, free symbols, renaming

# the fields of each node type that hold sub-expressions; an `items` field
# holds a tuple of them
_SUBTERM_FIELDS = {
    Forall: ("body",), Exists: ("body",), Implies: ("lhs", "rhs"),
    And: ("items",), Or: ("items",), Not: ("operand",), Cmp: ("lhs", "rhs"),
    BinTerm: ("lhs", "rhs"), Index: ("base", "key"), SetLit: ("items",)}


def children(e: Expr) -> tuple:
    """The direct sub-expressions of e, in source order."""
    out = []
    for f in _SUBTERM_FIELDS.get(type(e), ()):
        out += getattr(e, f) if f == "items" else (getattr(e, f),)
    return tuple(out)


def binder(e: Expr):
    """The variable e binds in its body (a quantifier's), else None."""
    return e.var if isinstance(e, (Forall, Exists)) else None


def free_symbols(e: Expr) -> frozenset:
    """Unbound Name references (quantifier domains and bound vars excluded)."""
    if isinstance(e, Name):
        return frozenset((e.name,))
    return frozenset().union(*map(free_symbols, children(e))) - {binder(e)}


def rename(e: Expr, mapping: Mapping) -> Expr:
    """e with every free name and every quantifier domain n replaced by
    mapping.get(n, n); a name a quantifier binds is left alone."""
    if isinstance(e, Name):
        return Name(mapping.get(e.name, e.name))
    var = binder(e)
    if var is not None:
        e = replace(e, domain=mapping.get(e.domain, e.domain))
        mapping = {k: v for k, v in mapping.items() if k != var}
    return replace(e, **{
        f: tuple(rename(x, mapping) for x in getattr(e, f)) if f == "items"
        else rename(getattr(e, f), mapping)
        for f in _SUBTERM_FIELDS.get(type(e), ())})


def iter_subterms(e: Expr) -> Iterator[Expr]:
    """e and every expression inside it, in source order."""
    yield e
    for x in children(e):
        yield from iter_subterms(x)


# ---------------------------------------------------------------------------
# Evaluator

def _require(kind: str, v, what: str):
    if value_kind(v) != kind:
        raise ExprTypeError(f"{what}: expected {kind}, got {value_kind(v)}")
    return v


def _bool(v, what: str) -> bool:
    # hot path: avoid value_kind for the overwhelmingly common case
    if v is True or v is False:
        return v
    raise ExprTypeError(f"{what}: expected bool, got {value_kind(v)}")


def _eval(e, env, state, constants, atoms):
    # leaves first: Name dominates call counts in checker workloads
    if isinstance(e, Name):
        n = e.name
        if n in env:
            return env[n]
        if n in state:
            return state[n]
        if n in constants:
            return frozenset(constants[n])
        if atoms is None or n in atoms:
            return n
        raise UnboundSymbolError(f"unbound symbol {n!r}")
    if isinstance(e, Cmp):
        l = _eval(e.lhs, env, state, constants, atoms)
        r = _eval(e.rhs, env, state, constants, atoms)
        return _compare(e.op, l, r)
    if isinstance(e, Index):
        base = _eval(e.base, env, state, constants, atoms)
        key = _eval(e.key, env, state, constants, atoms)
        _require("map", base, "indexing")
        _require("atom", key, "map key")
        if key not in base:
            raise ExprTypeError(f"index {key!r} outside map key domain")
        return base[key]
    if isinstance(e, (Forall, Exists)):
        if e.domain not in constants:
            raise UnboundSymbolError(f"unknown domain {e.domain!r}")
        sub = dict(env)
        want = isinstance(e, Exists)
        for a in constants[e.domain]:
            sub[e.var] = a
            if _bool(_eval(e.body, sub, state, constants, atoms),
                     "quantifier body") is want:
                return want
        return not want
    if isinstance(e, And):
        return all(_bool(_eval(x, env, state, constants, atoms), "and")
                   for x in e.items)
    if isinstance(e, Or):
        return any(_bool(_eval(x, env, state, constants, atoms), "or")
                   for x in e.items)
    if isinstance(e, Not):
        return not _bool(
            _eval(e.operand, env, state, constants, atoms), "not")
    if isinstance(e, Implies):
        lhs = _bool(_eval(e.lhs, env, state, constants, atoms), "=>")
        return (not lhs) or _bool(
            _eval(e.rhs, env, state, constants, atoms), "=>")
    if isinstance(e, BinTerm):
        l = _eval(e.lhs, env, state, constants, atoms)
        r = _eval(e.rhs, env, state, constants, atoms)
        if e.op == "+":
            _require("int", l, "+")
            _require("int", r, "+")
            return l + r
        _require("set", l, "union")
        _require("set", r, "union")
        return l | r
    if isinstance(e, SetLit):
        return frozenset(_eval(x, env, state, constants, atoms)
                         for x in e.items)
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    raise ExprTypeError(f"not an expression: {e!r}")


def _compare(op, l, r):
    if op in ("in", "notin"):
        _require("set", r, op)
        return (l in r) if op == "in" else (l not in r)
    if op == "subseteq":
        _require("set", l, op)
        _require("set", r, op)
        return l <= r
    lk, rk = value_kind(l), value_kind(r)
    if lk != rk:
        raise ExprTypeError(f"cannot compare {lk} {op} {rk}")
    if op == "=":
        return l == r
    if op == "#":
        return l != r
    if lk != "int":
        raise ExprTypeError(f"ordering {op!r} requires ints, got {lk}")
    return {"<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[op]


def evaluate(e: Expr, state: Mapping, constants: Mapping,
             atoms=None) -> Value:
    """Evaluate under finite-model semantics.

    `state` maps symbols to Values; `constants` maps domain names to atom
    name sequences. When `atoms` (the universe of known atom names) is
    given, an unresolvable identifier raises UnboundSymbolError instead of
    falling back to an atom literal.
    """
    return _eval(e, {}, state, constants, atoms)


def evaluate_bool(e: Expr, state: Mapping, constants: Mapping,
                  atoms=None) -> bool:
    v = evaluate(e, state, constants, atoms)
    return _require("bool", v, "top-level expression")

