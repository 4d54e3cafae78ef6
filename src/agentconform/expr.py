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
    compares hashes before items."""
    __slots__ = ("items", "_hash")
    _fields = ("items",)

    def __init__(self, items: tuple):  # ((key: str, Value), ...) by key
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash((items,)))

    def __eq__(self, other):
        if other.__class__ is not FMap:
            return NotImplemented
        return self._hash == other._hash and self.items == other.items

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(mapping) -> "FMap":
        return FMap(tuple(sorted(mapping.items())))

    def __getitem__(self, key: str):
        for k, v in self.items:
            if k == key:
                return v
        raise KeyError(key)

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self.items)

    def keys(self):
        return [k for k, _ in self.items]

    def set(self, key: str, value) -> "FMap":
        if key not in self:
            raise KeyError(key)
        return FMap(tuple((k, value if k == key else v) for k, v in self.items))


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

    def __init__(self, var: str, domain: str, body: "Expr"):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "body", body)


class Exists(Record):
    __slots__ = ("var", "domain", "body")

    def __init__(self, var: str, domain: str, body: "Expr"):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "body", body)


class Implies(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class And(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        object.__setattr__(self, "items", items)


class Or(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        object.__setattr__(self, "items", items)


class Not(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: "Expr"):
        object.__setattr__(self, "operand", operand)


class Cmp(Record):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "op", op)  # = # < <= > >= in notin subseteq
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class BinTerm(Record):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr"):
        object.__setattr__(self, "op", op)  # + union
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Index(Record):
    __slots__ = ("base", "key")

    def __init__(self, base: "Expr", key: "Expr"):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "key", key)


class SetLit(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        object.__setattr__(self, "items", items)


class Name(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class IntLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class BoolLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", value)


Expr = Union[Forall, Exists, Implies, And, Or, Not, Cmp, BinTerm, Index,
             SetLit, Name, IntLit, BoolLit]


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {"forall", "exists", "in", "notin", "subseteq", "and", "or",
             "not", "true", "false", "union"}
# One token per match, after any blanks: a newline, a word, an ASCII
# integer, a punctuator (longest first), or any other character, which is
# an error.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<NL>\n)|(?P<WORD>[^\W\d]\w*)|(?P<INT>[0-9]+)"
    r"|(?P<PUNCT>=>|!=|<=|>=|:=|[=#<>:\[\]{}(),+])|(?P<BAD>[^ \t\r]))")


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # IDENT INT PUNCT KEYWORD EOF
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, line_offset: int = 0, col_offset: int = 0) -> list:
    toks = []
    line, line_start = 1 + line_offset, -col_offset
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word, col = m[kind], m.start(kind) - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "WORD" and (word[0].isalpha() or word[0] == "_"):
            toks.append(_Tok("KEYWORD" if word in _KEYWORDS else "IDENT",
                             word, line, col))
        elif kind in ("INT", "PUNCT"):
            toks.append(_Tok(kind, word, line, col))
        else:  # BAD, or a word that opens with a digit such as '²'
            raise ExprSyntaxError(f"unexpected character {word[0]!r}",
                                  line, col)
    toks.append(_Tok("EOF", "", line, len(text) - line_start + 1))
    return toks


_RELOPS = ("=", "#", "!=", "<", "<=", ">", ">=", "in", "notin", "subseteq")


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ExprSyntaxError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            self.error(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "IDENT":
            self.error(f"expected identifier, found {t.text!r}")
        return self.next().text

    # expr := quant | impl
    def expr(self):
        t = self.peek()
        if t.text in ("forall", "exists"):
            self.next()
            var = self.expect_ident()
            self.expect("in")
            domain = self.expect_ident()
            self.expect(":")
            body = self.expr()  # body extends maximally right
            return (Forall if t.text == "forall" else Exists)(var, domain, body)
        return self.impl()

    def impl(self):
        lhs = self.disj()
        if self.peek().text == "=>":
            self.next()
            return Implies(lhs, self.impl())
        return lhs

    def disj(self):
        items = [self.conj()]
        while self.peek().text == "or":
            self.next()
            items.append(self.conj())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conj(self):
        items = [self.neg()]
        while self.peek().text == "and":
            self.next()
            items.append(self.neg())
        return items[0] if len(items) == 1 else And(tuple(items))

    def neg(self):
        if self.peek().text == "not":
            self.next()
            return Not(self.neg())
        return self.atom()

    def atom(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        lhs = self.term()
        nxt = self.peek().text
        if nxt in _RELOPS:
            self.next()
            op = "#" if nxt == "!=" else nxt
            return Cmp(op, lhs, self.term())
        return lhs

    def term(self):
        lhs = self.addend()
        while self.peek().text in ("+", "union"):
            op = self.next().text
            lhs = BinTerm(op, lhs, self.addend())
        return lhs

    def addend(self):
        e = self.primary()
        while self.peek().text == "[":
            self.next()
            key = self.term()
            self.expect("]")
            e = Index(e, key)
        return e

    def primary(self):
        t = self.peek()
        if t.kind == "IDENT":
            return Name(self.next().text)
        if t.kind == "INT":
            return IntLit(int(self.next().text))
        if t.text in ("true", "false"):
            return BoolLit(self.next().text == "true")
        if t.text == "{":
            self.next()
            items = []
            if self.peek().text != "}":
                items.append(self.term())
                while self.peek().text == ",":
                    self.next()
                    items.append(self.term())
            self.expect("}")
            return SetLit(tuple(items))
        self.error(f"unexpected token {t.text!r}")


def parse(text: str, line_offset: int = 0, col_offset: int = 0) -> Expr:
    """Parse an expression; raises ExprSyntaxError with position on failure."""
    p = _Parser(_tokenize(text, line_offset, col_offset))
    e = p.expr()
    if p.peek().kind != "EOF":
        p.error(f"trailing input {p.peek().text!r}")
    return e


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

