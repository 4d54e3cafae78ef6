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

One printer, `show`, writes an expression in any concrete syntax given as a
table: the spelling of each node type and operator, and for each operand of
`=>`, `or`, `and` and `not` the loosest precedence level that prints there
without parentheses. `print_expr` is `show` with `IR_SYNTAX`, the grammar
above; `tla.TLA_SYNTAX` is the TLA+ table.

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
    compares hashes before items. A map holds a few items, sorted by key,
    and a lookup scans them."""
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

    def _at(self, key: str) -> int:
        for i, (k, _) in enumerate(self.items):
            if k == key:
                return i
        raise KeyError(key)

    def __getitem__(self, key: str):
        return self.items[self._at(key)][1]

    def __contains__(self, key: str) -> bool:
        return key in self.keys()

    def keys(self):
        return [k for k, _ in self.items]

    def set(self, key: str, value) -> "FMap":
        i, items = self._at(key), self.items
        return FMap(items[:i] + ((key, value),) + items[i + 1:])


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

# precedence levels, loosest to tightest, shared by the parser (how far a
# formula extends) and the printer; a name or literal is tightest
L_QUANT, L_IMPL, L_OR, L_AND, L_NOT, L_CMP, L_TERM, L_ATOM = range(8)


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
    return _formula(toks, L_IMPL)


def _formula(toks: list, level: int):
    """A formula whose operators bind at least as tight as `level`: a
    negation, a parenthesized expr or a term with an optional comparison,
    then `and`, `or` and `=>` as far as `level` allows."""
    t = toks[-1]
    if t == "not":
        toks.pop()
        lhs = Not(_formula(toks, L_NOT))
    elif t == "(":
        toks.pop()
        lhs = _expr(toks)
        _expect(toks, ")")
    else:
        lhs = _term(toks)
        if toks[-1] in _RELOPS:
            op = toks.pop()
            lhs = Cmp("#" if op == "!=" else op, lhs, _term(toks))
    if level == L_NOT:
        return lhs
    if toks[-1] == "and":
        items = [lhs]
        while toks[-1] == "and":
            toks.pop()
            items.append(_formula(toks, L_NOT))
        lhs = And(tuple(items))
    if level == L_AND:
        return lhs
    if toks[-1] == "or":
        items = [lhs]
        while toks[-1] == "or":
            toks.pop()
            items.append(_formula(toks, L_AND))
        lhs = Or(tuple(items))
    if toks[-1] == "=>":
        toks.pop()
        lhs = Implies(lhs, _formula(toks, L_IMPL))  # right-associative
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
# the compiler and the printer recurse a few frames per level, so a
# taller expression would exhaust the interpreter's stack after parsing.
_MAX_HEIGHT = 100


def _height(e) -> int:
    """The levels of the expression e, counted without recursing."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [x for y in level for x in children(y)]
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

_LEVEL = {Forall: L_QUANT, Exists: L_QUANT, Implies: L_IMPL, Or: L_OR,
          And: L_AND, Not: L_NOT, Cmp: L_CMP, BinTerm: L_TERM,
          Index: L_TERM, SetLit: L_TERM, Name: L_ATOM, IntLit: L_ATOM,
          BoolLit: L_ATOM}

# A concrete syntax for `show`. A node type maps to its spelling, and the
# connectives also to the loosest level an operand prints at without
# parentheses (for `=>` the left side, then the right); a comparison or
# term operator maps to its spelling. `=>` is right-associative here.
IR_SYNTAX = {
    Forall: "forall {} in {}: ", Exists: "exists {} in {}: ",
    Implies: (" => ", L_OR, L_IMPL), Or: (" or ", L_AND),
    And: (" and ", L_NOT), Not: ("not ", L_NOT), BoolLit: ("false", "true"),
    **{op: op for op in ("=", "#", "<", "<=", ">", ">=", "in", "notin",
                         "subseteq", "+", "union")}}


def _bare(e, need: int, syntax: dict, quoted) -> str:
    s = show(e, syntax, quoted)
    return f"({s})" if _LEVEL[type(e)] < need else s


def show(e: Expr, syntax: dict, quoted=()) -> str:
    """The text of e in a concrete syntax (`IR_SYNTAX` or
    `tla.TLA_SYNTAX`), with parentheses only where an operand is looser
    than its position admits; a name in `quoted` is written as a string.
    The operands of a comparison, `+`, `union` and an index base print at
    term level in every syntax."""
    t = type(e)
    if t is Name:
        return f'"{e.name}"' if e.name in quoted else e.name
    if t is IntLit:
        return str(e.value)
    if t is BoolLit:
        return syntax[BoolLit][e.value]
    if t is Cmp or t is BinTerm:
        return (f"{_bare(e.lhs, L_TERM, syntax, quoted)} {syntax[e.op]} "
                f"{_bare(e.rhs, L_TERM, syntax, quoted)}")
    if t is Index:
        return (f"{_bare(e.base, L_TERM, syntax, quoted)}"
                f"[{show(e.key, syntax, quoted)}]")
    if t is SetLit:
        return "{" + ", ".join(show(x, syntax, quoted) for x in e.items) + "}"
    if t is Forall or t is Exists:
        return (syntax[t].format(e.var, e.domain)
                + show(e.body, syntax, quoted))
    if t is Implies:
        op, lhs, rhs = syntax[Implies]
        return (_bare(e.lhs, lhs, syntax, quoted) + op
                + _bare(e.rhs, rhs, syntax, quoted))
    if t is Or or t is And:
        op, need = syntax[t]
        return op.join(_bare(x, need, syntax, quoted) for x in e.items)
    if t is Not:
        op, need = syntax[Not]
        return op + _bare(e.operand, need, syntax, quoted)
    raise ExprTypeError(f"not an expression: {e!r}")


def print_expr(e: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    return show(e, IR_SYNTAX)


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

