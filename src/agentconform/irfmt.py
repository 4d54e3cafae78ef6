"""Loader and serializer for the IR file format and clause files.

The format is UTF-8 structured text: the top-level pairs `protocol:` and
`snapshot:`, `var` declarations, and brace-delimited blocks (`constants
{ }`, `transition ID { }`, `property ID { }`, `aps { }`, `clause { }`). A
line may hold several `key: value` pairs.

One rule splits every list in the format: text splits at a separator
only where the separator sits outside brackets and double-quoted strings,
and inside a brace group that opens at top level only braces count, as in
the block reader. No reader counts a brace inside a double-quoted string
or on a comment line (a line whose text starts with `#`). The separator
is `,` between parameters and map-literal entries, `;` between updates,
and two or more spaces before `key:` between pairs. A value in double
quotes is the text between them; a `source` value is one `{ ... }` group
of the same pairs, or the invented-assumption marker. Either ends its
pair where it closes. A key that a transition, property, clause or
source group does not have is an error, and so is a second pair with the
same key in any block or group, except `update` and `source` in a
transition and `source` in a property.

A name in a declared list (a `constants` domain's atoms, `ENUM[...]`
values, transition `params`) is an identifier `[A-Za-z_][A-Za-z0-9_]*`
and appears once; `COUNTER(n)` and a clause's `precedence` are ASCII
digits.

There is one reader, and it makes one pass over the lines. It uses string
methods and one compiled pattern per construct: the block header, the
`key:` head of a pair (also what tells a pair separator from other
spaces), the `var` declaration, the sort, and the finder of quotes,
braces and brackets that the list splitter steps through. Each pair
keeps the line and column where its value starts, and each nested reader
(sorts, lists, updates, expressions) is handed the column its text starts
at, so every error names the line and the column in that line without a
second reading. An expression text is parsed once per document: a repeat
such as `false` reuses the first parse.

Models stay reviewable data assets: everything, including guard and
invariant expressions, is plain text with provenance attached.
"""

from __future__ import annotations

import re

from . import expr as E
from . import ir


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Low-level line scanning

# One compiled pattern per construct; everything else is string methods,
# which cost nothing to set up.
_KEY = r"[A-Za-z_][A-Za-z0-9_\-]*"
_KEY_RE = re.compile(f"({_KEY}): *")  # the head of a `key: value` pair
_BLOCK_RE = re.compile(r"\s*(constants|aps|transition|property|clause)"
                       rf"(?:\s+({_KEY}))?\s*\{{(.*)")
_VAR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+?)\s+init\s+(.+)")
_QUOTE_OR_BRACKET = re.compile(r'["{}\[\]()]')
# a `source` group: its quoted strings, then at most one unpaired quote,
# which the pair splitter then reports where it is
_GROUP_RE = re.compile(r'\{(?:[^{}"]|"[^"]*")*"?[^{}"]*\}')
# the pair separator: two or more spaces before `key:`
_PAIR_SEP = "  "


def _shield(text: str) -> str:
    """text with each brace inside a double-quoted string replaced by
    `_`, for the brace counters to read: columns stay where they are.
    Quotes pair from the left; text after an unpaired one is not quoted."""
    if '"' not in text:
        return text
    parts = text.split('"')
    quoted = parts[1:-1:2]
    if not any("{" in q or "}" in q for q in quoted):
        return text
    parts[1:-1:2] = [q.replace("{", "_").replace("}", "_") for q in quoted]
    return '"'.join(parts)


def _is_name(text: str) -> bool:
    """An identifier: [A-Za-z_][A-Za-z0-9_]*."""
    return text.isascii() and text.isidentifier()


def _split(text: str, sep: str, line: int, col: int = 1) -> list:
    """Split `text`, at column col, at each separator `sep` (`,`, `;` or
    _PAIR_SEP) that sits outside brackets and double-quoted strings into
    its stripped, non-empty (part, column)s. A quoted string is skipped to
    its closing quote, and a brace group opened at top level is read as
    the block reader reads it: only its braces outside quotes count.
    Separators are looked for only in the runs between quotes, braces and
    brackets that lie at depth 0."""
    parts, start, depth, pos, end = [], 0, 0, 0, len(text)
    scan = _shield(text)
    search, find = _QUOTE_OR_BRACKET.search, scan.find
    while True:
        m = search(scan, pos)
        stop = end if m is None else m.start()
        if not depth:  # the separators in text[pos:stop]
            i = find(sep, pos, stop)
            while i >= 0:
                j = i + len(sep)
                if sep == _PAIR_SEP:
                    while text.startswith(" ", j):
                        j += 1
                    if not _KEY_RE.match(text, j):
                        i = find(sep, i + 1, stop)
                        continue
                part = text[start:i].lstrip()
                if part:
                    parts.append((part.rstrip(), col + i - len(part)))
                start = j
                i = find(sep, j, stop)
        if m is None:
            break
        tok, pos = m[0], stop + 1
        if tok == '"':
            pos = find('"', pos) + 1
            if not pos:
                raise ParseError("unterminated string", line, col + stop)
        elif tok == "{" and not depth:
            group = 1
            while group:
                close = find("}", pos)
                if close < 0:  # the group runs to the end of the text
                    pos = end
                    break
                group += scan.count("{", pos, close) - 1
                pos = close + 1
        elif tok in "[({":
            depth += 1
        else:
            depth -= 1
    part = text[start:].lstrip()
    if part:
        parts.append((part.rstrip(), col + end - len(part)))
    return parts


def _scan_pairs(text: str, line: int, col: int = 1) -> list:
    """Split text at column col of a line into (key, value, line, value
    column) pairs. A quoted value or a `source` group ends where it
    closes, so the next `key:` may follow it after any number of spaces."""
    pairs = []
    for part, at in _split(text, _PAIR_SEP, line, col):
        while part:
            m = _KEY_RE.match(part)
            if not m:
                raise ParseError(f"expected 'key:' at {part[:20]!r}", line, at)
            key, head = m[1], m.end()
            value, at = part[head:], at + head
            first = value[:1]
            if first == '"':
                # the splitter found this quote's closing one in the part
                end = value.index('"', 1) + 1
                pairs.append((key, value[1:end - 1], line, at + 1))
            elif first == "{" and key == "source":
                group = _GROUP_RE.match(value)
                if not group:
                    raise ParseError(f"source is not one {{ }} group: "
                                     f"{value!r}", line, at)
                end = group.end()
                pairs.append((key, group[0], line, at))
            else:  # a part ends stripped, so only its lead is left
                rest = value.lstrip()
                pairs.append((key, rest, line, at + len(value) - len(rest)))
                break
            part = value[end:].lstrip(" ")
            at += len(value) - len(part)
    return pairs


class _Block:
    __slots__ = ("kind", "name", "pairs", "line", "col")

    def __init__(self, kind: str, name: str, pairs: list, line: int,
                 col: int):
        self.kind = kind  # var constants transition property aps clause
        self.name = name
        self.pairs = pairs  # (key, value, line, column of the value)
        self.line = line  # the header's line and column
        self.col = col

    def at(self, key: str = "") -> tuple:
        """The line and column of key's value, or of the header if the
        block has no such key."""
        for k, _, line, col in self.pairs:
            if k == key:
                return line, col
        return self.line, self.col


def _read_blocks(text: str):
    """Split a document into a top-level pair list plus named blocks. A
    block's lines are all collected before any of them is scanned, and
    its comment lines are dropped."""
    top, blocks = [], []
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        col = 1
        if depth == 0:
            stripped = raw.strip()
            if not stripped or stripped[0] == "#":
                continue
            m = _BLOCK_RE.match(raw)
            if m:
                block = _Block(m[1], m[2] or "", [], lineno, m.start(1) + 1)
                body = []
                raw, depth, col = m[3], 1, m.start(3) + 1
            elif stripped.startswith("var "):
                col = raw.index("var ") + 1
                decl = ("decl", stripped[4:], lineno, col + 4)
                blocks.append(_Block("var", "", [decl], lineno, col))
                continue
            else:
                top += _scan_pairs(stripped, lineno,
                                   1 + len(raw) - len(raw.lstrip()))
                continue
        if raw.lstrip().startswith("#"):  # a comment line
            continue
        # braces up to the one that closes the block, if this line has it
        scan, pos = _shield(raw), 0
        while (close := scan.find("}", pos)) >= 0:
            depth += scan.count("{", pos, close) - 1
            pos = close + 1
            if not depth:
                break
        else:
            depth += scan.count("{", pos)
        if depth:
            body.append((raw, lineno, col))
            continue
        # the block closes at this brace; nothing may follow it
        rest = raw[pos:]
        if scan.count("}", pos) > scan.count("{", pos):
            raise ParseError(f"unmatched '}}' in block {block.kind!r}", lineno)
        if rest.strip():
            raise ParseError(f"text after the '}}' that closes block "
                             f"{block.kind!r}", lineno,
                             col + len(raw) - len(rest.lstrip()))
        body.append((raw[:pos - 1], lineno, col))
        pairs = block.pairs
        for part, ln, at in body:
            stripped = part.lstrip()
            if stripped and stripped[0] != "#":
                pairs += _scan_pairs(stripped.rstrip(), ln,
                                     at + len(part) - len(stripped))
        blocks.append(block)
    if depth:
        raise ParseError(f"unterminated block {block.kind!r}", *block.at())
    return top, blocks


def _check_keys(pairs, what: str, keys=None, repeatable=()):
    """Reject a key outside `keys` (None: any key is allowed) and a second
    pair with a key not in `repeatable`, naming the key and the line and
    column of its value."""
    seen = set()
    for key, _, line, col in pairs:
        if keys is not None and key not in keys:
            raise ParseError(f"unknown {what} key {key!r}", line, col)
        if key in seen and key not in repeatable:
            raise ParseError(f"duplicate {what} key {key!r}", line, col)
        seen.add(key)


def _names(text: str, what: str, line: int, col: int) -> tuple:
    """The names of a comma-separated list at this line and column, each
    an identifier and none twice; an empty entry is skipped."""
    names = []
    for item in text.split(","):
        name = item.strip()
        if name:
            at = col + len(item) - len(item.lstrip())
            if not _is_name(name):
                raise ParseError(f"{what}: {name!r} is not an identifier",
                                 line, at)
            if name in names:
                raise ParseError(f"{what}: duplicate name {name!r}", line, at)
            names.append(name)
        col += len(item) + 1
    return tuple(names)


# ---------------------------------------------------------------------------
# Sorts and init specs

_SORT_RE = re.compile(r"COUNTER\(\s*(\d+)\s*\)|ENUM\[(.*)\]"
                      r"|SET\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)"
                      r"|MAP\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*->\s*(.*)\)")


def parse_sort(text: str, line: int = 0, col: int = 1) -> ir.Sort:
    """A sort written at this line (0: unknown) and column."""
    col += len(text) - len(text.lstrip())
    text = text.strip()
    if text == "BOOL":
        return ir.BoolSort()
    m = _SORT_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"unknown sort {text!r}", line, col)
    digits, values, elem, dom, value = m.groups()
    if digits is not None:
        if not digits.isascii():
            raise ParseError(f"COUNTER bound {digits!r} is not ASCII digits",
                             line, col + m.start(1))
        return ir.CounterSort(int(digits))
    if values is not None:
        values = _names(values, "ENUM", line, col + 5)
        if not values:
            raise ParseError("empty ENUM", line, col)
        return ir.EnumSort(values)
    if elem is not None:
        return ir.SetSort(elem)
    return ir.MapSort(dom, parse_sort(value, line, col + m.start(5)))


def _expr(text: str, line: int, col: int, memo: dict) -> E.Expr:
    """An expression, stripped, written at this line (0: unknown) and
    column of the document, so that a syntax error names both. `memo` maps
    the texts already parsed in this document to their expressions."""
    e = memo.get(text)
    if e is None:
        lead = len(text) - len(text.lstrip())
        e = memo[text] = E.parse(text.strip(), max(line - 1, 0),
                                 col - 1 + lead)
    return e


def parse_init(text: str, line: int = 0, col: int = 1,
               memo=None) -> ir.InitSpec:
    memo = {} if memo is None else memo
    col += len(text) - len(text.lstrip())
    text = text.strip()
    if text.startswith("all "):
        return ir.InitAll(_expr(text[4:], line, col + 4, memo))
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError("unterminated map-literal init", line, col)
        entries = []
        for part, at in _split(text[1:-1], ",", line, col + 1):
            if ":" not in part:
                raise ParseError(f"bad map-literal entry {part!r}", line, at)
            k, v = part.split(":", 1)
            entries.append((k.strip(), _expr(v, line, at + len(k) + 1, memo)))
        return ir.InitMap(tuple(entries))
    return ir.InitExpr(_expr(text, line, col, memo))


# ---------------------------------------------------------------------------
# Element parsers

_SOURCE_KEYS = ("doc", "section", "quote")
_TRANSITION_KEYS = ("kind", "actor", "params", "guard", "update", "modality",
                    "adv", "source")
_PROPERTY_KEYS = ("principle", "class", "invariant", "source")
_CLAUSE_KEYS = ("id", "protocol", "modality", "actor", "behavior",
                "ambiguous", "precedence", "source")


def _parse_source_value(value: str, line: int, col: int = 1) -> ir.SourceRef:
    """A `source` value (stripped) that starts at this line and column."""
    if value == ir.INVENTED_MARKER:
        return ir.INVENTED_REF
    if not _GROUP_RE.fullmatch(value):
        raise ParseError(f"bad source reference {value!r}", line, col)
    pairs = _scan_pairs(value[1:-1], line, col + 1)
    _check_keys(pairs, "source", _SOURCE_KEYS)
    fields = {k: v for k, v, *_ in pairs}
    return ir.SourceRef(fields.get("doc", ""), fields.get("section", ""),
                        fields.get("quote", ""))


def _parse_params(value: str, line: int, col: int):
    params, names = [], set()
    for part, at in _split(value, ",", line, col):
        words = part.split()  # NAME in NAME
        if len(words) != 3 or words[1] != "in" or not _is_name(words[0]) \
                or not _is_name(words[2]):
            raise ParseError(f"bad parameter {part!r}", line, at)
        name, _, domain = words
        if name in names:
            raise ParseError(f"params: duplicate name {name!r}", line, at)
        names.add(name)
        params.append((name, domain))
    return tuple(params)


def parse_updates(value: str, line: int, col: int = 1, memo=None):
    """`target := expr; ...` as ((UpdateTarget, Expr), ...); value sits
    at this line (0: unknown) and column, for error messages."""
    memo = {} if memo is None else memo
    updates = []
    for part, at in _split(value, ";", line, col):
        if ":=" not in part:
            raise ParseError(f"update missing ':=' in {part!r}", line, at)
        lhs_text, rhs_text = part.split(":=", 1)
        lhs = _expr(lhs_text, line, at, memo)
        keys = []
        while isinstance(lhs, E.Index):
            keys.insert(0, lhs.key)
            lhs = lhs.base
        if not isinstance(lhs, E.Name):
            raise ParseError(f"bad update target in {part!r}", line, at)
        updates.append((ir.UpdateTarget(lhs.name, tuple(keys)),
                        _expr(rhs_text, line, at + len(lhs_text) + 2, memo)))
    return tuple(updates)


def _parse_transition(block: _Block, memo: dict) -> ir.Transition:
    kind = actor = ""
    modality = "NOT_SPECIFIED"
    adv = None
    params = ()
    guard = E.BoolLit(True)
    updates = []
    refs = []
    _check_keys(block.pairs, "transition", _TRANSITION_KEYS,
                ("update", "source"))
    for key, value, line, col in block.pairs:
        if key == "kind":
            kind = value
        elif key == "actor":
            actor = value
        elif key == "params":
            params = _parse_params(value, line, col)
        elif key == "guard":
            guard = _expr(value, line, col, memo)
        elif key == "update":
            updates += parse_updates(value, line, col, memo)
        elif key == "modality":
            modality = value
        elif key == "adv":
            adv = value
        else:  # source
            refs.append(_parse_source_value(value, line, col))
    if kind not in ir.KINDS:
        raise ParseError(f"transition {block.name!r}: bad kind {kind!r}",
                         *block.at("kind"))
    if modality not in ir.MODALITIES:
        raise ParseError(f"transition {block.name!r}: bad modality "
                         f"{modality!r}", *block.at("modality"))
    return ir.Transition(block.name, kind, actor, params, guard,
                         tuple(updates), modality, tuple(refs), adv)


def _parse_property(block: _Block, memo: dict) -> ir.Property:
    principle = cls = ""
    invariant = None
    refs = []
    _check_keys(block.pairs, "property", _PROPERTY_KEYS, ("source",))
    for key, value, line, col in block.pairs:
        if key == "principle":
            principle = value
        elif key == "class":
            cls = value
        elif key == "invariant":
            invariant = _expr(value, line, col, memo)
        else:  # source
            refs.append(_parse_source_value(value, line, col))
    if principle not in ir.PRINCIPLES:
        raise ParseError(f"property {block.name!r}: bad principle "
                         f"{principle!r}", *block.at("principle"))
    if cls not in ir.PROPERTY_CLASSES:
        raise ParseError(f"property {block.name!r}: bad class {cls!r}",
                         *block.at("class"))
    if invariant is None:
        raise ParseError(f"property {block.name!r}: missing invariant",
                         *block.at())
    return ir.Property(block.name, principle, cls, invariant, tuple(refs))


def _parse_constants(block: _Block):
    constants = []
    _check_keys(block.pairs, "constants")
    for key, value, line, col in block.pairs:
        col += len(value) - len(value.lstrip())
        value = value.strip()
        if not (value.startswith("[") and value.endswith("]")):
            raise ParseError(f"constants {key!r}: expected [a, b, ...]",
                             line, col)
        constants.append((key, _names(value[1:-1], f"constants {key!r}",
                                      line, col + 1)))
    return tuple(constants)


def parse_model(text: str, *, origin: str = "<string>") -> ir.ProtocolModel:
    top, blocks = _read_blocks(text)
    _check_keys(top, "top-level", ("protocol", "snapshot"))
    fields = {k: v for k, v, *_ in top}
    for k in ("protocol", "snapshot"):
        if k not in fields:
            raise ParseError(f"{origin}: missing '{k}:' header", 1)

    constants = ()
    aps = ()
    state_vars = []
    transitions = []
    properties = []
    seen_ids = set()
    memo = {}
    for block in blocks:
        if block.kind == "var":
            _, decl, line, col = block.pairs[0]
            m = _VAR_RE.fullmatch(decl)
            if not m:
                raise ParseError(f"bad var declaration {decl!r}", line, col)
            name = m[1]
            if name in seen_ids:
                raise ParseError(f"duplicate id {name!r}", line)
            seen_ids.add(name)
            state_vars.append(ir.StateVarDecl(
                name, parse_sort(m[2], line, col + m.start(2)),
                parse_init(m[3], line, col + m.start(3), memo)))
        elif block.kind == "transition":
            if block.name in seen_ids:
                raise ParseError(f"duplicate id {block.name!r}", *block.at())
            seen_ids.add(block.name)
            transitions.append(_parse_transition(block, memo))
        elif block.kind == "property":
            if block.name in seen_ids:
                raise ParseError(f"duplicate id {block.name!r}", *block.at())
            seen_ids.add(block.name)
            properties.append(_parse_property(block, memo))
        elif block.kind == "constants":
            constants = _parse_constants(block)
        elif block.kind == "aps":
            _check_keys(block.pairs, "aps")
            aps = tuple((k, v) for k, v, *_ in block.pairs)
        else:
            raise ParseError(f"unexpected block {block.kind!r} in model file",
                             *block.at())
    return ir.ProtocolModel(fields["protocol"], fields["snapshot"], constants,
                            tuple(state_vars), tuple(transitions),
                            tuple(properties), aps)


def load_model(path) -> ir.ProtocolModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), origin=str(path))


# ---------------------------------------------------------------------------
# Clause files

def parse_clauses(text: str):
    top, blocks = _read_blocks(text)
    _check_keys(top, "top-level", ())
    clauses = []
    seen = set()
    for block in blocks:
        if block.kind != "clause":
            raise ParseError(f"unexpected block {block.kind!r} in clause file",
                             *block.at())
        _check_keys(block.pairs, "clause", _CLAUSE_KEYS)
        fields = {}
        source = ir.SourceRef("")
        for k, v, line, col in block.pairs:
            if k == "source":
                source = _parse_source_value(v, line, col)
            else:
                fields[k] = v
        cid = fields.get("id", "")
        if not cid:
            raise ParseError("clause missing id", *block.at())
        if cid in seen:
            raise ParseError(f"duplicate clause id {cid!r}", *block.at())
        seen.add(cid)
        modality = fields.get("modality", "NOT_SPECIFIED")
        if modality not in ir.MODALITIES:
            raise ParseError(f"clause {cid}: bad modality {modality!r}",
                             *block.at("modality"))
        digits = fields.get("precedence", "1")
        try:
            precedence = int(digits)
        except ValueError:
            raise ParseError(f"clause {cid}: precedence {digits!r} is not an "
                             "integer", *block.at("precedence")) from None
        if not 1 <= precedence <= 5:
            raise ParseError(f"clause {cid}: precedence {precedence} out of "
                             "range [1,5]", *block.at("precedence"))
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"clause {cid}: precedence {digits!r} is not "
                             "ASCII digits", *block.at("precedence"))
        if modality != "NOT_SPECIFIED" and not source.quote:
            raise ParseError(f"clause {cid}: modality {modality} requires a "
                             "verbatim quote", *block.at("modality"))
        clauses.append(ir.NormativeClause(
            cid, fields.get("protocol", ""), modality,
            fields.get("actor", ""), fields.get("behavior", ""), source,
            fields.get("ambiguous", "false") == "true", precedence))
    return clauses


# ---------------------------------------------------------------------------
# Serialization

def _quoted(text: str, record: str, field: str) -> str:
    """text between double quotes; the format has no escape, so a `"` in
    text is a ValueError naming its record and field."""
    if '"' in text:
        raise ValueError(f"{record}: {field} {text!r} holds a '\"', which "
                         "the format cannot quote")
    return f'"{text}"'


def _fmt_source(ref: ir.SourceRef, record: str) -> str:
    if ref.invented:
        return ir.INVENTED_MARKER
    return (f"{{ doc: {ref.document}  "
            f"section: {_quoted(ref.section, record, 'source section')}  "
            f"quote: {_quoted(ref.quote, record, 'source quote')} }}")


def _fmt_init(init: ir.InitSpec) -> str:
    if isinstance(init, ir.InitExpr):
        return E.print_expr(init.expr)
    if isinstance(init, ir.InitAll):
        return "all " + E.print_expr(init.expr)
    return "[" + ", ".join(f"{k}: {E.print_expr(v)}"
                           for k, v in init.entries) + "]"


def serialize_model(model: ir.ProtocolModel) -> str:
    out = [f"protocol: {model.name}", f"snapshot: {model.snapshot}"]
    if model.constants:
        inner = "  ".join(f"{d}: [{', '.join(a)}]"
                          for d, a in model.constants)
        out.append(f"constants {{ {inner} }}")
    if model.aps:
        inner = "  ".join(f"{k}: {v}" for k, v in model.aps)
        out.append(f"aps {{ {inner} }}")
    for v in model.state_vars:
        out.append(f"var {v.name} : {v.sort} init {_fmt_init(v.init)}")
    for t in model.transitions:
        out.append(f"transition {t.id} {{")
        head = f"  kind: {t.kind}  actor: {t.actor}"
        if t.params:
            head += "  params: " + ", ".join(f"{n} in {d}" for n, d in t.params)
        out.append(head)
        out.append(f"  guard: {E.print_expr(t.guard)}")
        for target, rhs in t.updates:
            out.append(f"  update: {target} := {E.print_expr(rhs)}")
        out.append(f"  modality: {t.modality}")
        if t.adv:
            out.append(f"  adv: {t.adv}")
        for ref in t.source_refs:
            out.append(f"  source: {_fmt_source(ref, f'transition {t.id}')}")
        out.append("}")
    for p in model.properties:
        out.append(f"property {p.id} {{")
        out.append(f"  principle: {p.principle}  class: {p.cls}")
        out.append(f"  invariant: {E.print_expr(p.invariant)}")
        for ref in p.source_refs:
            out.append(f"  source: {_fmt_source(ref, f'property {p.id}')}")
        out.append("}")
    return "\n".join(out) + "\n"


def serialize_clauses(clauses) -> str:
    out = []
    for c in clauses:
        out.append("clause {")
        out.append(f"  id: {c.id}  protocol: {c.protocol}  "
                   f"modality: {c.modality}  actor: {c.actor}")
        record = f"clause {c.id}"
        out.append(f"  behavior: {_quoted(c.behavior, record, 'behavior')}")
        out.append(f"  ambiguous: {'true' if c.ambiguous else 'false'}  "
                   f"precedence: {c.precedence}")
        out.append(f"  source: {_fmt_source(c.source, record)}")
        out.append("}")
    return "\n".join(out) + "\n"
