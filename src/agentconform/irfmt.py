"""Loader and serializer for the IR file format and clause files.

The format is UTF-8 structured text: the top-level pairs `protocol:` and
`snapshot:`, `var` declarations, and brace-delimited blocks (`constants
{ }`, `transition ID { }`, `property ID { }`, `aps { }`, `clause { }`). A
line may hold several `key: value` pairs.

One rule splits every list in the format: text splits at a separator
only where the separator sits outside brackets and double-quoted strings,
and inside a brace group that opens at top level only braces count, as in
the block reader. The separator is `,` between parameters and map-literal
entries, `;` between updates, and two or more spaces before `key:` between
pairs. A value in double quotes is the text between them; a `source` value
is one `{ ... }` group of the same pairs, or the invented-assumption
marker. Either ends its pair where it closes. A key that a transition,
property, clause or source group does not have is an error, and so is a
second pair with the same key in any block or group, except `update` and
`source` in a transition and `source` in a property.

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

_KEY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_\-]*): *")
_PAIR_SEP = f"  +(?={_KEY_RE.pattern})"
_QUOTED_RE = re.compile(r'"([^"]*)"')
_GROUP_RE = re.compile(r"(\{[^{}]*\})")
_BRACE_RE = re.compile(r"[{}]")
_BLOCK_RE = re.compile(r"\s*(constants|aps|transition|property|clause)"
                       r"(?:\s+([A-Za-z_][A-Za-z0-9_\-]*))?\s*\{(.*)")


def _split_top(text: str, sep: str, line: int, col: int = 1) -> list:
    """Split `text`, at column col, at each match of the regex `sep` that
    sits outside brackets and double-quoted strings into its stripped,
    non-empty (part, column)s. A brace group opened at top level is read
    as the block reader reads it: only its braces count."""
    cuts, start = [], 0
    depth = group = 0
    quote = None  # offset of the open quote
    # one literal per alternative lets the regex engine skip plain text
    for m in re.finditer(sep + r'|"|\{|\}|\[|\]|\(|\)', text):
        tok = m.group()
        if group:
            group += (tok == "{") - (tok == "}")
        elif quote is not None:
            if tok == '"':
                quote = None
        elif tok == '"':
            quote = m.start()
        elif tok == "{" and depth == 0:
            group = 1
        elif tok in "[({":
            depth += 1
        elif tok in "])}":
            depth -= 1
        elif depth == 0:
            cuts.append((start, m.start()))
            start = m.end()
    if quote is not None:
        raise ParseError("unterminated string", line, col + quote)
    cuts.append((start, len(text)))
    return [(p.rstrip(), col + b - len(p)) for a, b in cuts
            if (p := text[a:b].lstrip())]


def _scan_pairs(text: str, line: int, col: int = 1):
    """Split text at column col of a line into (key, value, line, value
    column) pairs. A quoted value or a `source` group ends where it
    closes, so the next `key:` may follow it after any number of spaces."""
    pairs = []
    for part, at in _split_top(text, _PAIR_SEP, line, col):
        while part:
            m = _KEY_RE.match(part)
            if not m:
                raise ParseError(f"expected 'key:' at {part[:20]!r}", line, at)
            key, value = m[1], part[m.end():]
            at += m.end()
            if value.startswith('"'):
                head = _QUOTED_RE.match(value)
            elif key == "source" and value.startswith("{"):
                head = _GROUP_RE.match(value)
                if not head:
                    raise ParseError(f"source is not one {{ }} group: "
                                     f"{value!r}", line, at)
            else:
                lead = len(value) - len(value.lstrip())
                pairs.append((key, value.strip(), line, at + lead))
                break
            pairs.append((key, head[1], line, at + head.start(1)))
            part = value[head.end():].lstrip(" ")
            at += len(value) - len(part)
    return pairs


class _Block:
    __slots__ = ("kind", "name", "pairs", "line")

    def __init__(self, kind: str, name: str, pairs: list, line: int):
        self.kind = kind  # var constants transition property aps clause
        self.name = name
        self.pairs = pairs  # (key, value, line, column of the value)
        self.line = line


def _read_blocks(text: str):
    """Split a document into a top-level pair list plus named blocks. A
    block's lines are all collected before any of them is scanned."""
    top, blocks = [], []
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        col = 1
        if depth == 0:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _BLOCK_RE.match(raw)
            if m:
                block, body = _Block(m[1], m[2] or "", [], lineno), []
                raw, depth, col = m[3], 1, m.start(3) + 1
            elif stripped.startswith("var "):
                decl = ("decl", stripped[4:], lineno, raw.index("var ") + 5)
                blocks.append(_Block("var", "", [decl], lineno))
                continue
            else:
                top.extend(_scan_pairs(raw, lineno))
                continue
        if "}" not in raw:
            depth += raw.count("{")
        else:
            for brace in _BRACE_RE.finditer(raw):
                depth += 1 if brace[0] == "{" else -1
                if depth == 0:
                    break
        if depth:
            body.append((raw, lineno, col))
            continue
        # the block closes at this brace; nothing may follow it
        rest = raw[brace.end():]
        if rest.count("}") > rest.count("{"):
            raise ParseError(f"unmatched '}}' in block {block.kind!r}", lineno)
        if rest.strip():
            raise ParseError(f"text after the '}}' that closes block "
                             f"{block.kind!r}", lineno,
                             col + len(raw) - len(rest.lstrip()))
        body.append((raw[:brace.start()], lineno, col))
        for part, ln, at in body:
            stripped = part.strip()
            if stripped and not stripped.startswith("#"):
                block.pairs.extend(_scan_pairs(part, ln, at))
        blocks.append(block)
    if depth:
        raise ParseError(f"unterminated block {block.kind!r}", block.line)
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


# ---------------------------------------------------------------------------
# Sorts and init specs

def parse_sort(text: str, line: int = 0) -> ir.Sort:
    text = text.strip()
    if text == "BOOL":
        return ir.BoolSort()
    m = re.fullmatch(r"COUNTER\(\s*(\d+)\s*\)", text)
    if m:
        return ir.CounterSort(int(m.group(1)))
    m = re.fullmatch(r"ENUM\[(.*)\]", text)
    if m:
        values = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
        if not values:
            raise ParseError("empty ENUM", line)
        return ir.EnumSort(values)
    m = re.fullmatch(r"SET\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)", text)
    if m:
        return ir.SetSort(m.group(1))
    m = re.fullmatch(r"MAP\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*->\s*(.*)\)", text)
    if m:
        return ir.MapSort(m.group(1), parse_sort(m.group(2), line))
    raise ParseError(f"unknown sort {text!r}", line)


def _expr(text: str, line: int, col: int = 1) -> E.Expr:
    """An expression, stripped, written at this line (0: unknown) and
    column of the document, so that a syntax error names both."""
    lead = len(text) - len(text.lstrip())
    return E.parse(text.strip(), max(line - 1, 0), col - 1 + lead)


def parse_init(text: str, line: int = 0, col: int = 1) -> ir.InitSpec:
    col += len(text) - len(text.lstrip())
    text = text.strip()
    if text.startswith("all "):
        return ir.InitAll(_expr(text[4:], line, col + 4))
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError("unterminated map-literal init", line, col)
        entries = []
        for part, at in _split_top(text[1:-1], ",", line, col + 1):
            if ":" not in part:
                raise ParseError(f"bad map-literal entry {part!r}", line, at)
            k, v = part.split(":", 1)
            entries.append((k.strip(), _expr(v, line, at + len(k) + 1)))
        return ir.InitMap(tuple(entries))
    return ir.InitExpr(_expr(text, line, col))


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


def _parse_params(value: str, line: int):
    params = []
    for part, _ in _split_top(value, ",", line):
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s+in\s+"
                         r"([A-Za-z_][A-Za-z0-9_]*)", part)
        if not m:
            raise ParseError(f"bad parameter {part!r}", line)
        params.append((m.group(1), m.group(2)))
    return tuple(params)


def parse_updates(value: str, line: int, col: int = 1):
    """`target := expr; ...` as ((UpdateTarget, Expr), ...); value sits
    at this line (0: unknown) and column, for error messages."""
    updates = []
    for part, at in _split_top(value, ";", line, col):
        if ":=" not in part:
            raise ParseError(f"update missing ':=' in {part!r}", line, at)
        lhs_text, rhs_text = part.split(":=", 1)
        lhs = _expr(lhs_text, line, at)
        keys = []
        while isinstance(lhs, E.Index):
            keys.insert(0, lhs.key)
            lhs = lhs.base
        if not isinstance(lhs, E.Name):
            raise ParseError(f"bad update target in {part!r}", line, at)
        updates.append((ir.UpdateTarget(lhs.name, tuple(keys)),
                        _expr(rhs_text, line, at + len(lhs_text) + 2)))
    return tuple(updates)


def _parse_transition(block: _Block) -> ir.Transition:
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
            params = _parse_params(value, line)
        elif key == "guard":
            guard = _expr(value, line, col)
        elif key == "update":
            updates.extend(parse_updates(value, line, col))
        elif key == "modality":
            modality = value
        elif key == "adv":
            adv = value
        else:  # source
            refs.append(_parse_source_value(value, line, col))
    if kind not in ir.KINDS:
        raise ParseError(f"transition {block.name!r}: bad kind {kind!r}",
                         block.line)
    if modality not in ir.MODALITIES:
        raise ParseError(f"transition {block.name!r}: bad modality "
                         f"{modality!r}", block.line)
    return ir.Transition(block.name, kind, actor, params, guard,
                         tuple(updates), modality, tuple(refs), adv)


def _parse_property(block: _Block) -> ir.Property:
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
            invariant = _expr(value, line, col)
        else:  # source
            refs.append(_parse_source_value(value, line, col))
    if principle not in ir.PRINCIPLES:
        raise ParseError(f"property {block.name!r}: bad principle "
                         f"{principle!r}", block.line)
    if cls not in ir.PROPERTY_CLASSES:
        raise ParseError(f"property {block.name!r}: bad class {cls!r}",
                         block.line)
    if invariant is None:
        raise ParseError(f"property {block.name!r}: missing invariant",
                         block.line)
    return ir.Property(block.name, principle, cls, invariant, tuple(refs))


def _parse_constants(block: _Block):
    constants = []
    _check_keys(block.pairs, "constants")
    for key, value, line, _ in block.pairs:
        value = value.strip()
        if not (value.startswith("[") and value.endswith("]")):
            raise ParseError(f"constants {key!r}: expected [a, b, ...]", line)
        atoms = tuple(a.strip() for a in value[1:-1].split(",") if a.strip())
        constants.append((key, atoms))
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
    for block in blocks:
        if block.kind == "constants":
            constants = _parse_constants(block)
        elif block.kind == "aps":
            _check_keys(block.pairs, "aps")
            aps = tuple((k, v) for k, v, *_ in block.pairs)
        elif block.kind == "var":
            _, decl, line, col = block.pairs[0]
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+?)\s+init\s+(.+)$",
                         decl)
            if not m:
                raise ParseError(f"bad var declaration {decl!r}", line)
            name = m.group(1)
            if name in seen_ids:
                raise ParseError(f"duplicate id {name!r}", line)
            seen_ids.add(name)
            state_vars.append(ir.StateVarDecl(
                name, parse_sort(m.group(2), line),
                parse_init(m.group(3), line, col + m.start(3))))
        elif block.kind == "transition":
            if block.name in seen_ids:
                raise ParseError(f"duplicate id {block.name!r}", block.line)
            seen_ids.add(block.name)
            transitions.append(_parse_transition(block))
        elif block.kind == "property":
            if block.name in seen_ids:
                raise ParseError(f"duplicate id {block.name!r}", block.line)
            seen_ids.add(block.name)
            properties.append(_parse_property(block))
        else:
            raise ParseError(f"unexpected block {block.kind!r} in model file",
                             block.line)

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
                             block.line)
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
            raise ParseError("clause missing id", block.line)
        if cid in seen:
            raise ParseError(f"duplicate clause id {cid!r}", block.line)
        seen.add(cid)
        modality = fields.get("modality", "NOT_SPECIFIED")
        if modality not in ir.MODALITIES:
            raise ParseError(f"clause {cid}: bad modality {modality!r}",
                             block.line)
        try:
            precedence = int(fields.get("precedence", "1"))
        except ValueError:
            raise ParseError(f"clause {cid}: precedence "
                             f"{fields['precedence']!r} is not an integer",
                             block.line) from None
        if not 1 <= precedence <= 5:
            raise ParseError(f"clause {cid}: precedence {precedence} out of "
                             "range [1,5]", block.line)
        if modality != "NOT_SPECIFIED" and not source.quote:
            raise ParseError(f"clause {cid}: modality {modality} requires a "
                             "verbatim quote", block.line)
        clauses.append(ir.NormativeClause(
            cid, fields.get("protocol", ""), modality,
            fields.get("actor", ""), fields.get("behavior", ""), source,
            fields.get("ambiguous", "false") == "true", precedence))
    return clauses


# ---------------------------------------------------------------------------
# Serialization

def _fmt_source(ref: ir.SourceRef) -> str:
    if ref.invented:
        return ir.INVENTED_MARKER
    return (f'{{ doc: {ref.document}  section: "{ref.section}"  '
            f'quote: "{ref.quote}" }}')


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
            out.append(f"  source: {_fmt_source(ref)}")
        out.append("}")
    for p in model.properties:
        out.append(f"property {p.id} {{")
        out.append(f"  principle: {p.principle}  class: {p.cls}")
        out.append(f"  invariant: {E.print_expr(p.invariant)}")
        for ref in p.source_refs:
            out.append(f"  source: {_fmt_source(ref)}")
        out.append("}")
    return "\n".join(out) + "\n"


def serialize_clauses(clauses) -> str:
    out = []
    for c in clauses:
        out.append("clause {")
        out.append(f"  id: {c.id}  protocol: {c.protocol}  "
                   f"modality: {c.modality}  actor: {c.actor}")
        out.append(f'  behavior: "{c.behavior}"')
        out.append(f"  ambiguous: {'true' if c.ambiguous else 'false'}  "
                   f"precedence: {c.precedence}")
        out.append(f"  source: {_fmt_source(c.source)}")
        out.append("}")
    return "\n".join(out) + "\n"
