"""Model and clause file format: parsing, serialization, round trips."""

import random
from importlib import resources

import pytest

from agentconform import expr as E
from agentconform import ir, irfmt
from agentconform.builtins import BUILTIN_NAMES, builtin, builtin_clauses


def test_bundled_models_round_trip():
    for name in BUILTIN_NAMES:
        model = builtin(name)
        again = irfmt.parse_model(irfmt.serialize_model(model),
                                  origin=name)
        assert again == model


def test_bundled_clauses_round_trip():
    for name in BUILTIN_NAMES:
        clauses = builtin_clauses(name)
        again = irfmt.parse_clauses(irfmt.serialize_clauses(clauses))
        assert tuple(again) == tuple(clauses)


def test_parse_sort():
    assert irfmt.parse_sort("BOOL") == ir.BoolSort()
    assert irfmt.parse_sort("COUNTER(3)") == ir.CounterSort(3)
    assert irfmt.parse_sort("ENUM[A, B]") == ir.EnumSort(("A", "B"))
    assert irfmt.parse_sort("SET(Caps)") == ir.SetSort("Caps")
    nested = irfmt.parse_sort("MAP(AgentID -> MAP(AgentID -> SET(Caps)))")
    assert isinstance(nested, ir.MapSort)
    assert isinstance(nested.value, ir.MapSort)


def test_parse_errors_carry_line_numbers():
    bad = "protocol: x\nsnapshot: 2025-01\n\nvar v : NOSUCHSORT init 0\n"
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_model(bad)
    assert exc.value.line == 4


@pytest.mark.parametrize("marker, bad, at", [
    ("  guard:", "  guard: x = = 1", "= 1"),
    ("  update:", "  update: x := x + + 1", "+ 1"),
    ("  invariant:", "  invariant: x = = 1", "= 1"),
    ("var ", "var y : BOOL init true and", ""),
    ("  update:", "  update: y := true;  x := x + + 1", "+ 1"),
    ("  invariant:", "  invariant:  x = = 1", "= 1"),
    ("var ", "var m : MAP(D -> BOOL) init all  true and", ""),
    ("var ", "var m : MAP(D -> BOOL) init [a: true,  b: 1 +]", "]"),
], ids=["guard", "update", "invariant", "init", "second-update",
        "spaced-invariant", "init-all", "init-map"])
def test_expression_errors_name_the_file_line(marker, bad, at):
    """The error names the file line, and the column in that line, not in
    the expression: that of the last `at` (its end when `at` is empty)."""
    lines = irfmt.serialize_model(builtin("mcp")).splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(marker))
    lines[row] = bad
    with pytest.raises(E.ExprSyntaxError) as exc:
        irfmt.parse_model("\n".join(lines) + "\n")
    col = bad.rindex(at) + 1 if at else len(bad) + 1
    assert (exc.value.line, exc.value.col) == (row + 1, col), str(exc.value)


def test_missing_header_rejected():
    with pytest.raises(irfmt.ParseError):
        irfmt.parse_model("snapshot: 2025-01\n")


def test_duplicate_transition_id_rejected():
    text = builtin("mcp")
    text = irfmt.serialize_model(text)
    block = text[text.index("transition OpenSession"):]
    block = block[:block.index("\n}\n") + 3]
    with pytest.raises(irfmt.ParseError):
        irfmt.parse_model(text + "\n" + block)


def test_clause_fields():
    clauses = builtin_clauses("mcp")
    c = clauses[0]
    assert c.protocol == "mcp"
    assert c.modality in ir.MODALITIES
    assert c.source.document and c.source.section
    assert isinstance(c.ambiguous, bool)


def test_non_integer_precedence_names_the_clause_line():
    text = ("# store\n\nclause {\n  id: c1  protocol: p  modality: MAY\n"
            "  precedence: high\n  source: { doc: d  quote: \"q\" }\n}\n")
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_clauses(text)
    assert exc.value.line == 3
    assert "'high'" in str(exc.value)


def test_non_ascii_digit_in_init_names_its_line():
    text = "protocol: p\nsnapshot: s\nvar v : COUNTER(2) init \u00b2\n"
    with pytest.raises(E.ExprSyntaxError) as exc:
        irfmt.parse_model(text)
    assert (exc.value.line, exc.value.col) == (3, 25)


def test_misspelled_top_level_keys_are_rejected():
    """A key other than `protocol` and `snapshot` outside a block is a
    ParseError naming it and its line, not a silently dropped pair."""
    text = (resources.files("agentconform.data") / "models" /
            "acp-client.ir").read_text(encoding="utf-8")
    assert "\nconstants {" in text
    for bad, key in ((text.replace("\nconstants {", "\nconstants: {", 1),
                      "constants"),
                     (text + "snapshoot: x\n", "snapshoot")):
        with pytest.raises(irfmt.ParseError) as exc:
            irfmt.parse_model(bad)
        row = next(i for i, line in enumerate(bad.splitlines(), 1)
                   if line.startswith(key + ":"))
        assert exc.value.line == row
        assert f"unknown top-level key {key!r}" in str(exc.value)


@pytest.mark.parametrize("line, col", [
    ("constants { D: [a] } E: [b]", 22),
    ("constants { D: [a] }  transition T {", 23),
    ("constants { D: [a] } {", 22),
], ids=["pair", "block", "brace"])
def test_text_after_a_closing_brace_is_rejected(line, col):
    """A block ends at the brace that closes it; anything after that brace
    on its line is a ParseError naming the line and the column where the
    text starts, not silently dropped or read as part of the block."""
    text = f"protocol: p\nsnapshot: s\n{line}\n}}\n"
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_model(text)
    assert (exc.value.line, exc.value.col) == (3, col), str(exc.value)
    assert "text after the '}' that closes block 'constants'" \
        in str(exc.value)


def test_clause_file_rejects_top_level_keys():
    """A clause file holds clause blocks only: a pair outside them is a
    ParseError naming its key and line."""
    clause = ("clause {\n  id: c1  protocol: p  modality: MAY\n"
              "  source: { doc: d  quote: \"q\" }\n}\n")
    for text, key, row in (("foo: bar\n" + clause, "foo", 1),
                           (clause + "\n# end\nid: c2\n", "id", 7)):
        with pytest.raises(irfmt.ParseError) as exc:
            irfmt.parse_clauses(text)
        assert exc.value.line == row
        assert f"unknown top-level key {key!r}" in str(exc.value)
    assert [c.id for c in irfmt.parse_clauses(clause)] == ["c1"]


def test_stray_closing_brace_is_rejected_on_its_line():
    text = ("protocol: p\nsnapshot: s\nconstants { D: [t1, t2} E: [x] }\n"
            "var v : BOOL init true\ntransition T {\n  kind: Protocol\n}\n")
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_model(text)
    assert exc.value.line == 3
    assert "unmatched '}'" in str(exc.value)


def test_pairs_split_outside_brackets_and_quotes():
    pairs = irfmt._scan_pairs(
        'a: [x,  b: y]  c: "d  e: f"  source: { h: "x"  i: j } k: "l"m: n',
        7)
    assert pairs == [("a", "[x,  b: y]", 7, 4), ("c", "d  e: f", 7, 20),
                     ("source", '{ h: "x"  i: j }', 7, 38), ("k", "l", 7, 59),
                     ("m", "n", 7, 64)]
    assert irfmt._split_top("x := {a; b}; y := (1; 2)", ";", 7) == [
        ("x := {a; b}", 1), ("y := (1; 2)", 14)]
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt._scan_pairs('a: "open  b: c', 7)
    assert (exc.value.line, exc.value.col) == (7, 4)


_EDIT_CHARS = ('"', "{", "}", "[", "]", "(", ")", ",", ";", ":", "#", "\n",
               "\u00b2", " ", "  ", "   ")


def test_mutated_bundled_files_fail_only_with_positioned_errors():
    """Seeded one-character edits of the bundled .ir and .clauses files
    either parse or raise ParseError/ExprSyntaxError naming a line; no
    other exception escapes the loader."""
    data = resources.files("agentconform.data")
    chars = set("".join(_EDIT_CHARS))
    docs = []
    for sub, parse in (("models", irfmt.parse_model),
                       ("clauses", irfmt.parse_clauses)):
        for f in sorted((data / sub).iterdir(), key=lambda f: f.name):
            text = f.read_text(encoding="utf-8")
            special = [i for i, c in enumerate(text) if c in chars]
            docs.append((text, special, parse))
    rng = random.Random(14)
    for _ in range(400):
        text, special, parse = rng.choice(docs)
        op, ch = rng.randrange(3), rng.choice(_EDIT_CHARS)
        if op == 0:  # insert anywhere
            i = rng.randrange(len(text) + 1)
            text = text[:i] + ch + text[i:]
        else:  # delete or replace one special character
            i = rng.choice(special)
            text = text[:i] + (ch if op == 2 else "") + text[i + 1:]
        try:
            parse(text)
        except (irfmt.ParseError, E.ExprSyntaxError) as exc:
            assert exc.line >= 1


def _parse_error(parse, text: str) -> irfmt.ParseError:
    with pytest.raises(irfmt.ParseError) as exc:
        parse(text)
    return exc.value


def test_source_group_rejects_unknown_keys():
    """A misspelled key inside `source: { }` is a ParseError naming it at
    the line and column of its value, in a model and in a clause file."""
    good = 'source: { doc: RFC  section: "1"  quote: "q" }'
    bad = good.replace("doc:", "dco:")
    model = ("protocol: p\nsnapshot: s\nvar v : BOOL init true\n"
             "transition T {\n  kind: Protocol  actor: a\n"
             f"  guard: v\n  {good}\n}}\n")
    assert irfmt.parse_model(model).transitions[0].source_refs == (
        ir.SourceRef("RFC", "1", "q"),)
    clause = ("clause {\n  id: c1  protocol: p  modality: MAY\n"
              f"  {good}\n}}\n")
    for parse, text, row in ((irfmt.parse_model, model, 7),
                             (irfmt.parse_clauses, clause, 3)):
        err = _parse_error(parse, text.replace(good, bad))
        assert "unknown source key 'dco'" in str(err)
        assert (err.line, err.col) == (row, 3 + bad.index("RFC"))


@pytest.mark.parametrize("pair", ["modalty: MUST", "colour: red"])
def test_clause_rejects_unknown_keys(pair):
    """A key a clause does not have is a ParseError naming the key and its
    line, not a pair that is silently dropped."""
    text = ("# store\nclause {\n  id: c1  protocol: p  actor: a\n"
            f"  {pair}\n  source: {{ doc: d  quote: \"q\" }}\n}}\n")
    err = _parse_error(irfmt.parse_clauses, text)
    key = pair.split(":")[0]
    assert f"unknown clause key {key!r}" in str(err)
    assert err.line == 4


def test_repeated_single_valued_keys_are_rejected():
    """A second pair with a single-valued key is a ParseError naming the
    key and the line of the second pair; it does not replace the first."""
    model = (resources.files("agentconform.data") / "models" /
             "acp-client.ir").read_text(encoding="utf-8")
    start = model.index("transition NewSession {")
    head, block = model[:start], model[start:]
    # (old, new, text on the line of the second pair, block kind, key)
    edits = (
        ("  guard: session_state[s] = NONE\n",
         "  guard: session_state[s] = NONE\n  guard: false\n",
         "guard: false", "transition", "guard"),
        ("kind: Protocol  actor: editor",
         "kind: Protocol  kind: Adversary  actor: editor",
         "kind: Adversary", "transition", "kind"),
        ('section: "Session setup"  quote:',
         'section: "Session setup"  doc: x  quote:',
         "doc: x", "source", "doc"),
        ("  principle: P8  class: spec-mandated\n",
         "  principle: P8  class: spec-mandated  class: x\n",
         "class: x", "property", "class"),
    )
    for old, new, marker, what, key in edits:
        if what == "property":
            assert model.count(old) == 1
            bad = model.replace(old, new)
        else:
            bad = head + block.replace(old, new, 1)
        row = next(i for i, line in enumerate(bad.splitlines(), 1)
                   if marker in line)
        err = _parse_error(irfmt.parse_model, bad)
        assert f"duplicate {what} key {key!r}" in str(err)
        assert err.line == row, str(err)
    constants = next(line for line in model.splitlines()
                     if line.startswith("constants {"))
    err = _parse_error(irfmt.parse_model, model.replace(
        constants, constants[:-1] + " Sessions: [x] }"))
    assert "duplicate constants key 'Sessions'" in str(err)

    clause = ("clause {\n  id: C1  protocol: p  modality: MAY\n"
              "  source: { doc: d  quote: \"q\" }\n}\n")
    for old, new, key, row in (
            ("id: C1", "id: C1  id: C2", "id", 2),
            ("}\n}", "}\n  source: { doc: e  quote: \"r\" }\n}", "source",
             4)):
        err = _parse_error(irfmt.parse_clauses, clause.replace(old, new))
        assert f"duplicate clause key {key!r}" in str(err)
        assert err.line == row


def test_update_and_source_may_repeat():
    """`update` and `source` pairs of a transition add up, and `source`
    pairs of a property too."""
    text = ("protocol: p\nsnapshot: s\nvar u : BOOL init true\n"
            "var w : BOOL init true\n"
            "transition T {\n  kind: Protocol  actor: a\n"
            "  update: u := false\n  update: w := false\n"
            "  source: { doc: d1 }\n  source: { doc: d2 }\n}\n"
            "property P {\n  principle: P1  class: spec-mandated\n"
            "  invariant: u\n  source: { doc: d3 }\n  source: { doc: d4 }\n}\n")
    model = irfmt.parse_model(text)
    t, p = model.transitions[0], model.properties[0]
    assert [target.var for target, _ in t.updates] == ["u", "w"]
    assert [r.document for r in t.source_refs] == ["d1", "d2"]
    assert [r.document for r in p.source_refs] == ["d3", "d4"]
