"""Model and clause file format: parsing, serialization, round trips."""

import random
import re
from importlib import resources

import pytest

from agentconform import expr as E
from agentconform import ir, irfmt
from agentconform.builtins import BUILTIN_NAMES, builtin, builtin_clauses
from agentconform.record import replace


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
    """The line of the clause that holds the value, and its column."""
    text = ("# store\n\nclause {\n  id: c1  protocol: p  modality: MAY\n"
            "  precedence: high\n  source: { doc: d  quote: \"q\" }\n}\n")
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_clauses(text)
    assert (exc.value.line, exc.value.col) == (5, 15)
    assert "'high'" in str(exc.value)


def test_non_ascii_digit_in_init_names_its_line():
    text = "protocol: p\nsnapshot: s\nvar v : COUNTER(2) init \u00b2\n"
    with pytest.raises(E.ExprSyntaxError) as exc:
        irfmt.parse_model(text)
    assert (exc.value.line, exc.value.col) == (3, 25)


def test_deep_nesting_in_init_names_its_line():
    """An init nested 500 parentheses deep is a syntax error at a
    parenthesis of line 3, not a RecursionError."""
    text = ("protocol: p\nsnapshot: s\nvar v : BOOL init "
            + "(" * 500 + "true" + ")" * 500 + "\n")
    with pytest.raises(E.ExprSyntaxError,
                       match="expression nested too deeply") as exc:
        irfmt.parse_model(text)
    assert exc.value.line == 3 and 19 <= exc.value.col < 519


@pytest.mark.parametrize("init, col", [("not " * 500 + "true", 19),
                                       ("1 + " * 500 + "0", 25)])
def test_tall_init_is_a_syntax_error_at_its_start(init, col):
    """An init 500 levels tall that the parser reads without recursing
    deeply (`not` chains, `+` chains) is a syntax error at the start of
    the init, not a RecursionError in the sort check after parsing; one
    100 levels tall still checks."""
    sort = "BOOL" if init.startswith("not") else "COUNTER(3)"
    text = f"protocol: p\nsnapshot: s\nvar v : {sort} init {init}\n"
    with pytest.raises(E.ExprSyntaxError,
                       match=r"^expression nested too deeply") as exc:
        irfmt.parse_model(text)
    assert (exc.value.line, exc.value.col) == (3, col)
    short = init.replace("not " * 500, "not " * 99).replace("1 + " * 500,
                                                            "0 + " * 99)
    model = irfmt.parse_model(text.replace(init, short))
    assert ir.validate(model).ok


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


def test_braces_in_quotes_and_comments_are_text():
    """A brace inside a quoted value or on a comment line closes and opens
    nothing: a source quote `close } early`, a clause behavior with both
    braces and a comment line holding `{` inside a transition all parse,
    and the model and clause round-trip through the serializer."""
    model_text = (
        "protocol: p\nsnapshot: s\nvar v : BOOL init true\n"
        "transition T {\n  kind: Protocol  actor: a\n  guard: v\n"
        "  # a brace in a comment: {\n  update: v := false\n"
        '  source: { doc: RFC  section: "1"  quote: "close } early" }\n}\n')
    model = irfmt.parse_model(model_text)
    ref, = model.transitions[0].source_refs
    assert (ref.document, ref.section, ref.quote) == ("RFC", "1",
                                                      "close } early")
    assert irfmt.parse_model(irfmt.serialize_model(model)) == model
    clause_text = (
        "clause {\n  # } a comment line\n  id: c1  protocol: p  "
        'modality: MAY  behavior: "close } early {"\n'
        '  source: { doc: d  quote: "{q}" }\n}\n')
    clause, = irfmt.parse_clauses(clause_text)
    assert (clause.behavior, clause.source.quote) == ("close } early {",
                                                      "{q}")
    assert irfmt.parse_clauses(irfmt.serialize_clauses([clause])) == [clause]


@pytest.mark.parametrize("field", ["behavior", "source section",
                                   "source quote"])
def test_serializers_refuse_a_value_holding_a_quote(field):
    """The format has no escape for `"`, so a quoted value holding one
    would serialize to text the reader rejects. Both serializers refuse
    it, naming the record and the field; the same value without the
    quote round-trips."""
    def records(text):
        source = ir.SourceRef(
            "RFC", text if field == "source section" else "1",
            text if field == "source quote" else "q")
        clause = ir.NormativeClause(
            "c1", "p", "MAY", "a", text if field == "behavior" else "b",
            source)
        model = irfmt.parse_model(
            "protocol: p\nsnapshot: s\nvar v : BOOL init true\n"
            "transition T {\n  kind: Protocol  actor: a\n  guard: v\n"
            '  source: { doc: RFC  section: "1"  quote: "q" }\n}\n')
        t = replace(model.transitions[0], source_refs=(source,))
        return clause, replace(model, transitions=(t,))

    clause, model = records("say hi now")
    assert irfmt.parse_clauses(irfmt.serialize_clauses([clause])) == [clause]
    assert irfmt.parse_model(irfmt.serialize_model(model)) == model
    clause, model = records('say "hi" now')
    with pytest.raises(ValueError, match=re.escape(
            f"clause c1: {field} 'say \"hi\" now' holds")):
        irfmt.serialize_clauses([clause])
    if field != "behavior":
        with pytest.raises(ValueError, match=re.escape(
                f"transition T: {field} 'say \"hi\" now' holds")):
            irfmt.serialize_model(model)


def test_stray_closing_brace_is_rejected_on_its_line():
    text = ("protocol: p\nsnapshot: s\nconstants { D: [t1, t2} E: [x] }\n"
            "var v : BOOL init true\ntransition T {\n  kind: Protocol\n}\n")
    with pytest.raises(irfmt.ParseError) as exc:
        irfmt.parse_model(text)
    assert exc.value.line == 3
    assert "unmatched '}'" in str(exc.value)


def test_pairs_split_outside_brackets_and_quotes():
    """Pairs split at two or more spaces before `key:`, but not inside
    brackets or quotes; a quoted value or a `source` group ends where it
    closes. Each value's column shows in the error for a key that repeats
    the first one."""
    line = ('a: [x,  b: y]  c: "d  e: f"  source: { h: "x"  i: j } '
            'k: "l"m: n')
    head = "protocol: p\nsnapshot: s\n\n\n\naps {\n"
    assert irfmt.parse_model(head + line + "\n}\n").aps == (
        ("a", "[x,  b: y]"), ("c", "d  e: f"),
        ("source", '{ h: "x"  i: j }'), ("k", "l"), ("m", "n"))
    for old, new, col in (("c: ", "a: ", 20), ("k: ", "a: ", 59),
                          ("m: ", "a: ", 64),
                          ("a: ", "source: ", 43)):
        bad = line.replace(old, new, 1)
        err = _parse_error(irfmt.parse_model, head + bad + "\n}\n")
        assert f"duplicate aps key {new[:-2]!r}" in str(err)
        assert (err.line, err.col) == (7, col), str(err)
    err = _parse_error(irfmt.parse_model,
                       "protocol: p\nsnapshot: s\n\n\n\n\n"
                       'a: "open  b: c\n')
    assert "unterminated string" in str(err)
    assert (err.line, err.col) == (7, 4)

    # updates split at `;` outside braces and parentheses: the `;` a
    # right-hand side keeps is a syntax error at its column in the line
    head = ("protocol: p\nsnapshot: s\nvar x : BOOL init true\n"
            "transition T {\n  kind: Protocol  actor: a\n")
    for update, at in (("x := {a; b}; y := (1; 2)", "; b"),
                       ("x := {a, b}; y := (1; 2)", "; 2")):
        row = f"  update: {update}"
        with pytest.raises(E.ExprSyntaxError) as exc:
            irfmt.parse_model(head + row + "\n}\n")
        assert "unexpected character ';'" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (6, row.index(at) + 1)


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


_MODEL_HEAD = ("protocol: p\nsnapshot: s\n"
               "constants { Sessions: [s1, s2]  Agents: [a1, a2] }\n")


def _rejected_at(parse, text: str, marker: str, message: str):
    """parse(text) is a ParseError naming `message` at the first `marker`:
    its line, and its column in that line."""
    err = _parse_error(parse, text)
    row, line = next((i, line) for i, line in
                     enumerate(text.splitlines(), 1) if marker in line)
    assert message in str(err)
    assert (err.line, err.col) == (row, line.index(marker) + 1), str(err)


def test_constants_atom_must_be_an_identifier():
    """`a1 x` would be emitted as `CONSTANTS s1, a1 x, a2` in TLA+."""
    text = _MODEL_HEAD.replace("[a1, a2]", "[a1 x, a2]")
    _rejected_at(irfmt.parse_model, text, "a1 x",
                 "constants 'Agents': 'a1 x' is not an identifier")


def test_constants_atoms_must_be_distinct():
    """`D: [a, a]` would be checked as a one-atom domain."""
    text = _MODEL_HEAD.replace("[a1, a2]", "[a1, a1]")
    _rejected_at(irfmt.parse_model, text, "a1]",
                 "constants 'Agents': duplicate name 'a1'")


def test_enum_values_must_be_distinct_identifiers():
    for sort, marker, message in (
            ("ENUM[A, B C]", "B C", "ENUM: 'B C' is not an identifier"),
            ("MAP(Agents -> ENUM[A, A])", "A]", "ENUM: duplicate name 'A'")):
        text = _MODEL_HEAD + f"var v : {sort} init A\n"
        _rejected_at(irfmt.parse_model, text, marker, message)


def test_transition_params_must_be_distinct():
    """Two `s` would be emitted as `\\E s \\in Sessions : \\E s \\in
    Sessions : NewSession(s, s)`."""
    text = (_MODEL_HEAD + "var v : BOOL init true\ntransition NewSession {\n"
            "  kind: Protocol  actor: a  params: s in Sessions, s in Agents\n"
            "}\n")
    _rejected_at(irfmt.parse_model, text, "s in Agents",
                 "params: duplicate name 's'")


_TRANSITION = ("transition T {\n  kind: Protocol  actor: a  params: s in "
               "Sessions\n  modality: MAY\n}\n")
_PROPERTY = ("property P {\n  principle: P1  class: spec-mandated\n"
             "  invariant: true\n}\n")


@pytest.mark.parametrize("old, new, marker, message", [
    ("s in Sessions", "s of Sessions", "s of", "bad parameter 's of"),
    ("var v : BOOL", "var v BOOL", "v BOOL", "bad var declaration"),
    ("var v : BOOL", "var v :  BOOLEAN", "BOOLEAN", "unknown sort 'BOOLEAN'"),
    ("var v : BOOL init true", "var v : ENUM[ ] init A", "ENUM",
     "empty ENUM"),
    ("[a1, a2]", " a1, a2", "a1, a2", "constants 'Agents': expected [a, b"),
    ("kind: Protocol", "kind: Protocols", "Protocols", "bad kind"),
    ("modality: MAY", "modality: MAYBE", "MAYBE", "bad modality"),
    ("principle: P1", "principle: P9", "P9", "bad principle"),
    ("class: spec-mandated", "class: speck", "speck", "bad class"),
    ("  invariant: true\n", "", "property P", "missing invariant"),
])
def test_parse_errors_name_the_offending_text(old, new, marker, message):
    """Each error names the line and column of the text it rejects: a
    block-level one that of the value, or of the block's header when the
    value is missing."""
    text = _MODEL_HEAD + "var v : BOOL init true\n" + _TRANSITION + _PROPERTY
    assert text.count(old) == 1
    _rejected_at(irfmt.parse_model, text.replace(old, new), marker, message)


@pytest.mark.parametrize("digits", ["٣", "３"])
def test_counter_bound_takes_ascii_digits_only(digits):
    """`COUNTER(٣)` was read as `COUNTER(3)`."""
    text = _MODEL_HEAD + f"var n : COUNTER({digits}) init 0\n"
    _rejected_at(irfmt.parse_model, text, digits,
                 f"COUNTER bound {digits!r} is not ASCII digits")
    assert irfmt.parse_sort("COUNTER( 3 )") == ir.CounterSort(3)
    with pytest.raises(irfmt.ParseError):
        irfmt.parse_sort(f"COUNTER({digits})")


@pytest.mark.parametrize("old, new, marker, message", [
    ("precedence: 2", "precedence: two", "two",
     "clause c1: precedence 'two' is not an integer"),
    ("precedence: 2", "precedence: 9", "9",
     "clause c1: precedence 9 out of range [1,5]"),
    ('  source: { doc: d  quote: "q" }\n', "", "MAY",
     "clause c1: modality MAY requires a verbatim quote"),
])
def test_clause_errors_name_the_offending_value(old, new, marker, message):
    """A clause's bad precedence, or a modality that needs a quote it
    lacks, is named at the value, not at the clause's header."""
    text = ("clause {\n  id: c1  protocol: p\n  modality: MAY\n"
            "  precedence: 2\n  source: { doc: d  quote: \"q\" }\n}\n")
    assert text.count(old) == 1
    _rejected_at(irfmt.parse_clauses, text.replace(old, new), marker,
                 message)


@pytest.mark.parametrize("digits", ["+3", "٣", "0_3"])
def test_clause_precedence_takes_ascii_digits_only(digits):
    """`int()` reads `+3`, `٣` and `0_3` as 3."""
    text = ("clause {\n  id: c1  protocol: p  modality: MAY\n"
            f"  precedence: {digits}\n"
            "  source: { doc: d  quote: \"q\" }\n}\n")
    _rejected_at(irfmt.parse_clauses, text, digits,
                 f"clause c1: precedence {digits!r} is not ASCII digits")
    assert irfmt.parse_clauses(text.replace(digits, "03"))[0].precedence == 3


def test_other_errors_come_before_name_rejections():
    """A document the reader rejected before these rules fails with the
    same error: a name or number the rules reject is reported only once
    the rest of the document has been read."""
    text = (_MODEL_HEAD.replace("[a1, a2]", "[a1, a1]")
            + "var v : COUNTER(٣) init 0\n"
            + "transition T {\n  kind: Protocol  actor: a\n"
            "  params: s in Sessions, s in Sessions\n  guard: v = = 1\n}\n")
    with pytest.raises(E.ExprSyntaxError):
        irfmt.parse_model(text)
    _rejected_at(irfmt.parse_model, text.replace("= = 1", "= 1"), "a1]",
                 "constants 'Agents': duplicate name 'a1'")
    clause = ("clause {\n  id: c1  protocol: p  modality: MAY\n"
              "  precedence: +3\n}\n")
    err = _parse_error(irfmt.parse_clauses, clause)
    assert "modality MAY requires a verbatim quote" in str(err)
