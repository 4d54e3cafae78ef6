"""Model and clause file format: parsing, serialization, round trips."""

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


@pytest.mark.parametrize("marker, bad", [
    ("  guard:", "  guard: x = = 1"),
    ("  update:", "  update: x := x + + 1"),
    ("  invariant:", "  invariant: x = = 1"),
    ("var ", "var y : BOOL init true and"),
], ids=["guard", "update", "invariant", "init"])
def test_expression_errors_name_the_file_line(marker, bad):
    lines = irfmt.serialize_model(builtin("mcp")).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(marker))
    lines[at] = bad
    with pytest.raises(E.ExprSyntaxError) as exc:
        irfmt.parse_model("\n".join(lines) + "\n")
    assert exc.value.line == at + 1, str(exc.value)


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
