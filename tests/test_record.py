"""Value records: every record class against its field tuple, and a start-up
that leaves the code-generating modules unloaded."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import agentconform
from agentconform import (builtins, catalog, checker, compose, ir, report,
                          tla)
from agentconform import expr as E
from agentconform.record import Record, replace
from agentconform.replay import adapter_table, generate_tests, run

SRC = Path(agentconform.__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        yield cls
        yield from _record_classes(cls)


CLASSES = sorted(_record_classes(), key=lambda c: c.__qualname__)


def _collect(value, found):
    """First instance of each record class found under value."""
    if isinstance(value, Record):
        found.setdefault(type(value), value)
        children = value._values()
    elif isinstance(value, (tuple, list)):
        children = value
    elif isinstance(value, dict):
        children = list(value.values())
    else:
        return
    for child in children:
        _collect(child, found)


@pytest.fixture(scope="module")
def samples(bundled_run):
    model = builtins.builtin("mcp")
    prop = model.property_by_id("P8_CredRevocation")
    result = checker.check(model, prop)
    tests, _ = generate_tests([result.counterexample])
    log = (FIXTURES / "mcp_P8_CredRevocation.log").read_text()
    roots = [
        [builtins.builtin(n) for n in builtins.BUILTIN_NAMES],
        builtins.builtin_clauses("mcp"), builtins.aps_table(),
        ir.validate(replace(model, transitions=(
            replace(model.transitions[0], source_refs=()),))),
        ir.coverage(model, builtins.builtin_clauses("mcp")),
        ir.footprints(model),
        checker.DEFAULT_BOUNDS, bundled_run[0],
        checker.instance(model, checker.DEFAULT_BOUNDS),
        report.CellInput("mcp", "P8", result, prop),
        tla.emit_artifact(model), tla.parse_tlc_output(log),
        compose.builtin_compositions(), catalog.TEMPLATES,
        adapter_table("mcp"), tests, run(tests[0], "vulnerable"),
        E.parse("not (p or q)"),
    ]
    found = {}
    _collect(roots, found)
    return found


def test_every_record_class_has_a_sample(samples):
    assert len(CLASSES) >= 49
    assert sorted(c.__qualname__ for c in samples) == \
        [c.__qualname__ for c in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_behaves_as_its_field_tuple(cls, samples):
    obj = samples[cls]
    fields = cls._fields
    values = tuple(getattr(obj, f) for f in fields)
    assert obj._values() == values
    assert cls(*values) == obj and cls(*values) is not obj
    # the fields are the constructor's parameters, in order, by position
    # or by keyword
    assert cls(**dict(zip(fields, values))) == obj
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == obj
    with pytest.raises(TypeError, match=cls.__qualname__):
        cls(*values, None)
    with pytest.raises(TypeError, match=cls.__qualname__):
        cls(*values, no_such_field=1)
    if fields:
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*values, **{fields[0]: values[0]})
    if fields and fields[0] not in cls._defaults:
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(**dict(zip(fields[1:], values[1:])))
    assert obj.__eq__(object()) is NotImplemented
    try:
        want = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want
    assert repr(obj) == cls.__qualname__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    marker = object()
    for i, f in enumerate(fields):
        changed = replace(obj, **{f: marker})
        assert type(changed) is cls
        assert changed._values() == values[:i] + (marker,) + values[i + 1:]
        assert changed != obj
        with pytest.raises(AttributeError):
            setattr(obj, f, marker)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert replace(obj) == obj
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, "__dict__", None) is None

    for again in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(again) is cls and again == obj


# The trailing fields that a record may be built without, and their values.
DEFAULTS = {
    "AdapterReport": {"errors": ()},
    "Annotations": {"manual_model_fail": False, "ambiguous_clauses": ()},
    "Bounds": {"domain_caps": (), "counter_max": 3, "max_depth": 20,
               "max_states": 10**6},
    "CellInput": {"replay_outcome": "NOT_RUN",
                  "annotations": report.Annotations()},
    "CheckResult": {"counterexample": None},
    "MatrixCell": {"counterexample": None},
    "NormativeClause": {"ambiguous": False, "precedence": 1},
    "Property": {"source_refs": ()},
    "ProtocolModel": {"aps": ()},
    "Route": {"tainted_when": "", "forwards_credential": False,
              "extra_updates": ""},
    "SourceRef": {"section": "", "quote": ""},
    "Transition": {"modality": "NOT_SPECIFIED", "source_refs": (),
                   "adv": None},
    "UpdateTarget": {"keys": ()},
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_defaults_fill_the_trailing_fields(cls, samples):
    defaults = DEFAULTS.get(cls.__qualname__, {})
    assert cls._defaults == defaults
    fields = cls._fields
    required = fields[:len(fields) - len(defaults)]
    assert tuple(defaults) == fields[len(required):]
    obj = samples[cls]
    built = cls(*[getattr(obj, f) for f in required])
    assert built._values() == tuple(getattr(obj, f) for f in required) \
        + tuple(defaults.values())


def test_records_of_another_class_differ():
    a, b = E.parse("forall x in D: p"), E.parse("exists x in D: p")
    assert a._values() == b._values()
    assert a != b and hash(a) == hash(b)


def test_fmap_compares_hashes_before_items():
    a, b = E.FMap.of({"k": 1, "j": 2}), E.FMap.of({"j": 2, "k": 1})
    assert a == b and hash(a) == hash(b) == hash((a.items,))
    assert a.set("k", 3) != a
    assert E.FMap((("k", 1),)) != ("k", 1)
    # the hash is not pickled: string hashes differ between processes
    assert a.__reduce__() == (E.FMap, (a.items,))


def _loaded_by(code):
    """The modules that code loads in an interpreter with no site packages
    and the source tree on its path, beyond `importlib.resources`, which
    the bundled data is read with (from Python 3.12 it imports `inspect`
    itself)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         "import importlib.resources\nbefore = set(sys.modules)\n"
         + code + "\nprint(*sorted(set(sys.modules) - before))"],
        capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def test_start_up_generates_no_code():
    """Importing the package and loading the five builtins loads neither
    `dataclasses` nor the `inspect` it imports."""
    loaded = _loaded_by(
        "import agentconform\n"
        "for n in agentconform.BUILTIN_NAMES:\n"
        "    agentconform.builtin(n); agentconform.builtin_clauses(n)")
    assert "agentconform.irfmt" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_cli_import_leaves_replay_unloaded():
    """Only the replay subcommand needs the HTTP and TLS stack."""
    loaded = _loaded_by("import agentconform.cli")
    assert "agentconform.cli" in loaded
    assert {"agentconform.replay", "http.client", "ssl", "dataclasses",
            "inspect"}.isdisjoint(loaded)
