"""Differential golden for the `.ir` and `.clauses` reader.

About 2,000 seeded mutants of the 10 bundled files and of the five
serialized compositions are parsed, and each outcome is compared byte for
byte with `tests/golden/frontend.json`: a digest of the parsed value's
`repr`, or the exception's class and message (which holds its line and
column). Each record also holds a digest of its input, so an edit of a
bundled file shows up as a changed input and not as a reader change.

The edits are one-character inserts, deletes and replacements, as in
`test_irfmt.py::test_mutated_bundled_files_fail_only_with_positioned_errors`,
plus doubling a space and joining a line to the next.

The golden was last written when three base texts changed, not the
reader: the serialized tool-delegation, chained-servers and
tool-capability compositions dropped the bridge binders their guards
never read. The 423 records made from those texts (the texts and their
420 mutants) changed input; no other record changed. Before that, three
clause errors moved from the clause header to the line and column of
the value they reject: 35 records (`precedence ... is not an integer`
18, `modality ... requires a verbatim quote` 17) changed only their
position. Before that, ten errors that named column 1 began to name the
text they reject: 120 records (`bad parameter`, `bad var declaration`,
`unknown sort`, `constants ...: expected [a, b, ...]`) changed only
their column, and 60 block-level ones (`bad kind`, `bad modality`, `bad
principle`, `bad class`) moved from the block header to the line and
column of the value. Neither of those times did an outcome change class
or message text. Regenerate the file only for a deliberate change of
what the reader accepts or where it says an error is, or of a base
text, and say which outcomes changed and why:

    PYTHONPATH=src python tests/test_frontend_golden.py
"""

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

from agentconform import compose, irfmt
from agentconform.builtins import builtin

GOLDEN = Path(__file__).parent / "golden" / "frontend.json"
MUTANTS = 2000

# one-character edits: brackets, separators, blanks and digits
_EDIT_CHARS = ('"', "{", "}", "[", "]", "(", ")", ",", ";", ":", "#", "\n",
               "²", "٣", "+", "=", "0", "x", " ", "  ", "   ")
_SPECIAL = set("".join(_EDIT_CHARS)) - set("x0")

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def base_texts():
    """(label, text, parse) for each file the mutants are made from."""
    data = resources.files("agentconform.data")
    out = []
    for sub, parse in (("models", irfmt.parse_model),
                       ("clauses", irfmt.parse_clauses)):
        for f in sorted((data / sub).iterdir(), key=lambda f: f.name):
            out.append((f"{sub}/{f.name}", f.read_text(encoding="utf-8"),
                        parse))
    for pattern, spec in compose.PATTERNS.items():
        a, b = spec["pair"]
        composed = compose.compose(builtin(a), builtin(b), spec["bridge"])
        out.append((f"compositions/{pattern}",
                    irfmt.serialize_model(composed), irfmt.parse_model))
    return out


def mutants():
    """(text, parse) for each base text, then MUTANTS seeded edits."""
    bases = base_texts()
    docs = [(text, [i for i, c in enumerate(text) if c in _SPECIAL],
             [i for i, c in enumerate(text) if c == " "],
             [i for i, c in enumerate(text[:-1]) if c == "\n"], parse)
            for _, text, parse in bases]
    out = [(text, parse) for _, text, parse in bases]
    rng = random.Random(21)
    for _ in range(MUTANTS):
        text, special, spaces, newlines, parse = rng.choice(docs)
        op, ch = rng.randrange(5), rng.choice(_EDIT_CHARS)
        if op == 0:  # insert anywhere
            i = rng.randrange(len(text) + 1)
            text = text[:i] + ch + text[i:]
        elif op in (1, 2):  # delete or replace one special character
            i = rng.choice(special)
            text = text[:i] + (ch if op == 2 else "") + text[i + 1:]
        elif op == 3:  # double a space
            i = rng.choice(spaces)
            text = text[:i] + " " + text[i:]
        else:  # join a line to the next, dropping its indentation
            i = rng.choice(newlines)
            rest = text[i + 1:]
            text = (text[:i] + rng.choice(("", " ", "  "))
                    + rest[len(rest) - len(rest.lstrip(" ")):])
        out.append((text, parse))
    return out


def outcome(text: str, parse) -> list:
    """[input digest, "ok", repr digest] or [input digest, exception class,
    message]."""
    try:
        value = parse(text)
    except Exception as exc:  # noqa: BLE001 -- the class is the record
        return [_digest(text), type(exc).__name__, str(exc)]
    return [_digest(text), "ok", _digest(repr(value))]


def test_reader_matches_the_golden_outcomes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = mutants()
    assert len(golden) == len(cases)
    for i, ((text, parse), want) in enumerate(zip(cases, golden)):
        got = outcome(text, parse)
        assert got[0] == want[0], f"case {i}: the input changed"
        assert got == want, (i, want, got)


if __name__ == "__main__":
    rows = [outcome(text, parse) for text, parse in mutants()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, ensure_ascii=False)
                                         for r in rows) + "\n]\n",
                      encoding="utf-8")
