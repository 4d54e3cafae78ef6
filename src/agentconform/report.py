"""Triage classification, conformance matrix assembly and rendering.

Each (protocol, principle) cell combines a model-checking verdict with
an optional replay outcome and clause annotations, and triage assigns
exactly one root-cause verdict per cell. "Spec-level violation" counts
aggregate spec-fail, both-fail and ambiguity-fail: both-fail findings
originate at spec level, and ambiguity-fail cells mark places where the
cited clauses do not uniquely determine the behavior.
"""

from __future__ import annotations

import json

from . import catalog
from . import checker
from . import compose
from . import ir
from .builtins import APS_LAYERS, APS_PROTOCOLS, BUILTIN_NAMES, aps_table
from .builtins import builtin, builtin_clauses
from .record import Record

TRIAGE_VERDICTS = ("spec-fail", "impl-fail", "both-fail", "model-fail",
                   "ambiguity-fail", "truncated", "pass")
SPEC_LEVEL = ("spec-fail", "both-fail", "ambiguity-fail")
REPLAY_OUTCOMES = ("VIOLATED", "UPHELD", "NOT_RUN")

MATRIX_PRINCIPLES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
                     "WF", "SL", "CS")


class ReportError(Exception):
    pass


class AnnotationConflictError(ReportError):
    pass


class IncompleteMatrixError(ReportError):
    def __init__(self, missing):
        super().__init__(f"matrix is missing cells: {sorted(missing)}")
        self.missing = tuple(sorted(missing))


class Annotations(Record):
    __slots__ = ("manual_model_fail", "ambiguous_clauses")
    _defaults = {"manual_model_fail": False, "ambiguous_clauses": ()}


def triage(model_result: checker.CheckResult, replay_outcome: str,
           prop: ir.Property, annotations: Annotations = Annotations()
           ) -> str:
    """Classify one cell's root cause. Total over its input space. A
    search the bounds cut off decided nothing: its cell is `truncated`."""
    if replay_outcome not in REPLAY_OUTCOMES:
        raise ReportError(f"bad replay outcome {replay_outcome!r}")
    verdict = model_result.verdict
    if annotations.manual_model_fail:
        if (verdict == "PASS" and replay_outcome == "NOT_RUN"
                and prop.cls == "spec-mandated"):
            raise AnnotationConflictError(
                f"{prop.id}: manual model-fail flag contradicts a clean "
                "PASS on a spec-mandated property with no replay evidence")
        return "model-fail"
    if verdict.startswith("ERROR"):
        # the model could not be checked; that is a modeling defect
        return "model-fail"
    if verdict == "BOUND_EXHAUSTED":
        return "truncated"
    failed = verdict == "FAIL"
    if failed and annotations.ambiguous_clauses:
        return "ambiguity-fail"
    if failed and replay_outcome == "VIOLATED":
        return "both-fail"
    if failed:
        return "spec-fail"
    if replay_outcome == "VIOLATED":
        return "impl-fail"
    return "pass"


class MatrixCell(Record):
    __slots__ = ("protocol", "principle", "model_verdict", "replay_verdict",
                 "taxonomy_class", "triage", "depth", "aps_layer",
                 "counterexample")
    _defaults = {"counterexample": None}


class ConformanceMatrix(Record):
    # cells: 55 MatrixCell, row-major (protocol, principle)
    # totals: ((triage verdict, count), ...)
    # snapshots: ((protocol, snapshot date), ...)
    __slots__ = ("cells", "totals", "snapshots")

    def cell(self, protocol: str, principle: str) -> MatrixCell:
        for c in self.cells:
            if c.protocol == protocol and c.principle == principle:
                return c
        raise ReportError(f"no cell ({protocol}, {principle})")

    @property
    def spec_level_count(self) -> int:
        return sum(n for v, n in self.totals if v in SPEC_LEVEL)


class CellInput(Record):
    __slots__ = ("protocol", "principle", "model_result", "prop",
                 "replay_outcome", "annotations")
    _defaults = {"replay_outcome": "NOT_RUN", "annotations": Annotations()}


def build_matrix(inputs, snapshots) -> ConformanceMatrix:
    """Assemble the full grid; every cell must be present exactly once."""
    by_key = {}
    for ci in inputs:
        key = (ci.protocol, ci.principle)
        if key in by_key:
            raise ReportError(f"duplicate cell {key}")
        by_key[key] = ci
    wanted = {(p, pr) for p in BUILTIN_NAMES for pr in MATRIX_PRINCIPLES}
    missing = wanted - set(by_key)
    if missing:
        raise IncompleteMatrixError(missing)
    cells = []
    for proto in BUILTIN_NAMES:
        for pr in MATRIX_PRINCIPLES:
            ci = by_key[(proto, pr)]
            verdict = triage(ci.model_result, ci.replay_outcome, ci.prop,
                             ci.annotations)
            cx = ci.model_result.counterexample
            cells.append(MatrixCell(
                proto, pr, ci.model_result.verdict, ci.replay_outcome,
                ci.prop.cls, verdict, cx.depth if cx else None,
                catalog.aps_layer(pr), cx))
    counts = {v: sum(c.triage == v for c in cells) for v in TRIAGE_VERDICTS}
    return ConformanceMatrix(tuple(cells), tuple(sorted(counts.items())),
                             tuple(snapshots))


def _ambiguity_map(model: ir.ProtocolModel):
    """property id -> ambiguous clause ids, from the bundled clause store."""
    clauses = builtin_clauses(model.name)
    cov = ir.coverage(model, clauses)
    return dict(cov.ambiguity_contacts)


def _cell_property(model: ir.ProtocolModel, principle: str) -> ir.Property:
    # prefer the model's own property (it carries real provenance)
    for p in model.properties:
        if p.principle == principle:
            return p
    return catalog.instantiate_for(model, principle)


def bundled_inputs(bounds=checker.DEFAULT_BOUNDS):
    """Cell inputs for the full bundled run; every replay outcome is
    NOT_RUN."""
    inputs = []
    # per-protocol principles: one engine per model
    for name in BUILTIN_NAMES:
        model = builtin(name)
        amb = _ambiguity_map(model)
        props = [_cell_property(model, pr) for pr in MATRIX_PRINCIPLES[:-1]]
        results = checker.check_all(model, props, bounds)
        for pr, prop in zip(MATRIX_PRINCIPLES, props):
            ann = Annotations(
                ambiguous_clauses=tuple(amb.get(prop.id, ())))
            inputs.append(CellInput(name, pr, results[prop.id], prop,
                                    annotations=ann))
    # composition safety: worst verdict across the patterns a protocol
    # participates in
    worst = {name: None for name in BUILTIN_NAMES}
    for pattern, a, b, bridge in compose.builtin_compositions():
        cm = compose.compose(a, b, bridge)
        props = compose.cs_properties(cm, pattern)
        results = checker.check_all(cm, props, bounds)
        by_id = {p.id: p for p in props}
        for pid, res in results.items():
            for name in (a.name, b.name):
                cur = worst[name]
                better = cur is None or (
                    res.verdict == "FAIL"
                    and (cur[0].verdict != "FAIL"
                         or res.counterexample.depth
                         < cur[0].counterexample.depth))
                if better:
                    worst[name] = (res, by_id[pid])
    for name in BUILTIN_NAMES:
        res, prop = worst[name]
        inputs.append(CellInput(name, "CS", res, prop))
    return inputs


def bundled_matrix(bounds=checker.DEFAULT_BOUNDS) -> ConformanceMatrix:
    snapshots = tuple((n, builtin(n).snapshot) for n in BUILTIN_NAMES)
    return build_matrix(bundled_inputs(bounds), snapshots)


# ---------------------------------------------------------------------------
# Rendering

_GLYPH = {"pass": ".", "spec-fail": "S", "impl-fail": "I",
          "both-fail": "B", "model-fail": "M", "ambiguity-fail": "A",
          "truncated": "T"}
_CLASS_TAG = {"spec-mandated": "SM", "spec-recommended": "SR",
              "aasm-hardening": "AH", "aps-completeness": "AC"}


def render(matrix: ConformanceMatrix, fmt: str = "table") -> str:
    if fmt == "table":
        return _render_table(matrix)
    if fmt == "structured":
        return _render_structured(matrix)
    raise ReportError(f"unknown format {fmt!r}")


def _render_table(matrix: ConformanceMatrix) -> str:
    width = 12
    out = ["Conformance matrix (rows: protocols, columns: principles)", ""]
    header = "protocol".ljust(width) + "".join(
        pr.rjust(7) for pr in MATRIX_PRINCIPLES)
    out.append(header)
    for proto in BUILTIN_NAMES:
        row = proto.ljust(width)
        for pr in MATRIX_PRINCIPLES:
            c = matrix.cell(proto, pr)
            tag = _CLASS_TAG.get(c.taxonomy_class, "--")
            row += f"{_GLYPH[c.triage]}/{tag}".rjust(7)
        out.append(row)
    out.append("")
    out.append("glyphs: . pass  S spec-fail  I impl-fail  B both-fail  "
               "M model-fail  A ambiguity-fail  T truncated")
    out.append("classes: SM spec-mandated  SR spec-recommended  "
               "AH aasm-hardening  AC aps-completeness")
    out.append("")
    out.append("totals: " + "  ".join(
        f"{v}={n}" for v, n in matrix.totals))
    out.append(f"spec-level violations: {matrix.spec_level_count}")
    out.append("")
    out.append("Protocol stack completeness (rows: layers)")
    out.append("")
    grid = {(c.layer, c.protocol): c.status for c in aps_table()}
    out.append("layer".ljust(8) + "".join(
        p.rjust(18) for p in APS_PROTOCOLS))
    for layer in APS_LAYERS:
        out.append(layer.ljust(8) + "".join(
            grid[(layer, p)].rjust(18) for p in APS_PROTOCOLS))
    out.append("")
    out.append("snapshots: " + "  ".join(
        f"{p}={s}" for p, s in matrix.snapshots))
    out.append("")
    out.append("note: the spec-level count aggregates spec-fail, both-fail "
               "and ambiguity-fail cells; both-fail findings originate at "
               "spec level and ambiguity-fail cells mark clauses that do "
               "not uniquely determine the behavior.")
    return "\n".join(out) + "\n"


def _render_structured(matrix: ConformanceMatrix) -> str:
    cells = []
    for c in matrix.cells:
        entry = {
            "protocol": c.protocol, "principle": c.principle,
            "model_verdict": c.model_verdict,
            "replay_verdict": c.replay_verdict,
            "class": c.taxonomy_class, "triage": c.triage,
            "depth": c.depth, "aps_layer": c.aps_layer,
        }
        if c.counterexample is not None:
            entry["counterexample"] = {
                "model": c.counterexample.model,
                "property": c.counterexample.property_id,
                "depth": c.counterexample.depth,
                "steps": [s.transition_id for s in c.counterexample.steps],
            }
        cells.append(entry)
    doc = {
        "cells": cells,
        "totals": dict(matrix.totals),
        "spec_level_violations": matrix.spec_level_count,
        "snapshots": dict(matrix.snapshots),
        "aps": [{"layer": c.layer, "protocol": c.protocol,
                 "status": c.status} for c in aps_table()],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
