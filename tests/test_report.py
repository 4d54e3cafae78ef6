"""Triage, matrix assembly, and report rendering."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentconform import checker, expr as E, ir, report

GOLDEN = Path(__file__).parent / "golden"

_PROP = {
    cls: ir.Property("X_Test", "P8", cls, E.parse("true"))
    for cls in ir.PROPERTY_CLASSES
}


def _result(verdict, depth=None):
    if verdict == "FAIL":
        cx = checker.Counterexample("m", "X_Test", depth or 1, (), ())
        return checker.CheckResult("FAIL", 1, cx)
    return checker.CheckResult(verdict, 1)


# ---------------------------------------------------------------------------
# Decision table

def test_triage_spec_fail():
    assert report.triage(_result("FAIL"), "NOT_RUN",
                         _PROP["aasm-hardening"]) == "spec-fail"
    assert report.triage(_result("FAIL"), "UPHELD",
                         _PROP["spec-recommended"]) == "spec-fail"


def test_triage_both_fail():
    assert report.triage(_result("FAIL"), "VIOLATED",
                         _PROP["spec-recommended"]) == "both-fail"


def test_triage_impl_fail():
    assert report.triage(_result("PASS"), "VIOLATED",
                         _PROP["spec-mandated"]) == "impl-fail"


def test_triage_pass():
    assert report.triage(_result("PASS"), "NOT_RUN",
                         _PROP["spec-mandated"]) == "pass"
    assert report.triage(_result("PASS"), "UPHELD",
                         _PROP["aps-completeness"]) == "pass"


def test_triage_ambiguity_fail():
    ann = report.Annotations(ambiguous_clauses=("c-001",))
    assert report.triage(_result("FAIL"), "NOT_RUN",
                         _PROP["aps-completeness"], ann) == "ambiguity-fail"


def test_triage_manual_model_fail():
    ann = report.Annotations(manual_model_fail=True)
    assert report.triage(_result("FAIL"), "NOT_RUN",
                         _PROP["aasm-hardening"], ann) == "model-fail"


def test_triage_annotation_conflict():
    ann = report.Annotations(manual_model_fail=True)
    with pytest.raises(report.AnnotationConflictError):
        report.triage(_result("PASS"), "NOT_RUN",
                      _PROP["spec-mandated"], ann)


def test_triage_error_verdict_is_model_fail():
    assert report.triage(_result("ERROR: boom"), "NOT_RUN",
                         _PROP["aasm-hardening"]) == "model-fail"


def test_triage_rejects_bad_outcome():
    with pytest.raises(report.ReportError):
        report.triage(_result("PASS"), "MAYBE", _PROP["aasm-hardening"])


@settings(max_examples=300, deadline=None)
@given(
    verdict=st.sampled_from(("PASS", "FAIL", "BOUND_EXHAUSTED", "ERROR: x")),
    outcome=st.sampled_from(report.REPLAY_OUTCOMES),
    cls=st.sampled_from(ir.PROPERTY_CLASSES),
    manual=st.booleans(),
    ambiguous=st.booleans(),
)
def test_triage_totality(verdict, outcome, cls, manual, ambiguous):
    ann = report.Annotations(
        manual_model_fail=manual,
        ambiguous_clauses=("c-001",) if ambiguous else ())
    try:
        got = report.triage(_result(verdict), outcome, _PROP[cls], ann)
    except report.AnnotationConflictError:
        assert manual and verdict == "PASS" and outcome == "NOT_RUN" \
            and cls == "spec-mandated"
        return
    assert got in report.TRIAGE_VERDICTS


# ---------------------------------------------------------------------------
# Matrix assembly and rendering

def test_incomplete_matrix_error():
    inputs = [report.CellInput("mcp", "P8", _result("FAIL", 2),
                               _PROP["spec-recommended"])]
    with pytest.raises(report.IncompleteMatrixError) as exc:
        report.build_matrix(inputs, ())
    assert ("a2a", "P3") in exc.value.missing


def test_duplicate_cell_rejected():
    ci = report.CellInput("mcp", "P8", _result("FAIL", 2),
                          _PROP["spec-recommended"])
    with pytest.raises(report.ReportError):
        report.build_matrix([ci, ci], ())


def test_bundled_matrix_shape(bundled_run):
    matrix, _ = bundled_run
    assert len(matrix.cells) == 55
    assert sum(n for _, n in matrix.totals) == 55
    assert matrix.spec_level_count == 33


def test_every_failing_cell_links_a_counterexample(bundled_run):
    matrix, _ = bundled_run
    for cell in matrix.cells:
        if cell.model_verdict == "FAIL":
            assert cell.counterexample is not None, (cell.protocol,
                                                     cell.principle)
            assert cell.depth == cell.counterexample.depth


def test_render_matches_golden_table(bundled_run):
    matrix, _ = bundled_run
    assert report.render(matrix, "table") == \
        (GOLDEN / "matrix.txt").read_text()


def test_render_matches_golden_structured(bundled_run):
    matrix, _ = bundled_run
    assert report.render(matrix, "structured") == \
        (GOLDEN / "matrix.json").read_text()


def test_render_default_and_unknown_format(bundled_run):
    matrix, _ = bundled_run
    assert report.render(matrix) == report.render(matrix, "table")
    with pytest.raises(report.ReportError):
        report.render(matrix, "yaml")


def test_matrix_stable_across_runs(bundled_run):
    matrix, _ = bundled_run
    again = report.bundled_matrix()
    assert again == matrix
