"""Counterexample replay against the mock endpoints."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from agentconform import checker
from agentconform.builtins import builtin
from agentconform.replay import (ReplayError, adapter_table, generate_tests,
                                 run)
from agentconform.replay.mocks import A2aMock


def _all_counterexamples():
    out = []
    for name in ("mcp", "a2a", "anp", "acp-cap", "acp-client"):
        model = builtin(name)
        for prop in model.properties:
            res = checker.check(model, prop)
            if res.failed:
                out.append(res.counterexample)
    return out


@pytest.fixture(scope="module")
def generated():
    return generate_tests(_all_counterexamples())


def test_adapter_tables():
    assert adapter_table("mcp").protocol == "mcp"
    assert adapter_table("a2a").protocol == "a2a"
    with pytest.raises(ReplayError):
        adapter_table("anp")


def test_generation_covers_oracle_principles(generated):
    tests, skipped = generated
    covered = {(t.model, t.principle) for t in tests}
    assert ("mcp", "P4") in covered
    assert ("mcp", "P6") in covered
    assert ("mcp", "P8") in covered
    assert ("a2a", "P3") in covered
    assert ("a2a", "P6") in covered
    assert ("a2a", "P8") in covered
    for cx, reason in skipped:
        assert reason


def test_every_skip_has_a_reason(generated):
    _, skipped = generated
    models = {cx.model for cx, _ in skipped}
    assert "anp" in models  # no adapter map
    reasons = {reason for _, reason in skipped}
    assert any("adapter" in r for r in reasons)
    assert any("oracle" in r for r in reasons)


def test_discrimination(generated):
    tests, _ = generated
    assert tests
    for test in tests:
        vuln = run(test, "vulnerable")
        hard = run(test, "hardened")
        assert vuln.outcome == "VIOLATED", test.id
        assert hard.outcome == "UPHELD", test.id


def test_transcripts_deterministic(generated):
    tests, _ = generated
    for test in tests:
        first = run(test, "vulnerable").to_json()
        second = run(test, "vulnerable").to_json()
        assert first == second, test.id


def test_transcripts_match_golden(generated):
    """Every mock replay report is byte-identical to the pinned one; the
    golden holds the sha256 of each ``AdapterReport.to_json()``."""
    tests, _ = generated
    golden = json.loads(
        (Path(__file__).parent / "golden" / "replay.json").read_text())
    got = {f"{test.id} {profile}": hashlib.sha256(
               run(test, profile).to_json().encode()).hexdigest()
           for test in tests for profile in ("vulnerable", "hardened")}
    assert got == golden


def test_endpoint_decides_behaviour(generated):
    """Given an endpoint, the replay runs against it whatever profile is
    named: a hardened endpoint upholds every a2a oracle."""
    tests, _ = generated
    a2a = [test for test in tests if test.model == "a2a"]
    assert a2a
    for test in a2a:
        with A2aMock("hardened") as mock:
            report = run(test, "vulnerable", endpoint=mock.address)
        assert json.loads(report.to_json())["mode"] == "live"
        assert report.outcome == "UPHELD", test.id


def test_unknown_profile_rejected(generated):
    tests, _ = generated
    with pytest.raises(ReplayError):
        run(tests[0], "paranoid")


def test_a2a_mock_closes_promptly():
    """close() does not wait out the HTTP server's poll interval, and it
    joins the server thread."""
    mocks = []
    t0 = time.perf_counter()
    for _ in range(10):
        with A2aMock("vulnerable") as mock:
            mocks.append(mock)
    assert time.perf_counter() - t0 < 1.0
    assert not any(m._thread.is_alive() for m in mocks)
