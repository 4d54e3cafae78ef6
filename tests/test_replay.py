"""Counterexample replay against the mock endpoints."""

import hashlib
import http.client
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from agentconform import checker
from agentconform.builtins import builtin
from agentconform.replay import ReplayError, generate_tests, harness, run
from agentconform.replay.mocks import A2aMock, _A2aHandler


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


def test_runner_actions_are_the_non_environment_transitions():
    """Each runner maps exactly the transitions of its bundled model that
    are not of kind Environment; anp has no runner."""
    runners = harness._RUNNERS
    assert sorted(runners) == ["a2a", "mcp"]
    for name, runner in runners.items():
        wire = {t.id for t in builtin(name).transitions
                if t.kind != "Environment"}
        assert set(runner.ACTIONS) == wire, name
    assert (len(runners["mcp"].ACTIONS), len(runners["a2a"].ACTIONS)) == \
        (7, 6)


def test_environment_step_is_recorded_as_internal():
    """An Environment step sends nothing to the endpoint: the transcript
    records it as internal, and the oracle still judges the run."""
    test = harness.TestCase("mcp-P6-hand", "mcp", "P6",
                            (("OpenSession", ()), ("SuspendRequest", ())))
    vuln, hard = run(test, "vulnerable"), run(test, "hardened")
    assert vuln.transcript[1] == {"step": 1, "action": "SuspendRequest",
                                  "request": "internal", "response": {}}
    assert hard.transcript[1] == vuln.transcript[1]
    assert (vuln.outcome, hard.outcome) == ("VIOLATED", "UPHELD")


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
    """Given an endpoint, the replay runs against it and records no
    profile: a hardened endpoint upholds every a2a oracle."""
    tests, _ = generated
    a2a = [test for test in tests if test.model == "a2a"]
    assert a2a
    for test in a2a:
        with A2aMock("hardened") as mock:
            report = run(test, endpoint=mock.address)
        doc = json.loads(report.to_json())
        assert (doc["mode"], doc["profile"]) == ("live", None)
        assert report.outcome == "UPHELD", test.id


def test_profile_and_endpoint_exclude_each_other(generated):
    tests, _ = generated
    test = next(t for t in tests if t.model == "a2a")
    with A2aMock("hardened") as mock:
        with pytest.raises(ReplayError, match="exactly one"):
            run(test, "vulnerable", endpoint=mock.address)
    with pytest.raises(ReplayError, match="exactly one"):
        run(test)


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


def test_a2a_mock_close_is_not_held_by_a_silent_client(monkeypatch):
    """A client that connects and sends nothing is dropped after the
    handler's read timeout, so close() returns and leaves no thread."""
    assert 0 < _A2aHandler.timeout <= 10  # bounded by default
    monkeypatch.setattr(_A2aHandler, "timeout", 0.2)
    threads = threading.active_count()
    mock = A2aMock("vulnerable")
    silent = socket.create_connection(mock.address)
    # close() runs in a thread of its own, so that a close() that hangs
    # fails the test instead of hanging it
    closer = threading.Thread(target=mock.close, daemon=True)
    try:
        closer.start()
        closer.join(timeout=2.0)
        assert not closer.is_alive(), "close() blocked on a silent client"
    finally:
        silent.close()
    assert not mock._thread.is_alive()
    assert threading.active_count() == threads
    mock.close()  # a second close() is a no-op


def test_a2a_mock_answers_a_bad_body_with_400():
    """A body that is no JSON, or JSON but no object, gets a 400 with a
    JSON error body, and the mock goes on serving: a well-formed SendTask
    then opens a task, and close() leaves no thread."""
    threads = threading.active_count()

    def post(data):
        conn = http.client.HTTPConnection(*mock.address, timeout=5)
        try:
            conn.request("POST", "/tasks", body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()
    with A2aMock("vulnerable") as mock:
        for body in (b"not json", b"[1]"):
            assert post(body) == (
                400, {"error": "request body is not a JSON object"}), body
        assert post(b"{}") == (201, {"id": "t1", "state": "open",
                                     "token": "task-tok-t1"})
    assert not mock._thread.is_alive()
    assert threading.active_count() == threads
