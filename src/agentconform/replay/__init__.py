"""Trace replay against executable protocol endpoints.

Counterexample traces compile into test cases. One runner class per
replayed protocol maps its transition ids to concrete wire operations,
drives them against the caller's endpoint or, when none is given, its
in-process mock with a named profile, and holds one oracle per principle
it can judge. The vulnerable profile keeps the gaps found at model
level; the hardened one revokes credentials at session close or task
cancel (P8), strips injected directives from tool output (P4), refuses
delegation beyond the original grant (P3) and audits every accepted
operation (P6). The oracle for each test is the one of the violated
property's principle.
"""

from .harness import AdapterReport, ReplayError, TestCase, generate_tests, run
from .mocks import A2aMock, McpMock

__all__ = [
    "AdapterReport", "ReplayError", "TestCase", "generate_tests", "run",
    "McpMock", "A2aMock",
]
