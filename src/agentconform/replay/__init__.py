"""Trace replay against executable protocol endpoints.

Counterexample traces compile into test cases; adapters map transition
ids to concrete wire operations and drive them against the caller's
endpoint or, when none is given, an in-process mock with a named
profile. The vulnerable profile keeps the gaps found at model level; the
hardened one revokes credentials at session close or task cancel (P8),
strips injected directives from tool output (P4), refuses delegation
beyond the original grant (P3) and audits every accepted operation (P6).
The oracle for each test is derived from the violated property's
principle.
"""

from .harness import (AdapterActionMap, AdapterReport, ReplayError,
                      TestCase, adapter_table, generate_tests, run)
from .mocks import A2aMock, McpMock

__all__ = [
    "AdapterActionMap", "AdapterReport", "ReplayError", "TestCase",
    "adapter_table", "generate_tests", "run", "McpMock", "A2aMock",
]
