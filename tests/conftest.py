"""Shared fixtures.

The bundled matrix and the composition runs are the two expensive
computations in the suite; both are session-scoped so every test file
reuses one result.
"""

import time

import pytest

from agentconform import checker, compose, report


@pytest.fixture(scope="session")
def bundled_run():
    """(matrix, wall seconds) for the full bundled run at default bounds."""
    t0 = time.monotonic()
    matrix = report.bundled_matrix()
    return matrix, time.monotonic() - t0


@pytest.fixture(scope="session")
def composition_runs():
    """pattern -> (composed model, properties, {pid: CheckResult})."""
    out = {}
    for pattern, a, b, bridge in compose.builtin_compositions():
        composed = compose.compose(a, b, bridge)
        props = compose.cs_properties(pattern)
        out[pattern] = (composed, props,
                        checker.check_all(composed, props))
    return out
