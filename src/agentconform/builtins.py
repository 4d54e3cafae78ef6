"""Access to the bundled protocol models and clause stores.

Five reconstructions ship with the package: mcp, a2a, anp, acp-cap and
acp-client. Each model passes validation with an empty report, and each
protocol-kind transition cites a source document. The models also carry
per-layer completeness metadata, surfaced here as the stack gap table.
"""

from __future__ import annotations

import os

from . import ir
from . import irfmt
from .record import Record


class BuiltinError(Exception):
    pass


BUILTIN_NAMES = ("mcp", "a2a", "anp", "acp-cap", "acp-client")

# acp-client is bundled but the published gap table covers four protocols
APS_PROTOCOLS = ("mcp", "a2a", "anp", "acp-cap")

APS_LAYERS = ("L1", "L2", "L3", "L4", "L5", "L6")

APS_STATUSES = ("SPECIFIED", "SPEC_GAP", "UNDERCONSTRAINED")


class ApsCell(Record):
    __slots__ = ("layer", "protocol", "status")


_model_cache: dict = {}
_clause_cache: dict = {}


# the package's own data directory, read as plain files: from Python
# 3.12, importlib.resources imports `inspect`, which CLI start-up avoids
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _read_asset(subdir: str, filename: str) -> str:
    with open(os.path.join(_DATA, subdir, filename), encoding="utf-8") as f:
        return f.read()


def builtin(name: str) -> ir.ProtocolModel:
    """Load a bundled model by protocol name; results are cached."""
    if name not in BUILTIN_NAMES:
        raise BuiltinError(
            f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if name not in _model_cache:
        model = irfmt.parse_model(_read_asset("models", f"{name}.ir"))
        report = ir.validate(model)
        if report.findings:
            raise BuiltinError(
                f"bundled model {name!r} failed validation: "
                f"{report.findings}")
        _model_cache[name] = model
    return _model_cache[name]


def builtin_clauses(name: str):
    """Load the bundled clause store for a protocol; results are cached."""
    if name not in BUILTIN_NAMES:
        raise BuiltinError(
            f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if name not in _clause_cache:
        _clause_cache[name] = tuple(
            irfmt.parse_clauses(_read_asset("clauses", f"{name}.clauses")))
    return _clause_cache[name]


def aps_table():
    """Per-layer completeness grid, six layers by four protocols.

    Statuses come straight from each bundled model's metadata block, so
    the table cannot drift from the assets.
    """
    cells = []
    for layer in APS_LAYERS:
        for proto in APS_PROTOCOLS:
            status = dict(builtin(proto).aps).get(layer)
            if status not in APS_STATUSES:
                raise BuiltinError(
                    f"model {proto!r} has no valid status for {layer}: "
                    f"{status!r}")
            cells.append(ApsCell(layer, proto, status))
    return tuple(cells)
