"""Command-line interface.

Exit codes follow the CI gating convention: 0 when everything passes,
1 when a violation was found, 2 on tool or usage errors.
"""

from __future__ import annotations

import argparse
import sys
import urllib.parse
from pathlib import Path

from . import __version__, builtins, checker, compose, irfmt, report, tla
from .replay import generate_tests, run as replay_run

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _parse_bounds(spec: str, models) -> checker.Bounds:
    """Bounds from 'agents=2,caps=2,counter_max=3,depth=20,states=1000000'.

    Every other key caps a domain and must name a domain of one of the
    models the command runs (case-insensitively).
    """
    bounds = checker.DEFAULT_BOUNDS
    if not spec:
        return bounds
    caps = {}
    for part in spec.split(","):
        if "=" not in part:
            raise CliError(f"bad bounds entry {part!r}; expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip().lower()
        try:
            value = int(raw)
        except ValueError:
            raise CliError(f"bounds value for {key!r} must be an int")
        if key in ("depth", "max_depth"):
            bounds = checker.replace(bounds, max_depth=value)
        elif key in ("states", "max_states"):
            bounds = checker.replace(bounds, max_states=value)
        elif value < 1:
            # an empty domain or a zero counter cap disables the transitions
            # a violation needs, turning FAILs into vacuous PASSes
            raise CliError(f"bounds value for {key!r} must be at least 1")
        elif key == "counter_max":
            bounds = checker.replace(bounds, counter_max=value)
        else:
            caps[key] = value
    if caps:
        domains = {d for m in models for d, _ in m.constants}
        known = {d.lower() for d in domains}
        for key in caps:
            if key not in known:
                raise CliError(f"bounds key {key!r} names no domain; known "
                               f"domains: {', '.join(sorted(domains))}")
        bounds = bounds.with_caps(**caps)
    return bounds


def _load_model(ref: str):
    """A builtin name or a path to an .ir file."""
    if ref in builtins.BUILTIN_NAMES:
        return builtins.builtin(ref)
    path = Path(ref)
    if not path.exists():
        raise CliError(f"{ref!r} is neither a builtin model "
                       f"({', '.join(builtins.BUILTIN_NAMES)}) nor a file")
    return irfmt.load_model(path)


def _exit_code(results) -> int:
    """EXIT_ERROR if any check result is an error, else EXIT_VIOLATION if
    any is a FAIL, else EXIT_OK."""
    verdicts = [res.verdict for res in results]
    if any(v.startswith("ERROR") for v in verdicts):
        return EXIT_ERROR
    return EXIT_VIOLATION if "FAIL" in verdicts else EXIT_OK


def _write_out(out, text: str):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    bounds = _parse_bounds(args.bounds, [model])
    if args.property:
        ids = [p.id for p in model.properties]
        if args.property not in ids:
            raise CliError(f"model {model.name!r} has no property "
                           f"{args.property!r}; its properties: "
                           f"{', '.join(ids)}")
        props = [model.property_by_id(args.property)]
    else:
        props = list(model.properties)
    results = checker.check_all(model, props, bounds)
    lines = []
    for pid in sorted(results):
        res = results[pid]
        line = f"{model.name} {pid}: {res.verdict}"
        if res.failed:
            line += f" at depth {res.counterexample.depth}"
            steps = " -> ".join(
                s.transition_id for s in res.counterexample.steps)
            line += f" [{steps}]" if steps else " [initial state]"
        lines.append(line + "\n")
    _write_out(args.out, "".join(lines))
    if args.counterexample_out:
        failing = [results[p] for p in sorted(results) if results[p].failed]
        if failing:
            Path(args.counterexample_out).write_text(
                checker.export_counterexample(
                    model, failing[0].counterexample))
    return _exit_code(results.values())


def _cmd_compose(args) -> int:
    if args.pattern not in compose.PATTERNS:
        raise CliError(f"unknown pattern {args.pattern!r}; "
                       f"known: {', '.join(sorted(compose.PATTERNS))}")
    for pattern, a, b, bridge in compose.builtin_compositions():
        if pattern != args.pattern:
            continue
        composed = compose.compose(a, b, bridge)
        if args.out:
            Path(args.out).write_text(irfmt.serialize_model(composed))
        props = compose.cs_properties(composed, pattern)
        results = checker.check_all(composed, props,
                                    _parse_bounds(args.bounds, [composed]))
        for pid in sorted(results):
            res = results[pid]
            line = f"{composed.name} {pid}: {res.verdict}"
            if res.failed:
                line += f" at depth {res.counterexample.depth}"
            sys.stdout.write(line + "\n")
        return _exit_code(results.values())
    raise CliError(f"pattern {args.pattern!r} has no builtin composition")


def _cmd_emit_tla(args) -> int:
    model = _load_model(args.model)
    artifact = tla.emit_artifact(model, _parse_bounds(args.bounds, [model]))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        stem = model.name.replace("-", "_")
        (outdir / f"{stem}.tla").write_text(artifact.module_text)
        for pid, cfg in artifact.config_texts:
            (outdir / f"{stem}_{pid}.cfg").write_text(cfg)
        sys.stdout.write(f"wrote {stem}.tla and "
                         f"{len(artifact.config_texts)} configs to {outdir}\n")
    else:
        sys.stdout.write(artifact.module_text)
        for _, cfg in artifact.config_texts:
            sys.stdout.write("\n" + cfg)
    return EXIT_OK


def _cmd_parse_tlc(args) -> int:
    text = Path(args.log).read_text()
    parse = tla.parse_tlc_output(text)
    if parse.violated:
        sys.stdout.write(f"violated: {parse.violated} "
                         f"(trace depth {parse.depth})\n")
        return EXIT_VIOLATION
    sys.stdout.write(f"no violation; {parse.distinct_states} distinct "
                     f"states\n")
    return EXIT_OK


def _parse_endpoint(url: str, model_name: str) -> tuple:
    """(host, port) of an http://host:port delegation endpoint."""
    if model_name == "mcp":
        raise CliError("--endpoint works for a2a only: the tool-server "
                       "(mcp) adapter has no network transport")
    parts = urllib.parse.urlsplit(url)
    try:
        port = parts.port
    except ValueError:
        port = None
    if (parts.scheme != "http" or not parts.hostname or port is None
            or parts.path not in ("", "/")):
        raise CliError(f"--endpoint must look like http://host:port, "
                       f"not {url!r}")
    return parts.hostname, port


def _cmd_replay(args) -> int:
    text = Path(args.counterexample).read_text()
    import json
    model_name = json.loads(text).get("model")
    if model_name not in builtins.BUILTIN_NAMES:
        raise CliError(f"counterexample names unknown model {model_name!r}")
    model = builtins.builtin(model_name)
    cx = checker.import_counterexample(model, text)
    tests, skipped = generate_tests([cx])
    if not tests:
        reason = skipped[0][1] if skipped else "no test generated"
        raise CliError(f"cannot replay: {reason}")
    endpoint = None
    if args.endpoint is not None:
        endpoint = _parse_endpoint(args.endpoint, model_name)
    rc = EXIT_OK
    reports = []
    for test in tests:
        adapter_report = replay_run(test, args.profile, endpoint)
        reports.append(adapter_report.to_json())
        if adapter_report.outcome == "VIOLATED":
            rc = EXIT_VIOLATION
    _write_out(args.out, "\n".join(reports) + "\n")
    return rc


def _report_over_dir(args) -> int:
    """Per-model property verdicts for every .ir file in a directory."""
    paths = sorted(Path(args.models_dir).glob("*.ir"))
    if not paths:
        raise CliError(f"no .ir files under {args.models_dir!r}")
    models = [irfmt.load_model(path) for path in paths]
    bounds = _parse_bounds(args.bounds, models)
    lines, every = [], []
    for model in models:
        results = checker.check_all(model, model.properties, bounds)
        for pid in sorted(results):
            every.append(results[pid])
            lines.append(f"{model.name} {pid}: {results[pid].verdict}\n")
    _write_out(args.out, "".join(lines))
    return _exit_code(every)


def _cmd_report(args) -> int:
    if args.models_dir:
        return _report_over_dir(args)
    models = [builtins.builtin(n) for n in builtins.BUILTIN_NAMES]
    models += [compose.compose(a, b, bridge)
               for _, a, b, bridge in compose.builtin_compositions()]
    matrix = report.bundled_matrix(bounds=_parse_bounds(args.bounds, models))
    _write_out(args.out, report.render(matrix, args.format))
    return EXIT_VIOLATION if matrix.spec_level_count else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentconform",
        description="Conformance checker for AI agent protocols")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bounds", default="",
                       help="domain caps and limits, e.g. agents=2,caps=2 "
                            "(see Bounds in the README)")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("check", help="model-check a protocol model")
    p.add_argument("model", help="builtin name or .ir file path")
    p.add_argument("--property", default=None, help="check one property id")
    p.add_argument("--counterexample-out", default=None,
                   help="write the first counterexample as JSON")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("compose", help="check a cross-protocol composition")
    p.add_argument("pattern", help="composition pattern name")
    common(p)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("emit-tla", help="emit a TLA+ module and TLC configs")
    p.add_argument("model", help="builtin name or .ir file path")
    common(p)
    p.set_defaults(fn=_cmd_emit_tla)

    p = sub.add_parser("parse-tlc", help="parse a TLC output log")
    p.add_argument("log", help="path to the TLC log file")
    p.set_defaults(fn=_cmd_parse_tlc)

    p = sub.add_parser("replay", help="replay a counterexample as a "
                                      "protocol-level test")
    p.add_argument("counterexample", help="counterexample JSON file")
    p.add_argument("--profile", required=True,
                   choices=("vulnerable", "hardened"))
    p.add_argument("--endpoint", default=None,
                   help="replay against a running a2a endpoint, "
                        "http://host:port, instead of a mock")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("report", help="render the bundled conformance report")
    p.add_argument("--models-dir", default=None,
                   help="check .ir files in a directory instead of the "
                        "bundled protocols (no triage or composition)")
    p.add_argument("--format", default="table",
                   choices=("table", "structured"))
    common(p)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
