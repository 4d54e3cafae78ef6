"""Command-line interface.

Exit codes follow the CI gating convention: 0 when everything passes,
1 when a violation was found, 2 on tool or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.parse
from pathlib import Path

from . import __version__, builtins, checker, compose, ir, irfmt, report, tla
from .record import replace

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
        if key == "depth":
            # depth=0 checks the initial state only
            if value < 0:
                raise CliError("bounds value for 'depth' must be at least 0")
            bounds = replace(bounds, max_depth=value)
        elif value < 1:
            # an empty domain or a zero counter cap disables the transitions
            # a violation needs, turning FAILs into vacuous PASSes; a state
            # budget below 1 cannot hold even the initial state
            raise CliError(f"bounds value for {key!r} must be at least 1")
        elif key == "states":
            bounds = replace(bounds, max_states=value)
        elif key == "counter_max":
            bounds = replace(bounds, counter_max=value)
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
    """A builtin name, or a path to an .ir file that validates clean."""
    if ref in builtins.BUILTIN_NAMES:
        return builtins.builtin(ref)
    path = Path(ref)
    if not path.exists():
        raise CliError(f"{ref!r} is neither a builtin model "
                       f"({', '.join(builtins.BUILTIN_NAMES)}) nor a file")
    model = irfmt.load_model(path)
    findings = ir.validate(model).findings
    if findings:
        raise CliError(f"{ref} fails validation: "
                       + "; ".join(map(str, findings)))
    return model


def _exit_code(results) -> int:
    """EXIT_ERROR if any check result is an error, else EXIT_VIOLATION if
    any is a FAIL, else EXIT_ERROR if any search was cut off by its
    bounds (no PASS is known for it), else EXIT_OK."""
    verdicts = [res.verdict for res in results]
    if any(v.startswith("ERROR") for v in verdicts):
        return EXIT_ERROR
    if "FAIL" in verdicts:
        return EXIT_VIOLATION
    return EXIT_ERROR if "BOUND_EXHAUSTED" in verdicts else EXIT_OK


def _write_out(out, text: str):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _verdict_lines(model, results) -> str:
    """One line per property, by id: `<model> <pid>: <verdict>`, and for a
    FAIL the counterexample's depth and actions."""
    lines = []
    for pid in sorted(results):
        res = results[pid]
        line = f"{model.name} {pid}: {res.verdict}"
        if res.failed:
            steps = " -> ".join(
                step.transition_id for step in res.counterexample.steps)
            line += (f" at depth {res.counterexample.depth}"
                     f" [{steps or 'initial state'}]")
        lines.append(line + "\n")
    return "".join(lines)


def _cmd_check(args) -> int:
    models = [_load_model(ref) for ref in args.models]
    bounds = _parse_bounds(args.bounds, models)
    runs = []
    for model in models:
        props = list(model.properties)
        if args.property:
            ids = [p.id for p in props]
            if args.property not in ids:
                raise CliError(f"model {model.name!r} has no property "
                               f"{args.property!r}; its properties: "
                               f"{', '.join(ids)}")
            props = [model.property_by_id(args.property)]
        runs.append((model, checker.check_all(model, props, bounds)))
    _write_out(args.out, "".join(_verdict_lines(model, results)
                                 for model, results in runs))
    failing = [(model, res.counterexample) for model, results in runs
               for _, res in sorted(results.items()) if res.failed]
    if args.counterexample_out and failing:
        Path(args.counterexample_out).write_text(
            checker.export_counterexample(*failing[0]))
    return _exit_code([res for _, results in runs
                       for res in results.values()])


def _cmd_compose(args) -> int:
    spec = compose.PATTERNS.get(args.pattern)
    if spec is None:
        raise CliError(f"unknown pattern {args.pattern!r}; "
                       f"known: {', '.join(sorted(compose.PATTERNS))}")
    a, b = spec["pair"]
    composed = compose.compose(builtins.builtin(a), builtins.builtin(b),
                               spec["bridge"])
    if args.model_out:
        Path(args.model_out).write_text(irfmt.serialize_model(composed))
    props = compose.cs_properties(args.pattern)
    results = checker.check_all(composed, props,
                                _parse_bounds(args.bounds, [composed]))
    _write_out(args.out, _verdict_lines(composed, results))
    return _exit_code(results.values())


def _cmd_emit_tla(args) -> int:
    model = _load_model(args.model)
    artifact = tla.emit_artifact(model, _parse_bounds(args.bounds, [model]))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        stem = tla.module_name(model)
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
    # the harness pulls in http.client and ssl; only this command needs it
    from .replay import generate_tests, run as replay_run
    text = Path(args.counterexample).read_text()
    try:
        model_name = json.loads(text).get("model")
    except (ValueError, AttributeError):
        model_name = None
    if model_name not in builtins.BUILTIN_NAMES:
        raise CliError(f"counterexample names unknown model {model_name!r}")
    model = builtins.builtin(model_name)
    cx = checker.import_counterexample(model, text)
    if not checker.validate_trace(model, cx):
        raise CliError(f"the trace is no run of model {model_name!r} that "
                       f"ends in a violation of {cx.property_id}")
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


def _cmd_report(args) -> int:
    models = [builtins.builtin(n) for n in builtins.BUILTIN_NAMES]
    models += [compose.compose(a, b, bridge)
               for _, a, b, bridge in compose.builtin_compositions()]
    matrix = report.bundled_matrix(bounds=_parse_bounds(args.bounds, models))
    _write_out(args.out, report.render(matrix, args.format))
    if matrix.spec_level_count:
        return EXIT_VIOLATION
    return EXIT_ERROR if dict(matrix.totals)["truncated"] else EXIT_OK


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

    p = sub.add_parser("check", help="model-check protocol models")
    p.add_argument("models", nargs="+", metavar="model",
                   help="builtin name or .ir file path")
    p.add_argument("--property", default=None,
                   help="check one property id, in every model")
    p.add_argument("--counterexample-out", default=None,
                   help="write the first counterexample printed as JSON")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("compose", help="check a cross-protocol composition")
    p.add_argument("pattern", help="composition pattern name")
    p.add_argument("--model-out", default=None,
                   help="write the composed model as .ir")
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
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--profile", choices=("vulnerable", "hardened"),
                        help="replay against an in-process mock")
    target.add_argument("--endpoint", default=None,
                        help="replay against a running a2a endpoint, "
                             "http://host:port")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("report", help="render the bundled conformance report")
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
