"""Command-line surface: subcommands, exit codes, file output."""

import json

import pytest

from agentconform import cli
from agentconform.builtins import builtin
from agentconform import checker
from agentconform.replay import A2aMock

from _tlc_log import format_tlc_log


def run_cli(*argv):
    return cli.main(list(argv))


def test_check_failing_property_exits_1(capsys):
    rc = run_cli("check", "mcp", "--property", "P8_CredRevocation")
    out = capsys.readouterr().out
    assert rc == 1
    assert "P8_CredRevocation: FAIL at depth 2" in out


def test_check_passing_property_exits_0(capsys):
    rc = run_cli("check", "acp-cap", "--property", "P8_CredRevocation")
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_unknown_model_exits_2(capsys):
    rc = run_cli("check", "nosuch")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_bounds_parsing(capsys):
    rc = run_cli("check", "a2a", "--property", "P3_DelegationMonotonicity",
                 "--bounds", "agentid=2,caps=2,depth=20")
    assert rc == 1
    rc = run_cli("check", "a2a", "--property", "P3_DelegationMonotonicity",
                 "--bounds", "depth=not-a-number")
    assert rc == 2


@pytest.mark.parametrize("spec", ["sessions=0", "counter_max=0",
                                  "agents=-1", "depth=-3", "states=0",
                                  "states=-40"])
def test_check_rejects_degenerate_bounds(spec, capsys):
    """A domain cap, counter_max or state budget below 1, or a negative
    depth, is rejected before anything runs."""
    rc = run_cli("check", "mcp", "--property", "P8_CredRevocation",
                 "--bounds", spec)
    assert rc == 2
    key = spec.partition("=")[0]
    least = 0 if key == "depth" else 1
    assert f"bounds value for {key!r} must be at least {least}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, lines", [
    (("check", "mcp", "--property", "P8_CredRevocation"), 1),
    (("compose", "chained-servers"), 5)])
def test_truncated_search_exits_2(argv, lines, capsys):
    """A search its bounds cut off is no PASS: BOUND_EXHAUSTED exits 2.
    depth=0 is legal and checks the initial state only."""
    for depth in ("1", "0"):
        assert run_cli(*argv, "--bounds", f"depth={depth}") == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == lines
        assert all(line.endswith(": BOUND_EXHAUSTED") for line in out)


def test_report_with_every_search_cut_off_exits_2(capsys):
    """`report` triages a BOUND_EXHAUSTED cell as `truncated`; no search
    completed, so with no spec-level violation the exit code is 2."""
    assert run_cli("report", "--bounds", "depth=0") == 2
    out = capsys.readouterr().out
    assert "spec-level violations: 0" in out
    assert "  pass=0  spec-fail=0  truncated=55\n" in out
    assert run_cli("report") == 1


def test_fail_outranks_a_truncated_search():
    """ERROR -> 2, else FAIL -> 1, else BOUND_EXHAUSTED -> 2, else 0."""
    def code(*verdicts):
        return cli._exit_code([checker.CheckResult(v, 1) for v in verdicts])
    assert code("PASS", "PASS") == 0
    assert code("PASS", "BOUND_EXHAUSTED") == 2
    assert code("BOUND_EXHAUSTED", "FAIL", "PASS") == 1
    assert code("FAIL", "ERROR: boom", "BOUND_EXHAUSTED") == 2


def test_check_unknown_property_names_the_choices(capsys):
    rc = run_cli("check", "mcp", "--property", "NoSuch")
    assert rc == 2
    err = capsys.readouterr().err
    assert "model 'mcp' has no property 'NoSuch'" in err
    assert "P8_CredRevocation" in err


@pytest.mark.parametrize("argv", [
    ("check", "mcp", "--property", "P8_CredRevocation"),
    ("emit-tla", "mcp"),
    ("report",),
])
def test_misspelled_domain_cap_rejected(argv, capsys):
    rc = run_cli(*argv, "--bounds", "sesions=1")
    assert rc == 2
    err = capsys.readouterr().err
    assert "bounds key 'sesions' names no domain" in err
    assert "Sessions" in err


def test_domain_cap_keys_are_checked_per_model(tmp_path, capsys):
    from agentconform import irfmt
    # a2a has no Sessions domain; mcp's Agents is matched case-insensitively
    assert run_cli("check", "a2a", "--bounds", "sessions=1") == 2
    capsys.readouterr()
    assert run_cli("check", "mcp", "--property", "P8_CredRevocation",
                   "--bounds", "AGENTS=1,depth=5,counter_max=2") == 1
    path = tmp_path / "m.ir"
    path.write_text(irfmt.serialize_model(builtin("a2a")))
    assert run_cli("check", str(path), "--bounds", "sessions=1") == 2
    assert run_cli("compose", "tool-delegation",
                   "--bounds", "sessions=1") == 2
    assert "A_Sessions" in capsys.readouterr().err


def test_check_model_file(tmp_path, capsys):
    from agentconform import irfmt
    path = tmp_path / "local.ir"
    path.write_text(irfmt.serialize_model(builtin("mcp")))
    rc = run_cli("check", str(path), "--property", "P8_CredRevocation")
    assert rc == 1


def test_emit_tla_to_dir(tmp_path, capsys):
    rc = run_cli("emit-tla", "a2a", "--out", str(tmp_path))
    assert rc == 0
    module = (tmp_path / "a2a.tla").read_text()
    assert "MODULE a2a" in module
    cfgs = list(tmp_path.glob("a2a_*.cfg"))
    assert len(cfgs) == len(builtin("a2a").properties)


def test_parse_tlc_exit_codes(tmp_path, capsys):
    model = builtin("mcp")
    log = tmp_path / "run.log"
    log.write_text(format_tlc_log(
        model, model.property_by_id("P8_CredRevocation")))
    assert run_cli("parse-tlc", str(log)) == 1
    log.write_text(format_tlc_log(
        model, model.property_by_id("P1_IdentityVerifiability")))
    assert run_cli("parse-tlc", str(log)) == 0
    log.write_text("garbage\n")
    assert run_cli("parse-tlc", str(log)) == 2


def test_compose_pattern(capsys):
    rc = run_cli("compose", "tool-delegation")
    out = capsys.readouterr().out
    assert rc == 1
    assert "CS_NoLeakage: FAIL" in out
    assert run_cli("compose", "nosuch") == 2


def test_compose_out_writes_verdicts_and_model_out_the_model(tmp_path,
                                                            capsys):
    """`compose --out` writes the verdict lines, as `check --out` does;
    the composed model goes to `--model-out`."""
    from agentconform import compose, irfmt
    assert run_cli("compose", "tool-delegation") == 1
    printed = capsys.readouterr().out
    out, model_out = tmp_path / "verdicts.txt", tmp_path / "composed.ir"
    assert run_cli("compose", "tool-delegation", "--out", str(out),
                   "--model-out", str(model_out)) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    a, b = compose.PATTERNS["tool-delegation"]["pair"]
    assert irfmt.parse_model(model_out.read_text()) == compose.compose(
        builtin(a), builtin(b), compose.PATTERNS["tool-delegation"]["bridge"])


def test_check_and_compose_print_one_line_format(tmp_path, capsys):
    """compose FAIL lines carry depth and trace as check's do, and checking
    several models prints each model's own output in argument order."""
    import re
    from agentconform import irfmt
    assert run_cli("compose", "tool-delegation") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert re.fullmatch(r"mcp\+a2a CS_\w+: FAIL at depth \d+ "
                            r"\[A_OpenSession( -> \w+)*\]", line), line
    paths = []
    for name in ("acp-cap", "mcp"):
        path = tmp_path / f"{name}.ir"
        path.write_text(irfmt.serialize_model(builtin(name)))
        paths.append(str(path))
    single = []
    for path in paths:
        run_cli("check", path)
        single.append(capsys.readouterr().out)
    assert run_cli("check", *paths) == 1
    assert capsys.readouterr().out == "".join(single)


def test_check_several_models_property_and_counterexample(tmp_path, capsys):
    """--property must name a property of every model; the counterexample
    written is the first FAIL printed."""
    cx_path = tmp_path / "cx.json"
    rc = run_cli("check", "acp-cap", "a2a", "mcp",
                 "--property", "P8_CredRevocation",
                 "--counterexample-out", str(cx_path))
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "acp-cap P8_CredRevocation: PASS",
        "a2a P8_CredRevocation: FAIL at depth 2 [SendTask -> Cancel]",
        "mcp P8_CredRevocation: FAIL at depth 2 "
        "[OpenSession -> CloseSession]"]
    assert json.loads(cx_path.read_text())["model"] == "a2a"
    assert run_cli("check", "mcp", "a2a",
                   "--property", "P3_DelegationMonotonicity") == 2
    assert "model 'mcp' has no property" in capsys.readouterr().err


def test_replay_round_trip(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    rc = run_cli("check", "mcp", "--property", "P8_CredRevocation",
                 "--counterexample-out", str(cx_path))
    assert rc == 1
    capsys.readouterr()
    rc = run_cli("replay", str(cx_path), "--profile", "vulnerable")
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out)["outcome"] == "VIOLATED"
    rc = run_cli("replay", str(cx_path), "--profile", "hardened")
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["outcome"] == "UPHELD"


def _float_counters(doc):
    for state in [doc["initial"]] + [step["state"] for step in doc["steps"]]:
        state["audit_count"] = float(state["audit_count"])


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc.pop("steps"), "counterexample lacks 'steps'"),
    (lambda doc: doc.update(depth=7), "depth 7 does not count the 2 steps"),
    (lambda doc: doc["steps"][0].pop("action"), "step 1 lacks 'action'"),
    (_float_counters,
     "initial state holds a bad value: 0.0 is no COUNTER(3) value"),
], ids=["no-steps", "wrong-depth", "no-action", "float-counters"])
def test_replay_rejects_malformed_counterexample(tmp_path, capsys, tamper,
                                                 message):
    cx_path = tmp_path / "cx.json"
    run_cli("check", "mcp", "--property", "P8_CredRevocation",
            "--counterexample-out", str(cx_path))
    doc = json.loads(cx_path.read_text())
    tamper(doc)
    cx_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("replay", str(cx_path), "--profile", "vulnerable") == 2
    assert capsys.readouterr().err == f"error: CheckError: {message}\n"
    cx_path.write_text(json.dumps([doc]))
    assert run_cli("replay", str(cx_path), "--profile", "vulnerable") == 2
    assert "unknown model None" in capsys.readouterr().err


def _drop_first_step(doc):
    doc["steps"].pop(0)
    doc["depth"] = 1


def _start_after_first_step(doc):
    doc["initial"] = doc["steps"].pop(0)["state"]
    doc["depth"] = 1


@pytest.mark.parametrize("tamper", [_drop_first_step,
                                    _start_after_first_step],
                         ids=["drop-first-step", "shifted-initial"])
def test_replay_rejects_a_trace_of_no_model_run(tmp_path, capsys, tamper):
    """A document that decodes but is no run of the model from its
    initial state gets no replay verdict."""
    cx_path = tmp_path / "cx.json"
    run_cli("check", "mcp", "--property", "P8_CredRevocation",
            "--counterexample-out", str(cx_path))
    doc = json.loads(cx_path.read_text())
    tamper(doc)
    cx_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("replay", str(cx_path), "--profile", "vulnerable") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the trace is no run of model 'mcp' that "
                            "ends in a violation of P8_CredRevocation\n")


def test_replay_against_endpoint(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run_cli("check", "a2a", "--property", "P3_DelegationMonotonicity",
            "--counterexample-out", str(cx_path))
    capsys.readouterr()
    with A2aMock("vulnerable") as mock:
        host, port = mock.address
        rc = run_cli("replay", str(cx_path),
                     "--endpoint", f"http://{host}:{port}")
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert (report["mode"], report["outcome"]) == ("live", "VIOLATED")
    assert report["profile"] is None


def test_replay_takes_one_target(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run_cli("check", "a2a", "--property", "P3_DelegationMonotonicity",
            "--counterexample-out", str(cx_path))
    for target in ((), ("--profile", "vulnerable",
                        "--endpoint", "http://127.0.0.1:9")):
        with pytest.raises(SystemExit) as exc:
            run_cli("replay", str(cx_path), *target)
        assert exc.value.code == 2


@pytest.mark.parametrize("model,prop,url,message", [
    ("mcp", "P8_CredRevocation", "http://127.0.0.1:9",
     "no network transport"),
    ("a2a", "P3_DelegationMonotonicity", "127.0.0.1:9", "http://host:port"),
])
def test_replay_endpoint_rejected(tmp_path, capsys, model, prop, url,
                                  message):
    cx_path = tmp_path / "cx.json"
    run_cli("check", model, "--property", prop,
            "--counterexample-out", str(cx_path))
    capsys.readouterr()
    rc = run_cli("replay", str(cx_path), "--endpoint", url)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_check_over_model_files(tmp_path, capsys):
    from agentconform import irfmt
    (tmp_path / "m.ir").write_text(irfmt.serialize_model(builtin("mcp")))
    rc = run_cli("check", *map(str, sorted(tmp_path.glob("*.ir"))))
    out = capsys.readouterr().out
    assert rc == 1
    assert "mcp P8_CredRevocation: FAIL" in out


def test_error_verdict_exits_2_in_every_command(tmp_path, monkeypatch,
                                                capsys):
    """An .ir file with an ill-sorted invariant is refused on load, before
    any check runs, naming the findings; a composition checked against an
    ill-sorted property gives an ERROR verdict naming its finding. Both
    exit 2."""
    import re
    from agentconform import compose, ir, irfmt
    from agentconform import expr as E
    text = irfmt.serialize_model(builtin("acp-client"))
    path = tmp_path / "acp-client.ir"
    path.write_text(re.sub(r"invariant: .*", "invariant: nosuch = true",
                           text))
    finding = "invariant `nosuch = true`: unknown name 'nosuch'"
    ids = [p.id for p in builtin("acp-client").properties]
    for argv in (("check", str(path)), ("check", "mcp", str(path)),
                 ("emit-tla", str(path))):
        assert run_cli(*argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith(f"error: {path} fails validation: "), argv
        assert err.count(finding) == len(ids), argv
        for pid in ids:
            assert f"sort-mismatch in {pid}: {finding}" in err, argv
    bad = ir.Property("BAD", "P0", "aasm-hardening", E.parse("nosuch = true"))
    monkeypatch.setattr(compose, "cs_properties", lambda model, pattern: [bad])
    assert run_cli("compose", "tool-delegation") == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith(f": ERROR: sort-mismatch in BAD: {finding}")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdicts.txt"
    run_cli("check", "mcp", "--property", "P8_CredRevocation",
            "--out", str(target))
    assert "FAIL" in target.read_text()
