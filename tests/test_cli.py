"""Command-line surface: subcommands, exit codes, file output."""

import json

import pytest

from agentconform import cli, tla
from agentconform.builtins import builtin
from agentconform import checker
from agentconform.replay import A2aMock


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
                                  "agents=-1"])
def test_check_rejects_degenerate_bounds(spec, capsys):
    rc = run_cli("check", "mcp", "--property", "P8_CredRevocation",
                 "--bounds", spec)
    assert rc == 2
    key = spec.partition("=")[0]
    assert f"bounds value for {key!r} must be at least 1" in \
        capsys.readouterr().err


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
    (tmp_path / "m.ir").write_text(irfmt.serialize_model(builtin("a2a")))
    assert run_cli("report", "--models-dir", str(tmp_path),
                   "--bounds", "sessions=1") == 2
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
    res = checker.check(model, model.property_by_id("P8_CredRevocation"))
    log = tmp_path / "run.log"
    log.write_text(tla.format_tlc_log(model, res))
    assert run_cli("parse-tlc", str(log)) == 1
    passing = checker.check(model,
                            model.property_by_id("P1_IdentityVerifiability"))
    log.write_text(tla.format_tlc_log(model, passing))
    assert run_cli("parse-tlc", str(log)) == 0
    log.write_text("garbage\n")
    assert run_cli("parse-tlc", str(log)) == 2


def test_compose_pattern(capsys):
    rc = run_cli("compose", "tool-delegation")
    out = capsys.readouterr().out
    assert rc == 1
    assert "CS_NoLeakage: FAIL" in out
    assert run_cli("compose", "nosuch") == 2


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


def test_replay_against_endpoint(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run_cli("check", "a2a", "--property", "P3_DelegationMonotonicity",
            "--counterexample-out", str(cx_path))
    capsys.readouterr()
    with A2aMock("vulnerable") as mock:
        host, port = mock.address
        rc = run_cli("replay", str(cx_path), "--profile", "vulnerable",
                     "--endpoint", f"http://{host}:{port}")
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert (report["mode"], report["outcome"]) == ("live", "VIOLATED")


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
    rc = run_cli("replay", str(cx_path), "--profile", "vulnerable",
                 "--endpoint", url)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_matrix_over_models_dir(tmp_path, capsys):
    from agentconform import irfmt
    (tmp_path / "m.ir").write_text(irfmt.serialize_model(builtin("mcp")))
    rc = run_cli("report", "--models-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert rc == 1
    assert "mcp P8_CredRevocation: FAIL" in out


def test_error_verdict_exits_2_in_every_command(tmp_path, monkeypatch,
                                                capsys):
    import re
    from agentconform import compose, ir, irfmt
    from agentconform import expr as E
    text = irfmt.serialize_model(builtin("acp-client"))
    path = tmp_path / "acp-client.ir"
    path.write_text(re.sub(r"invariant: .*", "invariant: nosuch = true",
                           text))
    bad = ir.Property("BAD", "P0", "aasm-hardening", E.parse("nosuch = true"))
    monkeypatch.setattr(compose, "cs_properties", lambda model, pattern: [bad])
    for argv, count in [(("check", str(path)), 3),
                        (("report", "--models-dir", str(tmp_path)), 3),
                        (("compose", "tool-delegation"), 1)]:
        assert run_cli(*argv) == 2, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == count, argv
        assert all(line.endswith(": ERROR: unbound symbol 'nosuch'")
                   for line in lines), argv


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdicts.txt"
    run_cli("check", "mcp", "--property", "P8_CredRevocation",
            "--out", str(target))
    assert "FAIL" in target.read_text()
