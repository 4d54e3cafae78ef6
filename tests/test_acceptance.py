"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line on the terminal (bypassing capture)
so a full run shows the per-criterion outcome at a glance.
"""

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from agentconform import checker, compose, ir, report, tla
from agentconform.builtins import builtin, builtin_clauses, aps_table
from agentconform.replay import generate_tests, run as replay_run

from _oracle import oracle_check
from test_checker import RANDOM_BOUNDS, agreement_run, random_model

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {label}")


def test_acceptance_1_p8_gap_reproduction(capsys):
    with criterion(capsys, 1, "P8 gap reproduced at depth 2 in under 1s"):
        model = builtin("mcp")
        prop = model.property_by_id("P8_CredRevocation")
        t0 = time.monotonic()
        res = checker.check(model, prop)
        elapsed = time.monotonic() - t0
        assert res.verdict == "FAIL"
        assert res.counterexample.depth == 2
        steps = [s.transition_id for s in res.counterexample.steps]
        assert steps == ["OpenSession", "CloseSession"]
        verdict, depth = oracle_check(model, prop)
        assert (verdict, depth) == ("FAIL", 2), "oracle found shorter"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_2_p3_adversary_attribution(capsys):
    with criterion(capsys, 2, "delegation violation needs an ADV-3 step"):
        model = builtin("a2a")
        prop = model.property_by_id("P3_DelegationMonotonicity")
        res = checker.check(model, prop)
        assert res.verdict == "FAIL"
        adv_steps = [
            s for s in res.counterexample.steps
            if model.transition(s.transition_id).kind == "Adversary"]
        assert adv_steps
        assert all(model.transition(s.transition_id).adv == "ADV-3"
                   for s in adv_steps)
        honest = dataclasses.replace(
            model, transitions=tuple(t for t in model.transitions
                                     if t.kind != "Adversary"))
        assert checker.check(honest, prop).verdict == "PASS"


def test_acceptance_3_matrix_aggregate(capsys, bundled_run):
    with criterion(capsys, 3, "bundled matrix has 33 spec-level "
                              "violations and matches the golden file"):
        matrix, elapsed = bundled_run
        assert len(matrix.cells) == 55
        assert matrix.spec_level_count == 33
        assert report.render(matrix, "table") == \
            (GOLDEN / "matrix.txt").read_text()
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_acceptance_4_composition_totals(capsys, composition_runs):
    with criterion(capsys, 4, "21 composition invariants: 20 FAIL, 1 PASS"):
        flat = {(pattern, pid): res.verdict
                for pattern, (_, _, results) in composition_runs.items()
                for pid, res in results.items()}
        assert len(flat) == 21
        fails = {k for k, v in flat.items() if v == "FAIL"}
        passes = {k for k, v in flat.items() if v == "PASS"}
        assert len(fails) == 20
        assert passes == {("federated-delegation", "CS_DomainIsolation")}
        chained = composition_runs["chained-servers"][2]
        assert len(chained) == 5
        assert all(r.verdict == "FAIL" for r in chained.values())


def test_acceptance_5_aps_table(capsys):
    with criterion(capsys, 5, "protocol stack completeness table"):
        grid = {(c.layer, c.protocol): c.status for c in aps_table()}
        expected_l2 = {"mcp": "SPEC_GAP", "a2a": "SPECIFIED",
                       "anp": "UNDERCONSTRAINED", "acp-cap": "SPECIFIED"}
        for proto in ("mcp", "a2a", "anp", "acp-cap"):
            assert grid[("L1", proto)] == "SPECIFIED"
            assert grid[("L2", proto)] == expected_l2[proto]
            for layer in ("L3", "L4", "L5", "L6"):
                want = "UNDERCONSTRAINED" if proto == "anp" else "SPEC_GAP"
                assert grid[(layer, proto)] == want


def test_acceptance_6_checker_oracle_equivalence(capsys):
    with criterion(capsys, 6, "checker agrees with brute-force oracle on "
                              "500 random models, deterministically"):
        assert agreement_run(500) == []
        import random
        rng = random.Random(7)
        for i in range(10):
            model = random_model(rng, i)
            prop = model.properties[0]
            base = checker.check(model, prop, RANDOM_BOUNDS)
            for _ in range(2):
                assert checker.check(model, prop, RANDOM_BOUNDS) == base


def test_acceptance_7_phase2_discrimination(capsys):
    with criterion(capsys, 7, "replay tests discriminate the two mock "
                              "profiles reproducibly"):
        cxs = []
        for name in ("mcp", "a2a"):
            model = builtin(name)
            for prop in model.properties:
                res = checker.check(model, prop)
                if res.failed:
                    cxs.append(res.counterexample)
        tests, _ = generate_tests(cxs)
        assert tests
        for test in tests:
            vuln = replay_run(test, "vulnerable")
            hard = replay_run(test, "hardened")
            assert vuln.outcome == "VIOLATED", test.id
            assert hard.outcome == "UPHELD", test.id
            assert replay_run(test, "vulnerable").to_json() == \
                vuln.to_json(), test.id


def test_acceptance_8_emission_fidelity(capsys):
    with criterion(capsys, 8, "TLA+ emission fidelity and TLC log interop"):
        module = tla.emit_module(builtin("a2a"))
        assert ("delegation[ag1][ag2] \\subseteq original_caps[ag1]"
                in " ".join(module.split()))
        for path in sorted(FIXTURES.glob("*.log")):
            name, pid = path.stem.split("_", 1)
            model = builtin(name)
            parse = tla.parse_tlc_output(path.read_text())
            expected = checker.check(model, model.property_by_id(pid))
            assert tla.to_check_result(parse, model).verdict == \
                expected.verdict, path.name
            if expected.failed:
                cx = tla.to_counterexample(parse, model)
                assert checker.validate_trace(model, cx), path.name


def test_acceptance_9_clause_asset_integrity(capsys):
    with criterion(capsys, 9, "37 clauses from 8 documents cover every "
                              "protocol transition"):
        clauses = builtin_clauses("mcp")
        assert len(clauses) == 37
        assert len({c.source.document for c in clauses}) == 8
        cov = ir.coverage(builtin("mcp"), clauses)
        assert cov.all_resolved
