"""Command line behavior: output, exit codes, cache files, JSON mode."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segredim import TOOL_VERSION
from segredim.cli import _add_common_flags, main
from segredim.formats import parse_statement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_nondefective(self, capsys):
        code, out, _ = run(capsys, "dim", "4,4,7", "12")
        assert code == 0
        assert "191" in out
        assert "NonDefective" in out

    def test_defective_reports_gap(self, capsys):
        code, out, _ = run(capsys, "dim", "2,3,3", "5")
        assert code == 0
        assert "44" in out and "43" in out
        assert "Defective" in out

    def test_matrix_note(self, capsys):
        code, out, _ = run(capsys, "dim", "1,1", "1")
        assert code == 0
        assert "2" in out
        assert "fewer than three effective factors" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "dim", "2,3,3", "5", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "Defective"
        assert rec["lower"] == 44
        assert "note" not in rec

    def test_json_mode_keeps_the_note(self, capsys):
        code, out, _ = run(capsys, "dim", "2,4,4", "7", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "Evidence-Defective"
        assert "r(k-1)/p = 150/1000003" in rec["note"]

    def test_dim_reads_the_record_prove_wrote(self, capsys, tmp_path):
        # rows search under --budget-nodes like prove does, so both key
        # their records by one digest
        cache = tmp_path / "cache.ldjson"
        _, uncached, _ = run(capsys, "dim", "4,4,7", "12", "--json")
        assert run(capsys, "prove", "T(4,4,7;12)", "--cache", str(cache),
                   "--out", str(tmp_path / "c.json"))[0] == 0
        code, out, _ = run(capsys, "dim", "4,4,7", "12", "--json",
                           "--cache", str(cache))
        assert code == 0 and out == uncached
        assert len(cache.read_text().splitlines()) == 1

    def test_bad_format_usage_error(self, capsys):
        code, _, err = run(capsys, "dim", "2;3", "4")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (("dim", "2;3", "4"), "unexpected trailing input at position 1"),
        (("prove", "T(3,3"), "expected ';' at position 5"),
        (("classify", "3,x"), "expected a non-negative integer at position 2"),
    ])
    def test_unparsable_input_is_one_error_line(self, capsys, argv, message):
        # main turns a ParseError from any subcommand into one line, exit 2
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestProve:
    def test_true_writes_certificate(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code, out, _ = run(capsys, "prove", "T(3,3,3;7)", "--out", str(out_file))
        assert code == 0
        assert out.startswith("TRUE T(3,3,3;7")
        doc = json.loads(out_file.read_text())
        assert doc["verdict"] is True

    def test_false_exit_code(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code, out, _ = run(capsys, "prove", "T(2,2,2;4)", "--out", str(out_file))
        assert code == 1
        assert out.startswith("FALSE")
        assert json.loads(out_file.read_text())["verdict"] is False

    def test_undetermined_exit_code(self, capsys, tmp_path):
        code, out, err = run(capsys, "prove", "T(1,2,3;3;0,0,1)",
                             "--out", str(tmp_path / "c.json"))
        assert code == 3
        assert "UNDETERMINED" in out
        assert err == ("undetermined: oracle_deficit\n"
                       "best oracle evidence: rank 22 of target 24 "
                       "(not a proof)\n")

    def test_undetermined_json_keeps_the_evidence(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "T(1,2,3;3;0,0,1)", "--json",
                           "--out", str(tmp_path / "c.json"))
        assert code == 3
        rec = json.loads(out)
        assert rec["verdict"] is None
        assert rec["evidence"] == {"rank": 22, "target": 24}
        assert rec["reason"] == "oracle_deficit"
        # a statement the oracle refuses has no evidence to report
        code, out, _ = run(capsys, "prove", "T(10,10,10;43)", "--json",
                           "--out", str(tmp_path / "c.json"))
        assert code == 3
        rec = json.loads(out)
        assert "evidence" not in rec
        assert rec["reason"] == "oracle_refused"
        # a settled verdict has no reason to give
        code, out, _ = run(capsys, "prove", "T(3,3,3;7)", "--json",
                           "--out", str(tmp_path / "c.json"))
        assert code == 0
        assert "reason" not in json.loads(out)

    # once refused as inadmissible values of --prime; the oracle's primes
    # are fixed now, so no value reaches it
    @pytest.mark.parametrize("prime", ["4294967311", "65521", "1000004", "x",
                                       "4194301"])
    def test_inadmissible_prime_is_a_usage_error(self, capsys, tmp_path, prime):
        # 4294967311 once overflowed the rank kernel: this defective
        # statement came out TRUE
        out_file = tmp_path / "c.json"
        code, out, err = run(capsys, "prove", "T(2,4,4;7)", "--prime", prime,
                             "--out", str(out_file))
        assert code == 2
        assert "TRUE" not in out
        assert f"unrecognized arguments: --prime {prime}" in err
        assert not out_file.exists()

    def test_evidence_is_the_roots_own(self, capsys, tmp_path, monkeypatch):
        # at 15 nodes the search sees its child T(4,2,1;2;0,4,1) fall short
        # (rank 28 of target 30) and runs out of nodes before the root's own
        # oracle runs; that child's evidence was once printed as the root's
        search = importlib.import_module("segredim.induction.search")
        asked = []

        def recording(st, cfg=None, real=search.terracini_oracle, **kw):
            asked.append(st.key())
            return real(st, cfg, **kw)

        monkeypatch.setattr(search, "terracini_oracle", recording)
        root = parse_statement("T(4,4,1;4;2,0,1)")
        out_file = str(tmp_path / "c.json")
        code, out, err = run(capsys, "prove", str(root),
                             "--budget-nodes", "15", "--out", out_file)
        assert code == 3
        assert out.startswith("UNDETERMINED")
        assert err == "undetermined: node_budget\n"
        assert parse_statement("T(4,2,1;2;0,4,1)").key() in asked
        assert root.key() not in asked
        # at 20 nodes the subgoals' oracle cells pass the root's own, so
        # the search stops there and the root's leaf gives its evidence
        for nodes in ("20", "50"):
            code, out, err = run(capsys, "prove", str(root),
                                 "--budget-nodes", nodes, "--out", out_file)
            assert code == 3
            assert err == ("undetermined: cell_budget\n"
                           "best oracle evidence: rank 48 of target 50 "
                           "(not a proof)\n")

    def test_false_two_factor_statement(self, capsys, tmp_path):
        # T(3,3;0;2,2): the two_factor leaf gives 12 of target 16; before
        # that leaf no rule could conclude False here and prove said
        # UNDETERMINED
        cert = tmp_path / "c.json"
        code, out, _ = run(capsys, "prove", "T(3,3;0;2,2)", "--out", str(cert))
        assert code == 1
        assert out == "FALSE T(3,3;0;2,2) two_factor=1\n"
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0
        assert "certificate OK: FALSE" in out

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        cache = tmp_path / "cache.ldjson"
        code, out, err = run(capsys, "prove", "T(2,2,2;3)", "--cache",
                             str(cache), "--out",
                             str(tmp_path / "missing" / "c.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # the cache holds no record of a certificate that was never written
        assert not cache.exists() or cache.read_text() == ""

    def test_conflicting_cache_record_is_a_usage_error(self, capsys,
                                                       tmp_path):
        # a record of the opposite verdict for the same statement and
        # digest used to end in a traceback with exit 1, which reads FALSE
        cache = tmp_path / "cache.ldjson"
        argv = ("prove", "T(3,3,3;7)", "--cache", str(cache),
                "--out", str(tmp_path / "c.json"))
        assert run(capsys, *argv)[0] == 0
        rec = json.loads(cache.read_text())
        rec["verdict"] = False
        cache.write_text(json.dumps(rec) + "\n")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cache conflict for T(3,3,3;7;0,0,0)")
        assert err.count("\n") == 1
        assert len(cache.read_text().splitlines()) == 1

    def test_summary_lists_leaf_kinds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "T(3,3,3;6)",
                           "--out", str(tmp_path / "c.json"))
        assert code == 0
        assert "=" in out  # kind=count summary entries


class TestVerify:
    def test_round_trip_ok(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(4,4,7;12)", "--out", str(cert))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0
        assert "certificate OK: TRUE" in out

    def test_false_certificate_verifies_ok(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(2,3,3;5)", "--out", str(cert))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0
        assert "certificate OK: FALSE" in out

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(3,3,3;6)", "--out", str(cert))
        doc = json.loads(cert.read_text())
        doc["verdict"] = False
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1

    def test_forged_oracle_leaf_fails_without_recheck(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps({
            "version": "cert-v2", "statement": "T(3,3,2;5)", "verdict": True,
            "nodes": [{"kind": "oracle", "statement": "T(3,3,2;5)",
                       "witness": {"prime": 1000003, "seed": 0, "rows": 55,
                                   "cols": 48, "rank": 45, "target": 45}}],
        }))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1
        assert "certificate OK" not in out
        assert "certificate node 0: oracle leaf contradicts the " \
            "table_false leaf" in err

    def test_forged_witness_rank_fails_by_default(self, capsys, tmp_path):
        # T(2,4,4;7) is in no falsity catalog; its true rank is 74 of 75
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps({
            "version": "cert-v2", "statement": "T(4,4,2;7)", "verdict": True,
            "nodes": [{"kind": "oracle", "statement": "T(4,4,2;7)",
                       "witness": {"prime": 1000003, "seed": 0, "rows": 91,
                                   "cols": 75, "rank": 75, "target": 75}}],
        }))
        for extra in ((), ("--recheck",)):
            code, out, err = run(capsys, "verify", str(cert), *extra)
            assert code == 1
            assert "certificate OK" not in out
            assert "oracle re-run gives rank 74" in err

    def test_cert_v1_file_fails(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps({
            "version": "cert-v1", "statement": "T(3,3,2;5)", "verdict": False,
            "node": {"kind": "table_false", "statement": "T(3,3,2;5)",
                     "side_conditions": {"actual_affine_dim": 44},
                     "table_id": "family:2,3,3"},
        }))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1
        assert "certificate OK" not in out
        assert "unsupported certificate version 'cert-v1'" in err

    def test_non_integer_witness_fails(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(3,3,3;6)", "--out", str(cert))
        doc = json.loads(cert.read_text())
        doc["nodes"][0]["witness"]["rank"] += 0.7
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1
        assert "malformed certificate: node 0: bad witness" in err

    def test_negative_drop_slot_fails(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(3,3,3,0,0;4)", "--out", str(cert))
        doc = json.loads(cert.read_text())
        assert doc["nodes"][-1]["side_conditions"] == {"slot": 3}
        doc["nodes"][-1]["side_conditions"]["slot"] = -2
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1
        assert "certificate OK" not in out
        assert f"certificate node {len(doc['nodes']) - 1}: slot -2 out of " \
            "range" in err

    def test_non_utf8_file_fails(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        cert.write_bytes(b"\xff")
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 1
        assert "certificate OK" not in out
        assert err.startswith("verification failed: malformed certificate: ")
        assert "utf-8" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_recheck_flag(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(3,3,3;7)", "--out", str(cert))
        code, out, _ = run(capsys, "verify", str(cert), "--recheck")
        assert code == 0

    def test_only_its_own_flags(self, capsys, tmp_path):
        # verify reads a certificate and nothing else: the search and
        # cache flags it once accepted and ignored are usage errors now
        cert = tmp_path / "c.json"
        run(capsys, "prove", "T(3,3,3;7)", "--out", str(cert))
        for extra in (["--prime", "1000033"], ["--cache", str(tmp_path / "x")],
                      ["--budget-nodes", "1"], ["--force"]):
            code, out, err = run(capsys, "verify", str(cert), *extra)
            assert code == 2, extra
            assert out == "" and extra[0] in err
        assert not (tmp_path / "x").exists()
        code, out, _ = run(capsys, "verify", str(cert), "--recheck", "--json")
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestClassify:
    def test_profile_output(self, capsys):
        code, out, _ = run(capsys, "classify", "2,2,2")
        assert code == 0
        assert "typical rank" in out.lower()
        assert "Defective" in out

    def test_json_profile(self, capsys):
        code, out, _ = run(capsys, "classify", "2,3,3", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        rows = [rec for rec in lines if "s" in rec]
        assert any(rec["s"] == 5 and rec["status"] == "Defective" for rec in rows)
        summary = lines[-1]
        assert summary.get("typical_rank") == 6

    def test_json_rows_keep_their_notes(self, capsys):
        code, out, _ = run(capsys, "classify", "2,4,4", "--json")
        rows = [json.loads(line) for line in out.splitlines()][:-1]
        noted = {rec["s"]: rec["note"] for rec in rows if "note" in rec}
        assert list(noted) == [7]
        assert "r(k-1)/p = 150/1000003" in noted[7]
        assert rows[6]["status"] == "Evidence-Defective"

    def test_family_sweep_reaches_its_typical_rank(self, capsys):
        # the sweep used to stop at the expected fill count plus a margin,
        # below this unbalanced format's typical rank 15: "unknown", exit 3
        code, out, _ = run(capsys, "classify", "14,14")
        assert code == 0
        assert out.splitlines()[-2] == "typical rank: 15 (certified)"

    def test_max_s_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "2,2,2", "--max-s", "2", "--json")
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert max(rec["s"] for rec in rows if "s" in rec) == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_s_below_one_is_a_usage_error(self, capsys, value):
        # these once printed an empty profile and "typical rank: unknown
        # within sweep cap", exit 3
        code, out, err = run(capsys, "classify", "3,3,3", "--max-s", value)
        assert code == 2
        assert out == ""
        assert "argument --max-s" in err

    def test_max_s_of_one_is_accepted(self, capsys):
        code, out, _ = run(capsys, "classify", "3,3,3", "--max-s", "1",
                           "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert [rec["s"] for rec in rows if "s" in rec] == [1]
        assert code == 3   # the typical rank lies past the sweep


class TestScan:
    def test_scan_text(self, capsys):
        code, out, _ = run(capsys, "scan", "--k", "3", "--max-n", "3", "--max-r", "4")
        assert code == 0
        assert "1,1,3" in out.replace(" ", "")

    def test_scan_requires_k_at_least_three(self, capsys):
        code, _, err = run(capsys, "scan", "--k", "2", "--max-n", "3", "--max-r", "3")
        assert code == 2

    def test_cache_that_is_a_directory_is_a_usage_error(self, capsys,
                                                        tmp_path):
        code, out, err = run(capsys, "scan", "--k", "3", "--max-n", "2",
                             "--max-r", "3", "--cache", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scan_json_and_cache_reuse(self, capsys, tmp_path):
        cache = tmp_path / "cache.ldjson"
        args = ("scan", "--k", "3", "--max-n", "3", "--max-r", "4",
                "--cache", str(cache), "--json")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        assert cache.exists() and cache.stat().st_size > 0
        code, out2, _ = run(capsys, *args)
        assert code == 0
        assert out1 == out2

    def test_cache_digest_follows_the_budget(self, capsys, tmp_path):
        # scan rows search under --budget-nodes and key their records by
        # it: a second budget writes a set of its own, a repeat writes none
        cache = tmp_path / "cache.ldjson"
        outs, lines = [], []
        for budget in ("3000", "4000", "4000"):
            code, out, _ = run(capsys, "scan", "--k", "3", "--max-n", "4",
                               "--max-r", "20", "--cache", str(cache),
                               "--budget-nodes", budget)
            assert code == 0
            outs.append(out)
            lines.append(len(cache.read_text().splitlines()))
        assert outs[0] == outs[1] == outs[2]
        assert 0 < lines[0] and lines[1] == lines[2] == 2 * lines[0]


class TestGlobalFlags:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_seed_changes_nothing_semantically(self, capsys):
        _, out_a, _ = run(capsys, "dim", "3,3,3", "6", "--seed", "5")
        _, out_b, _ = run(capsys, "dim", "3,3,3", "6", "--seed", "11")
        assert ("NonDefective" in out_a) and ("NonDefective" in out_b)

    def test_common_flags(self):
        parser = argparse.ArgumentParser(add_help=False)
        _add_common_flags(parser)
        flags = {opt for action in parser._actions
                 for opt in action.option_strings}
        assert flags == {"--seed", "--budget-nodes", "--cache", "--json",
                         "--force"}

    @pytest.mark.parametrize("flag,value", [("--prime", "1000033"),
                                            ("--retries", "2")])
    def test_plan_flags_are_gone(self, capsys, flag, value):
        # the oracle's attempt plan is fixed (ffrank.PLAN)
        code, out, err = run(capsys, "dim", "2,4,4", "7", flag, value)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("flag", ["--budget-nodes"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_counts_below_one_are_usage_errors(self, capsys, tmp_path,
                                               flag, value):
        # --budget-nodes 0 used to end in UNDETERMINED with exit 3
        out_file = tmp_path / "c.json"
        code, out, err = run(capsys, "prove", "T(3,3,3;7)", flag, value,
                             "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert f"argument {flag}" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--budget-nodes"])
    def test_count_of_one_is_accepted(self, capsys, tmp_path, flag):
        code, out, _ = run(capsys, "prove", "T(2,2,2;3)", flag, "1",
                           "--out", str(tmp_path / "c.json"))
        # one node suffices for a base-format oracle leaf
        assert code == 0
        assert out.startswith("TRUE T(2,2,2;3;0,0,0) oracle=1")

    def test_budget_cols_is_gone(self, capsys):
        # the oracle's one budget is its cell cap; --force overrides it
        code, _, err = run(capsys, "dim", "3,3,3", "6", "--budget-cols", "4096")
        assert code == 2
        assert "--budget-cols" in err


def test_package_version_is_the_tool_version():
    # pyproject.toml and segredim.TOOL_VERSION are kept in step by hand; the
    # tool version keys every cache record and is what --version prints
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == TOOL_VERSION


def test_python_dash_m_runs_the_cli():
    # `python -m segredim` from a checkout, with only src on the path
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "segredim", "dim", "2,3,3", "5", "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lower"] == 44
