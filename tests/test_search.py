"""Proof search: verdicts, certificates, budgets, and memo behavior."""

import ast
import hashlib
import importlib
from collections import Counter
from pathlib import Path

import pytest

from segredim import RunConfig
from segredim.classify import ScanReport, defective_scan, resolve_secant
from segredim.ffrank import (DEFAULT_PRIME, FALLBACK_PRIME, PLAN,
                             OracleBudgetError, terracini_oracle)
from segredim.formats import Statement, parse_statement
from segredim.induction import ProofEngine, prove
from segredim.induction import certificate as cert
from segredim.induction.verify import verify

# Statements that must come back True with small certificates: no oracle
# or base-table leaf wider than 64 columns.
SMALL_CERT_TRUE = [
    "T(3,3,3;6)",
    "T(3,3,3;7)",
    "T(5,5,5;13)",
    "T(5,5,5;14)",
    "T(4,4,7;12)",
    "T(4,4,7;13)",
]


class TestTrueProofs:
    @pytest.mark.parametrize("text", SMALL_CERT_TRUE)
    def test_small_certificate_true(self, text):
        v = prove(text)
        assert v.status is True
        assert verify(v.certificate) is True
        assert v.certificate.max_oracle_cols() <= 64

    def test_trivial_statements(self):
        for text, why in [("T(3,3,3;0)", "empty"), ("T(2,3,4;1)", "one_tangent"),
                          ("T(1,4,2;0;0,2,0)", "one_fiber_factor")]:
            v = prove(text)
            assert v.status is True, text
            assert v.certificate.root.kind == "trivial"
            assert v.certificate.root.reason == why
        # below three positive factors the exact two_factor leaf decides
        for text in ["T(7;40)", "T(2,5;1)", "T(1,4;0;0,2)"]:
            v = prove(text)
            assert v.status is True, text
            assert v.certificate.root.kind == "two_factor"

    def test_drop_zero_factor_route(self):
        v = prove("T(0,3,3,3;7)")
        assert v.status is True
        assert "drop_zero_factor" in v.certificate.leaf_counts() or any(
            n.kind == "drop_zero_factor" for n in v.certificate.nodes
        )

    def test_super_split_route(self):
        v = prove("T(0,2,3,3;5;4,0,0,0)")
        assert v.status is True
        assert verify(v.certificate)


class TestFalseProofs:
    @pytest.mark.parametrize(
        "text,table_id",
        [
            ("T(2,3,3;5)", "family:2,3,3"),
            ("T(1,1,2,2;5)", "family:1,1,n,n"),
            ("T(2,2,2;4)", "small:2,2,2"),
            ("T(1,1,3;3)", None),
        ],
    )
    def test_catalog_falsity(self, text, table_id):
        v = prove(text)
        assert v.status is False
        assert verify(v.certificate) is True
        if table_id is not None:
            assert v.certificate.root.table_id == table_id

    def test_unbalanced_false(self):
        # dims (1,1,9): all-but-largest product 4, bound B = 2, so
        # s in (2, 4) is deficient; s = 3 sits inside.
        v = prove("T(1,1,9;3)")
        assert v.status is False
        assert v.certificate.root.kind == "unbalanced_false"

    def test_false_through_drop_conditions(self):
        # Point factor with conditions on a subabundant statement: falsity
        # of the reduced form lifts back through the equivalence.  The same
        # shape with enough extra conditions turns superabundant and True,
        # so both directions get exercised.
        w = prove("T(0,2,3,3;5;2,0,0,0)")
        assert w.status is False
        assert verify(w.certificate) is True
        v = prove("T(0,2,3,3;5;4,0,0,0)")
        assert v.status is True


class TestUndetermined:
    def test_honest_undetermined(self):
        # Superabundant with an oracle deficit but outside every falsity
        # source: the tool must refuse to guess.
        v = prove("T(1,2,3;3;0,0,1)")
        assert v.status is None
        assert v.certificate is None
        assert v.evidence is not None

    def test_budget_exhaustion(self):
        engine = ProofEngine(RunConfig(budget_nodes=2))
        v = engine.prove("T(3,3,3;6)")
        assert v.status is None
        assert v.stats["exhausted"]


    @pytest.mark.parametrize("text,nodes,reason", [
        ("T(3,3,3;6)", 2, "node_budget"),
        ("T(10,10,2;16)", None, "cell_budget"),
        ("T(10,10,10;43)", None, "oracle_refused"),
        ("T(1,2,3;3;0,0,1)", None, "oracle_deficit"),
        # the drop's child is refused; the root's own oracle never runs
        ("T(0,10,10,10;43)", None, "no_rule"),
    ])
    def test_reason(self, text, nodes, reason):
        cfg = RunConfig() if nodes is None else RunConfig(budget_nodes=nodes)
        v = ProofEngine(cfg).prove(text)
        assert (v.status, v.reason) == (None, reason)
        assert (v.evidence is not None) == (reason in ("cell_budget",
                                                       "oracle_deficit"))

    def test_settled_verdicts_have_no_reason(self):
        assert prove("T(3,3,3;6)").reason is None
        assert prove("T(2,3,3;5)").reason is None

    def test_engine_takes_its_budget_from_the_config(self):
        v = ProofEngine(RunConfig(budget_nodes=2)).prove("T(3,3,3;6)")
        assert v.status is None
        assert v.stats["exhausted"]
        assert v.stats["nodes"] == 3  # the third node is refused
        # without a budget the same statement is proven
        assert ProofEngine(RunConfig()).prove("T(3,3,3;6)").status is True

    BAD_SETTINGS = [("budget_nodes", v) for v in (0, -5, True, 2.0, "10", None)] + [
        # a string seed drew seed 7's points under another cache digest
        ("seed", "7"), ("seed", False),
        ("force", "no"), ("force", 1),  # "no" turned forcing on
        # fields of the attempt plan, fixed now (ffrank.PLAN): once values
        # refused by their checks, now refused as unknown keywords
        ("retries", 2.0), ("retries", True), ("retries", 0),
        ("prime", 5), ("prime", 1_000_003.0), ("prime", 1_000_001),
        ("prime", FALLBACK_PRIME),
    ]

    @pytest.mark.parametrize("field,value", BAD_SETTINGS, ids=[
        str(v) if f == "budget_nodes" else f"{f}={v!r}" for f, v in BAD_SETTINGS])
    def test_budget_below_one_or_not_an_int_is_rejected(self, field, value):
        # a budget of 0 or -5 used to be accepted, and every search ended at
        # once with reason node_budget; each setting fails where it is built
        error = TypeError if field in ("prime", "retries") else ValueError
        with pytest.raises(error, match=field):
            RunConfig(**{field: value})
        assert RunConfig(budget_nodes=1).budget_nodes == 1


class TestEngineState:
    def test_memo_reuse(self):
        engine = ProofEngine(RunConfig())
        v1 = engine.prove("T(3,3,3;6)")
        n1 = v1.stats["nodes"]
        v2 = engine.prove("T(3,3,3;6)")
        assert v2.status is True
        assert v2.stats["nodes"] == 0
        assert v2.stats["memo_hits"] >= 1
        assert n1 > 0

    def test_permuted_statement_shares_memo(self):
        engine = ProofEngine(RunConfig())
        engine.prove("T(4,4,7;12)")
        v = engine.prove("T(7,4,4;12)")
        assert v.status is True
        assert v.stats["nodes"] == 0

    def test_string_and_object_inputs_agree(self):
        st = Statement.of((3, 3, 3), 6)
        assert prove(st).status is prove("T(3,3,3;6)").status

    def test_certificate_statement_matches_input_canonical(self):
        v = prove("T(4,7,4;12)")
        assert v.certificate.statement == parse_statement("T(4,7,4;12)")


def count_oracle_calls(monkeypatch) -> Counter:
    """Count terracini_oracle calls per statement, through the
    name ProofEngine.oracle, its one caller, calls it by."""
    calls: Counter = Counter()
    search = importlib.import_module("segredim.induction.search")

    def counting(st, cfg=None, real=search.terracini_oracle, **kw):
        calls[st.key()] += 1
        return real(st, cfg, **kw)

    monkeypatch.setattr(search, "terracini_oracle", counting)
    return calls


def record_attempts(monkeypatch) -> list:
    """Record (key, prime, seed) of every oracle attempt, in the
    order run: each attempt draws its points once."""
    attempts: list = []
    ffrank = importlib.import_module("segredim.ffrank")
    real = ffrank.sample_points

    def sampling(st, prime, seed):
        attempts.append((st.key(), prime, seed))
        return real(st, prime, seed)

    monkeypatch.setattr(ffrank, "sample_points", sampling)
    return attempts


class TestOracleDoor:
    """ProofEngine.oracle runs each statement once: a search's
    subgoals the first attempt of the plan, a root the whole plan, rerun
    from attempt 0 when only a subgoal's attempt was kept."""

    def test_outcome_is_remembered_for_the_engine(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        engine = ProofEngine()
        first = engine.oracle(parse_statement("T(2,2,3;4)"))
        assert first.certified
        assert engine.oracle(parse_statement("T(3,2,2;4)")) is first
        assert engine.prove("T(2,3,2;4)").status is True
        assert calls[first.witness.statement.key()] == 1
        assert set(calls.values()) == {1}

    def test_refusal_is_remembered(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        engine = ProofEngine()
        refused = engine.oracle(parse_statement("T(10,10,10;43)"))
        assert isinstance(refused, OracleBudgetError)
        assert "matrix 1419x1331 exceeds 200000 cells" in str(refused)
        assert engine.oracle(parse_statement("T(10,10,10;43)")) is refused
        assert engine.prove("T(10,10,10;43)").status is None
        assert calls[parse_statement("T(10,10,10;43)").key()] == 1
        assert set(calls.values()) == {1}

    def test_base_format_statement_runs_once(self, monkeypatch):
        # the base-format step and the last leaf ask about the same
        # inconclusive statement; the second ask is answered from the memo
        calls = count_oracle_calls(monkeypatch)
        v = prove("T(1,1,2;0;0,2,3)")
        assert v.status is None and not v.evidence.certified
        # the root is the only oracle call: its splits' children have two
        # positive factors, which the two_factor leaf settles
        assert calls == Counter({parse_statement("T(1,1,2;0;0,2,3)").key(): 1})

    def test_a_measured_row_asks_the_engine_once(self, monkeypatch):
        # a catalog-defective row whose dimension the oracle measures
        calls = count_oracle_calls(monkeypatch)
        engine = ProofEngine()
        row = resolve_secant((2, 2, 2), 4, engine)
        assert resolve_secant((2, 2, 2), 4, engine) == row
        assert sum(calls.values()) == 1
        assert row == resolve_secant((2, 2, 2), 4, ProofEngine())
        assert (row.status, row.lower) == ("Defective", 26)

    def test_settle_reuses_the_search_outcome(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        row = resolve_secant((2, 4, 4), 7)
        assert (row.status, row.lower, row.source) == (
            "Evidence-Defective", 74, "oracle")
        assert calls[parse_statement("T(2,4,4;7)").key()] == 1
        assert set(calls.values()) == {1}

    def test_scan_asks_each_statement_once(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        report = defective_scan(3, 5, 30)
        assert isinstance(report, ScanReport) and report.hits
        assert sum(calls.values()) == len(calls) > 0

    # the search's child T(4,2,1;2;0,4,1) reads rank 28 of target 30, and
    # the root stops at its cell budget with rank 48 of target 50
    ROOT, CHILD = "T(4,4,1;4;2,0,1)", "T(4,2,1;2;0,4,1)"

    def test_a_subgoal_runs_one_attempt(self, monkeypatch):
        attempts = record_attempts(monkeypatch)
        root, child = parse_statement(self.ROOT), parse_statement(self.CHILD)
        engine = ProofEngine()
        v = engine.prove(root)
        assert (v.status, v.reason) == (None, "cell_budget")
        runs = Counter(key for key, _, _ in attempts)
        assert runs.pop(root.key()) == 2
        assert runs[child.key()] == 1 and len(runs) > 1
        assert set(runs.values()) == {1}
        assert all(prime == DEFAULT_PRIME for key, prime, _ in attempts
                   if key != root.key())

    def test_a_subgoal_later_proved_as_a_root_gets_the_whole_plan(
            self, monkeypatch):
        attempts = record_attempts(monkeypatch)
        child = parse_statement(self.CHILD)
        engine = ProofEngine()
        engine.prove(self.ROOT)
        v = engine.prove(child)
        ran = [a for a in attempts if a[0] == child.key()]
        # the subgoal's attempt 0, then the whole plan again from attempt 0
        assert len(ran) == 3 and ran[0] == ran[1]
        assert [prime for _, prime, _ in ran[1:]] == [DEFAULT_PRIME, FALLBACK_PRIME]
        assert (v.status, v.reason) == (None, "oracle_deficit")
        fresh = ProofEngine().prove(child)
        assert v.evidence == fresh.evidence == terracini_oracle(child)
        assert len(v.evidence.attempts) == 2 and v.evidence.witness.rank == 28
        # outside a search a kept result is whole, and asked again runs nothing
        n = len(attempts)
        assert engine.oracle(child) is v.evidence
        assert len(attempts) == n

    def test_a_root_gets_the_whole_plan(self, monkeypatch):
        # the (2,n,n) row at s = 3n/2 + 1: every split child is deficient
        # too, and the row is Evidence-Defective on the root's own evidence
        attempts = record_attempts(monkeypatch)
        root = parse_statement("T(4,4,2;7)")
        whole = terracini_oracle(root)
        n = len(attempts)
        v = ProofEngine().prove(root)
        assert v.evidence == whole
        assert [w.prime for w in whole.attempts] == [DEFAULT_PRIME, FALLBACK_PRIME]
        assert whole.witness.rank == 74 and v.evidence.note == whole.note
        assert "r(k-1)/p = 150/1000003" in whole.note
        assert [a[1] for a in attempts[n:] if a[0] == root.key()] == [
            DEFAULT_PRIME, FALLBACK_PRIME]
        row = resolve_secant((2, 4, 4), 7)
        assert (row.status, row.lower, row.note) == (
            "Evidence-Defective", 74, whole.note)

    def test_scan_runs_the_fallback_prime_only_at_roots(self, monkeypatch):
        attempts = record_attempts(monkeypatch)
        roots = set()
        real = ProofEngine.prove

        def proving(engine, st):
            roots.add(st.key())
            return real(engine, st)

        monkeypatch.setattr(ProofEngine, "prove", proving)
        defective_scan(3, 5, 30)
        assert len(set(attempts)) == len(attempts) == 77
        # T(4,4,2;7) is a root that reads deficient; T(2,2,2;4) is a
        # catalog-defective row whose dimension the oracle measures
        measured = "T(2,2,2;4;0,0,0)"
        assert sorted(key for key, prime, _ in attempts
                      if prime == FALLBACK_PRIME) == [measured, "T(4,4,2;7;0,0,0)"]
        runs = Counter(key for key, _, _ in attempts)
        assert all(n == 1 for key, n in runs.items()
                   if key not in roots | {measured})


def record_oracle_cells(monkeypatch) -> dict:
    """Record, per statement, the cells the cell budget charges
    for its oracle result: rows x cols x the attempts it ran when it
    certified, x the whole plan when it did not.  Refusals record nothing."""
    cells: dict = {}
    search = importlib.import_module("segredim.induction.search")

    def recording(st, cfg=None, real=search.terracini_oracle, **kw):
        result = real(st, cfg, **kw)
        w = result.witness
        runs = len(result.attempts) if result.certified else len(PLAN)
        cells[st.key()] = w.rows * w.cols * runs
        return result

    monkeypatch.setattr(search, "terracini_oracle", recording)
    return cells


class TestCellBudget:
    """A search spends on its subgoals' oracle calls about what the root's
    own call costs; past that the root's oracle leaf decides."""

    def test_defective_family_stops_at_the_roots_leaf(self, monkeypatch):
        # (2,n,n) with n even: every split child is rank-deficient too, and
        # the search once made 60 oracle calls for the root's own evidence
        calls = count_oracle_calls(monkeypatch)
        cells = record_oracle_cells(monkeypatch)
        root = parse_statement("T(10,10,2;16)")
        engine = ProofEngine()
        v = engine.prove(root)
        assert v.status is None and not v.stats["exhausted"]
        w = v.evidence.witness
        assert (w.statement, w.rank, w.target) == (root, 362, 363)
        assert calls[root.key()] == 1
        assert sum(calls.values()) < 60
        # the budget is what the root's inconclusive call costs
        assert cells[root.key()] == engine.cell_budget(root) == 400 * 363 * 2

    def test_certified_root_leaf_is_the_certificate(self):
        engine = ProofEngine()
        v = engine.prove("T(10,4,3;12)")
        assert v.status is True
        assert len(v.certificate.nodes) == 1
        assert v.certificate.root.kind == cert.ORACLE
        assert verify(v.certificate) is True
        # remembered like any proof the search finds
        again = engine.prove("T(3,4,10;12)")
        assert again.stats["nodes"] == 0
        assert again.certificate.root is v.certificate.root

    @pytest.mark.parametrize("text", ["T(10,10,2;16)", "T(10,4,3;12)",
                                      "T(5,3,1;5;2,0,0)",
                                      "T(8,3,1,0;6;0,0,0,3)"])
    def test_spend_stays_within_one_call_of_the_budget(self, text, monkeypatch):
        cells = record_oracle_cells(monkeypatch)
        engine = ProofEngine()
        root = parse_statement(text)
        budget = engine.cell_budget(root)
        engine.prove(root)
        spent = [c for key, c in cells.items() if key != root.key()]
        assert sum(spent) > budget          # the budget is what stopped it
        assert sum(spent) <= budget + max(spent)

    def test_a_statement_consulted_twice_is_charged_once(self):
        # small base-format subgoals are asked at the base-format step and
        # again as the last leaf; charged twice, the spend would pass the
        # budget after 31 nodes instead of 50
        engine = ProofEngine()
        asked = Counter()
        real = engine.oracle

        def counting(st):
            asked[st.key()] += 1
            return real(st)

        engine.oracle = counting
        root = parse_statement("T(5,3,1;5;2,0,0)")
        v = engine.prove(root)
        assert max(c for key, c in asked.items() if key != root.key()) == 2
        assert v.status is None and v.evidence.witness.rank == 47
        assert v.stats["nodes"] == 50

    def test_remembered_outcomes_are_charged_too(self, monkeypatch):
        # the second search finds its subgoals' outcomes remembered; they
        # still spend its budget, so it stops where the first one did
        # instead of searching past it and running new statements
        calls = count_oracle_calls(monkeypatch)
        engine = ProofEngine()
        first = engine.prove("T(10,10,2;16)")
        n = sum(calls.values())
        again = engine.prove("T(10,10,2;16)")
        assert sum(calls.values()) == n
        assert again.stats["nodes"] <= first.stats["nodes"]
        assert again.evidence is first.evidence

    def test_refused_root_has_no_budget(self):
        root = parse_statement("T(10,10,10;43)")
        assert ProofEngine().cell_budget(root) is None
        forced = ProofEngine(RunConfig(force=True))
        assert forced.cell_budget(root) == 1419 * 1331 * len(PLAN)
        assert ProofEngine().cell_budget(
            parse_statement("T(10,10,2;16)")) == 400 * 363 * len(PLAN)

    def test_flagship_certificate_bytes_are_unchanged(self):
        # its root is refused, so its search has no cell budget
        root = parse_statement("T(15,15,15,15;1074)")
        assert ProofEngine().cell_budget(root) is None
        text = prove(root).certificate.dumps()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f54505d90cc21c8888e24c1387ca2340d4ea08c968519bc29f7e02e7d86aae08")


# one statement per node kind; together their certificates use them all
EVERY_KIND = {
    "T(1,1,4;3)": {"unbalanced_false"},
    "T(2,2,1;1;3,0,1)": {"table_false"},
    "T(4,2,1,0;1;3,0,0,3)": {"fibration_false", "drop_conditions",
                             "drop_zero_factor"},
    "T(4,3,3,0;1;0,3,2,2)": {"drop_conditions", "drop_zero_factor",
                             "oracle", "sub_split", "trivial"},
    "T(3,3,3;7)": {"equi_split", "oracle", "super_split"},
    "T(0,3,3;4;2,0,0)": {"two_factor"},
}


def test_search_emits_every_kind():
    # a kind the search can no longer reach is dead weight in the format
    # and the verifier; this fails until it is deleted
    emitted = set()
    for text, kinds in EVERY_KIND.items():
        v = prove(text)
        assert verify(v.certificate)
        found = {n.kind for n in v.certificate.nodes}
        assert kinds <= found, text
        emitted |= found
    assert emitted == cert.ALL_KINDS


def test_verify_submodule_is_the_module():
    import segredim
    import segredim.induction.verify as V
    assert callable(V.recompute_rank)
    assert V.verify is segredim.verify



SRC = Path(__file__).resolve().parent.parent / "src" / "segredim"


def _users(name: str) -> set:
    """(module, enclosing def) of every use of `name` in the package's code,
    a call or any other read, imports left out."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif ((isinstance(child, ast.Name) and child.id == name)
                  or (isinstance(child, ast.Attribute) and child.attr == name)):
                found.add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in SRC.rglob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def test_each_rank_has_one_door():
    # a rank is computed through ProofEngine.oracle and checked through
    # recompute_rank; any other caller would be a second way to a verdict
    assert _users("terracini_oracle") == {("search", "ProofEngine.oracle")}
    assert _users("recompute_rank") == {("ffrank", "terracini_oracle"),
                                        ("verify", "_witness_checks")}
