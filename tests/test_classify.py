"""Secant profiles, typical ranks, power-format windows, and the scanner."""

import dataclasses
import hashlib
import json

import pytest

from segredim import classify
from segredim.cache import VerdictCache
from segredim.classify import (
    CatalogConsistencyError,
    defective_scan,
    perfect_check,
    resolve_secant,
    secant_profile,
    tensor_power_bounds,
    typical_rank,
)
from segredim.config import RunConfig
from segredim.formats import Format, Statement, ambient_dim, expected_secant_dim
from segredim.induction import Certificate, CertNode, ProofEngine
from segredim.induction import certificate as cert
from segredim.induction import rules
from segredim.induction.rules import FalsityReason
from segredim.induction.verify import verify


@pytest.fixture(scope="module")
def engine():
    # One shared engine so the memo carries across tests in this module.
    return ProofEngine()


class TestResolveSecant:
    def test_nondefective_row(self, engine):
        row = resolve_secant((3, 3, 3), 6, engine=engine)
        assert row.status == "NonDefective"
        assert row.lower == row.upper == expected_secant_dim((3, 3, 3), 6)[0]
        assert row.defect == 0

    def test_defective_row_exact(self, engine):
        row = resolve_secant((2, 3, 3), 5, engine=engine)
        assert row.status == "Defective"
        assert row.expected == 45
        assert row.lower == row.upper == 44
        assert row.defect == 1

    def test_matrix_case_uses_catalog(self, engine):
        # Two factors fall to the unbalanced rules; rank 2 of 3x4 matrices
        # is a deficient chord variety of dimension d(rows + cols - d) = 10.
        row = resolve_secant((2, 3), 2, engine=engine)
        assert row.status == "Defective"
        assert row.lower == row.upper == 10
        assert row.defect == 2

    def test_single_factor(self, engine):
        row = resolve_secant((9,), 3, engine=engine)
        assert row.status == "NonDefective"
        assert row.upper == 10

    def test_oracle_fallback_row_has_a_certificate(self):
        # one search node does not settle T(3,3,3;5); the fallback oracle
        # does, and its one-node certificate verifies
        engine = ProofEngine(RunConfig(budget_nodes=1))
        row = resolve_secant((3, 3, 3), 5, engine)
        assert (row.status, row.source) == ("NonDefective", "oracle")
        assert row.proof.kind == cert.ORACLE
        assert row.cert_ref == row.proof.digest[:12]
        st = Statement.of((3, 3, 3), 5).canonical()
        assert verify(Certificate(st, True, row.proof).dumps())
        pc = perfect_check((2, 2, 4), engine)
        assert (pc.status, pc.source) == ("Perfect", "oracle")
        assert pc.cert_ref is not None

    # a falsity claim on the true T(3,3,3;5), whose oracle certifies rank 50
    FORGED = Statement.of((3, 3, 3), 5)

    def forge(self, monkeypatch, module):
        real = module.known_false
        monkeypatch.setattr(module, "known_false", lambda st: (
            FalsityReason(cert.TABLE_FALSE, "forged")
            if st.key() == self.FORGED.key() else real(st)))

    def test_measured_rank_refutes_a_catalog_falsity_row(self, monkeypatch):
        monkeypatch.setattr(classify, "SMALL_FORMAT_DIMS",
                            classify.SMALL_FORMAT_DIMS | {(3, 3, 3)})
        self.forge(monkeypatch, classify)
        with pytest.raises(CatalogConsistencyError,
                           match="rank 50, above the upper bound 49 that "
                                 "catalog:small-format claims"):
            resolve_secant((3, 3, 3), 5, ProofEngine())

    def test_measured_rank_refutes_a_false_certificate(self, monkeypatch):
        self.forge(monkeypatch, rules)
        with pytest.raises(CatalogConsistencyError,
                           match="rank 50, above the upper bound 49 that "
                                 "induction claims"):
            resolve_secant((3, 3, 3), 5, ProofEngine())


class TestProfiles:
    def test_233_profile(self, engine):
        prof = secant_profile((2, 3, 3), engine=engine)
        by_s = {row.s: row for row in prof.rows}
        assert by_s[5].status == "Defective" and by_s[5].lower == 44
        assert all(by_s[s].status == "NonDefective" for s in (1, 2, 3, 4))
        assert prof.typical_rank == 6

    def test_222_profile(self, engine):
        prof = secant_profile((2, 2, 2), engine=engine)
        by_s = {row.s: row for row in prof.rows}
        assert by_s[4].status == "Defective"
        assert by_s[4].expected == 27
        assert by_s[4].lower == by_s[4].upper == 26
        assert prof.typical_rank == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_paired_square_family(self, n, engine):
        fmt = (1, 1, n, n)
        ambient = 4 * (n + 1) ** 2
        s_bad = 2 * n + 1
        prof = secant_profile(fmt, engine=engine)
        by_s = {row.s: row for row in prof.rows}
        row = by_s[s_bad]
        assert row.status == "Defective"
        # The critical secant lands exactly two short of filling.
        assert row.lower == row.upper == ambient - 2
        assert row.defect == 1
        assert prof.typical_rank == 2 * n + 2

    def test_max_s_truncates(self, engine):
        prof = secant_profile((2, 2, 2), max_s=2, engine=engine)
        assert [row.s for row in prof.rows] == [1, 2]


class TestPowerBounds:
    def test_known_windows(self):
        b = tensor_power_bounds(3, 4)
        assert (b.nondefective_max, b.fill_min) == (16, 20)
        b = tensor_power_bounds(2, 5)
        assert (b.nondefective_max, b.fill_min) == (21, 24)
        b = tensor_power_bounds(1, 3)
        assert (b.nondefective_max, b.fill_min) == (2, 4)

    def test_window_width(self):
        for n in range(1, 8):
            for k in range(3, 7):
                b = tensor_power_bounds(n, k)
                assert b.fill_min - b.nondefective_max == n + 1
                assert b.nondefective_max >= 0

    @pytest.mark.parametrize("n,k", [
        *((1, k) for k in range(3, 9)), *((2, k) for k in range(3, 7)),
        (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (6, 3), (7, 3),
        (8, 3)])
    def test_search_certifies_the_window(self, n, k):
        # the paper's window is a theorem; the search proves every row of it
        b = tensor_power_bounds(n, k)
        fmt = (n,) * k
        engine = ProofEngine()
        for s in (*range(1, b.nondefective_max + 1), b.fill_min, b.fill_min + 1):
            row = resolve_secant(fmt, s, engine)
            kind = "oracle" if row.proof.kind == cert.ORACLE else "induction"
            assert (row.status, row.source) == ("NonDefective", kind), s
            assert row.cert_ref is not None
        assert row.lower == ambient_dim(fmt)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            tensor_power_bounds(3, 2)
        with pytest.raises(ValueError):
            tensor_power_bounds(0, 4)


class TestTypicalRank:
    @pytest.mark.parametrize(
        "dims,rank",
        [((2, 2, 2), 5), ((2, 3, 3), 6), ((1, 1, 2, 2), 6), ((1, 2, 5), 6)],
    )
    def test_values(self, dims, rank, engine):
        tr = typical_rank(dims, engine=engine)
        assert tr.value == rank
        assert tr.status in ("catalog", "certified")

    def test_unbalanced_closed_form(self, engine):
        tr = typical_rank((1, 1, 9), engine=engine)
        assert tr.value == 4  # min(n_max + 1, product of the rest)
        assert tr.status == "certified"


class TestPerfect:
    def test_power_perfect(self, engine):
        pc = perfect_check((2, 2, 2, 2), engine=engine)
        assert pc.status == "Perfect"

    def test_odd_power_family_perfect(self, engine):
        pc = perfect_check((2, 1, 1, 1), engine=engine)
        assert pc.status == "Perfect"

    def test_not_numerically_perfect(self, engine):
        pc = perfect_check((2, 3, 3), engine=engine)
        assert pc.status == "NotNumericallyPerfect"

    def test_numerically_perfect_but_defective(self, engine):
        pc = perfect_check((1, 2, 5), engine=engine)
        assert pc.status == "NotPerfect"

    def test_cache_settles_a_searched_statement(self, tmp_path, monkeypatch):
        # (2,2,4) is in neither closed family, so the search proves T(2,2,4;5)
        cache = VerdictCache(tmp_path / "verdicts.ldjson")
        first = perfect_check((2, 2, 4), cache=cache)
        assert (first.status, first.source) == ("Perfect", "induction")
        assert len(VerdictCache(cache.path)) == 1

        fresh = ProofEngine()
        monkeypatch.setattr(fresh, "prove", None)  # a search would fail
        again = perfect_check((2, 2, 4), engine=fresh,
                              cache=VerdictCache(cache.path))
        assert again == dataclasses.replace(first, source="cache")


    def test_cert_v1_era_record_is_not_served(self, tmp_path):
        # Records written before cert-v2 name cert-v1 hashes.  Their config
        # digest, the one below, did not cover the certificate format, so
        # they miss and the row is proved again.
        payload = {"prime": 1_000_003, "seed": 0, "retries": 3,
                   "budget_nodes": 2_000, "budget_cols": 4_096,
                   "max_cells": 200_000, "force": False}
        old_digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        path = tmp_path / "verdicts.ldjson"
        path.write_text(json.dumps({
            "statement": "T(7,4,4;12;0,0,0)", "verdict": True,
            "cert_sha256": "f" * 64, "tool_version": "0.1.0",
            "timestamp": "2026-10-01T00:00:00+00:00",
            "config_digest": old_digest}) + "\n")
        cache = VerdictCache(path)
        assert len(cache) == 1
        row = resolve_secant((4, 4, 7), 12, cache=cache)
        assert (row.status, row.source) == ("NonDefective", "induction")
        proof = ProofEngine().prove("T(4,4,7;12)").certificate
        assert row.cert_ref == proof.root.digest[:12]
        assert len(VerdictCache(path)) == 2

    def test_records_are_keyed_by_the_engines_config(self, tmp_path,
                                                     monkeypatch):
        # a seed-9 record used to be stored under the digest of a separate
        # cfg argument, and a warm run under that cfg served it
        path = tmp_path / "verdicts.ldjson"
        cold = resolve_secant((4, 4, 7), 12, ProofEngine(RunConfig(seed=9)),
                              VerdictCache(path))
        assert cold.cert_ref == "38cdae566f75"
        warm_engine = ProofEngine(RunConfig(seed=9))
        monkeypatch.setattr(warm_engine, "prove", None)  # a search would fail
        warm = resolve_secant((4, 4, 7), 12, warm_engine, VerdictCache(path))
        assert warm.cert_ref == cold.cert_ref
        # a seed-5 engine misses that record and proves the row itself
        other = resolve_secant((4, 4, 7), 12, ProofEngine(RunConfig(seed=5)),
                               VerdictCache(path))
        assert other.cert_ref == "a288804f5bd4"
        assert len(VerdictCache(path)) == 2


class TestCertRef:
    """A row's cert_ref is the first 12 hex digits of its certificate's
    root digest, worked out only when something reads it."""

    @staticmethod
    def count_digests(monkeypatch) -> list:
        hashed = []
        real = CertNode.digest.func

        def counted(node):
            hashed.append(node)
            return real(node)

        monkeypatch.setattr(CertNode, "digest", property(counted))
        return hashed

    def test_cacheless_scan_hashes_no_node(self, monkeypatch):
        hashed = self.count_digests(monkeypatch)
        engine = ProofEngine()
        report = defective_scan(3, 5, 30, engine=engine)
        assert report.hits and engine._memo
        assert hashed == []
        # reading a settled row's cert_ref is what hashes its proof
        row = resolve_secant((2, 4, 4), 5, engine=engine)
        assert row.source == "induction" and hashed == []
        assert row.cert_ref == "69bf1f58cd8b"
        assert hashed

    def test_refs_and_records_keep_their_strings(self, tmp_path):
        cache = VerdictCache(tmp_path / "verdicts.ldjson")
        refs = {s: resolve_secant((2, 4, 4), s, cache=cache).cert_ref
                for s in (5, 6, 8)}
        assert refs == {5: "69bf1f58cd8b", 6: "577bc91a342d",
                        8: "433e28956267"}
        record = cache.get("T(4,4,2;5;0,0,0)", RunConfig().digest())
        assert record.cert_sha256 == (
            "69bf1f58cd8b3e0d3495dd2975bda013347d306e76c3afc112d40a8238a14ca1")
        # a warm cache serves the same refs without a search
        again = VerdictCache(tmp_path / "verdicts.ldjson")
        assert {s: resolve_secant((2, 4, 4), s, cache=again).cert_ref
                for s in (5, 6, 8)} == refs
        assert perfect_check((1, 2, 2)).cert_ref == "a6b5f02a0a79"
        assert perfect_check((1, 1, 5)).cert_ref == "2fd0430b4da2"

    def test_non_integer_arguments_rejected(self):
        # int() used to read (2.9, 3, 3) as (2, 3, 3), a Defective row,
        # and the catalog answered s = 5.5 as a NonDefective row
        with pytest.raises(TypeError):
            resolve_secant((2.9, 3, 3), 5)
        with pytest.raises(TypeError):
            resolve_secant((2, 3, 3), 5.5)


class TestScan:
    def test_small_grid_hits(self, engine):
        report = defective_scan(k_max=4, n_max=4, r_max=5, engine=engine)
        found = {(hit.format.dims, hit.s) for hit in report.hits}
        expected = {
            ((1, 1, 3), 3),
            ((1, 1, 4), 3),
            ((1, 1, 1, 1), 3),
            ((1, 2, 4), 4),
            ((2, 2, 2), 4),
            ((1, 1, 2, 2), 5),
        }
        assert expected <= found
        # Nothing outside the grid and nothing nondefective sneaks in.
        for hit in report.hits:
            assert hit.status in ("Defective", "Evidence-Defective")
            assert max(hit.format.dims) <= 4 and hit.s <= 5

    def test_scan_excludes_matrices(self, engine):
        report = defective_scan(k_max=3, n_max=3, r_max=3, engine=engine)
        assert all(hit.format.k >= 3 for hit in report.hits)

    def test_by_secant_grouping(self, engine):
        report = defective_scan(k_max=3, n_max=4, r_max=4, engine=engine)
        groups = report.by_secant()
        assert set(groups) <= set(range(2, 5))
        listed = {(hit.format.dims, hit.s) for hit in report.hits}
        regrouped = {(dims, s) for s, ds in groups.items() for dims in ds}
        assert listed == regrouped


class TestFormatArgument:
    def test_accepts_format_tuple_and_string(self, engine):
        a = resolve_secant(Format.of((2, 2, 2)), 4, engine=engine)
        b = resolve_secant((2, 2, 2), 4, engine=engine)
        c = resolve_secant("2,2,2", 4, engine=engine)
        assert a.lower == b.lower == c.lower
