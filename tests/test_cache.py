"""Verdict cache records: what a line must hold to be served."""

import json
from types import SimpleNamespace

import pytest

from segredim import TOOL_VERSION, RunConfig
from segredim.cache import CacheRecord, VerdictCache
from segredim.classify import resolve_secant
from segredim.cli import main
from segredim import ffrank
from segredim.ffrank import (DEFAULT_PRIME, FALLBACK_PRIME, RankWitness,
                             derive_seed, recompute_rank)
from segredim.formats import parse_statement
from segredim.induction import ProofEngine
from segredim.induction import verify
from segredim.induction.verify import evidence_holds

# T(2,4,4;7) is in the defective (2,n,n), n even, family; no search proves
# it, so a served record is the only way to a NonDefective row
STATEMENT = "T(4,4,2;7;0,0,0)"
DIGEST = RunConfig().digest()


def record(**fields) -> dict:
    out = {"statement": STATEMENT, "verdict": True, "cert_sha256": "a" * 64,
           "tool_version": "0.1.0", "timestamp": "2026-10-01T00:00:00+00:00",
           "config_digest": DIGEST}
    out.update(fields)
    return out


def cache_with(tmp_path, *lines) -> VerdictCache:
    path = tmp_path / "verdicts.ldjson"
    path.write_text("".join(line + "\n" for line in lines))
    return VerdictCache(path)


def test_well_typed_record_is_served(tmp_path):
    cache = cache_with(tmp_path, json.dumps(record()))
    assert len(cache) == 1
    row = resolve_secant((2, 4, 4), 7, cache=cache)
    assert (row.status, row.source, row.cert_ref) == (
        "NonDefective", "cache", "a" * 12)


@pytest.mark.parametrize("verdict", [1, 0, "false", "true", None, 1.0, [True]])
def test_verdict_must_be_a_json_boolean(tmp_path, verdict):
    line = json.dumps(record(verdict=verdict, cert_sha256=""))
    cache = cache_with(tmp_path, line, json.dumps(record(verdict=verdict)))
    assert len(cache) == 0
    row = resolve_secant((2, 4, 4), 7, cache=cache)
    assert (row.status, row.source) == ("Evidence-Defective", "oracle")
    with pytest.raises(ValueError):
        CacheRecord.from_json(record(verdict=verdict))


@pytest.mark.parametrize("sha", ["", "A" * 64, "a" * 63, "a" * 65, "g" * 64,
                                 " " + "a" * 63, "a" * 64 + "\n", 7, None])
def test_cert_sha256_must_be_a_hex_digest(tmp_path, sha):
    cache = cache_with(tmp_path, json.dumps(record(cert_sha256=sha)))
    assert len(cache) == 0
    with pytest.raises(ValueError):
        CacheRecord.from_json(record(cert_sha256=sha))


def test_bad_lines_do_not_hide_good_ones(tmp_path):
    cache = cache_with(tmp_path, json.dumps(record(verdict=1)), "[1, 2]",
                       "not json", json.dumps(record()))
    assert len(cache) == 1
    assert cache.get(STATEMENT, DIGEST).verdict is True


def test_a_line_that_is_not_utf8_is_skipped(tmp_path, capsys):
    path = tmp_path / "verdicts.ldjson"
    path.write_bytes(b"\xff\n" + json.dumps(record()).encode() + b"\n\xfe{\n")
    cache = VerdictCache(path)
    assert len(cache) == 1
    assert cache.get(STATEMENT, DIGEST).verdict is True
    assert main(["dim", "2,4,4", "7", "--cache", str(path)]) == 0
    assert "NonDefective [cache]" in capsys.readouterr().out


def test_a_line_nested_too_deep_is_skipped(tmp_path, capsys):
    # json.loads gives up on this line with a RecursionError
    deep = "[" * 200_000 + "]" * 200_000
    cache = cache_with(tmp_path, json.dumps(record(verdict=False)), deep,
                       json.dumps(record()))
    assert len(cache) == 1
    assert cache.get(STATEMENT, DIGEST).verdict is True
    path = str(tmp_path / "verdicts.ldjson")
    assert main(["dim", "2,4,4", "7", "--cache", path]) == 0
    assert "NonDefective [cache]" in capsys.readouterr().out


def test_record_from_an_older_tool_version_misses(tmp_path, capsys):
    # The digest version 0.1.0 computed for a node budget of 2 000 and
    # three attempts at the main prime, before the digest covered the tool
    # version.  The two_factor leaf changed cert_refs since, and the attempt
    # plan is fixed now (ffrank.PLAN), so no config of this version can
    # serve the record.
    old = "e68af1522a226f62"
    path = tmp_path / "verdicts.ldjson"
    path.write_text(json.dumps(record(config_digest=old)) + "\n")
    assert VerdictCache(path).get(STATEMENT, old) is not None
    assert RunConfig(budget_nodes=2_000).digest() != old
    assert main(["dim", "2,4,4", "7", "--budget-nodes", "2000",
                 "--cache", str(path)]) == 0
    assert "status: Evidence-Defective [oracle]" in capsys.readouterr().out


def test_record_from_version_0_2_0_misses(tmp_path, capsys):
    # RunConfig(budget_nodes=2_000).digest() as version 0.2.0 computed it.
    # Same settings, but the search's cell budget changed cert_refs since:
    # (3,4,10) s=12 now proves by the root's own oracle leaf.
    old = "8a27eb81ee85c3d5"
    path = tmp_path / "verdicts.ldjson"
    path.write_text(json.dumps(record(config_digest=old,
                                      tool_version="0.2.0")) + "\n")
    assert VerdictCache(path).get(STATEMENT, old) is not None
    assert RunConfig(budget_nodes=2_000).digest() != old
    assert main(["dim", "2,4,4", "7", "--budget-nodes", "2000",
                 "--cache", str(path)]) == 0
    assert "status: Evidence-Defective [oracle]" in capsys.readouterr().out


def test_repeated_prove_appends_one_record(tmp_path, capsys, monkeypatch):
    # a record the file already holds is not appended again
    path = tmp_path / "c.ldjson"
    argv = ["prove", "T(3,3,3;5)", "--cache", str(path),
            "--out", str(tmp_path / "cert.json")]
    for _ in range(3):
        assert main(argv) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    sha = json.loads(lines[0])["cert_sha256"]
    # a resumed dim reads the record instead of searching
    monkeypatch.setattr(ProofEngine, "prove",
                        lambda self, st: pytest.fail(f"searched {st}"))
    capsys.readouterr()
    assert main(["dim", "3,3,3", "5", "--json", "--cache", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["status"], row["cert_ref"]) == ("NonDefective", sha[:12])
    assert path.read_text().splitlines() == lines


def test_config_digests_are_pinned():
    # the digests version 0.4.0 writes: a change of either re-keys every
    # record a cache holds, so it needs a new tool version.  Both name the
    # fixed attempt plan as prime 1000003 with retries 1, as when it was
    # settable.  0.3.0 wrote 8dcbb7ccde4363ea and 5592879465af29bd; 0.4.0
    # gives the 19 small-format statements that _fibration_false derives
    # fibration_false leaves in place of table_false ones.
    assert RunConfig().digest() == "cb8e3efccd9e3b5e"
    assert RunConfig(seed=9, budget_nodes=2000,
                     force=True).digest() == "d7fea50a838d9df3"


def test_digest_is_worked_out_once_per_config(monkeypatch):
    # a scan settles hundreds of rows under one config; the kept digest
    # takes no part in ==, hash or repr
    cfg = RunConfig(seed=4)
    fresh = RunConfig(seed=4)
    want = cfg.digest()
    monkeypatch.setattr("segredim.config.json.dumps",
                        lambda *a, **k: pytest.fail("digest hashed again"))
    assert cfg.digest() == want
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)


# --- undetermined records ---------------------------------------------------


@pytest.fixture(scope="module")
def cold():
    """The row and the witness a fresh engine gives (2,4,4) at s = 7."""
    result = ProofEngine().oracle(parse_statement(STATEMENT))
    assert not result.certified
    return resolve_secant((2, 4, 4), 7), result.witness


def undetermined(witness, /, **fields) -> dict:
    out = {"statement": STATEMENT, "verdict": None, "reason": "oracle_deficit",
           "witness": None if witness is None else witness.to_json(),
           "tool_version": TOOL_VERSION,
           "timestamp": "2026-10-01T00:00:00+00:00", "config_digest": DIGEST}
    out.update(fields)
    return out


def count_searches(monkeypatch) -> list:
    """Count ProofEngine.prove calls, by statement."""
    calls = []
    inner = ProofEngine.prove

    def counted(self, st):
        calls.append(str(st))
        return inner(self, st)
    monkeypatch.setattr(ProofEngine, "prove", counted)
    return calls


def test_undetermined_record_is_served_without_a_search(tmp_path, cold,
                                                        monkeypatch):
    row, witness = cold
    assert (row.status, row.lower) == ("Evidence-Defective", 74)
    path = tmp_path / "verdicts.ldjson"
    resolve_secant((2, 4, 4), 7, cache=VerdictCache(path))
    [line] = path.read_text().splitlines()
    written = json.loads(line)  # with no cert_sha256 key
    assert written == undetermined(witness, timestamp=written["timestamp"])
    searches = count_searches(monkeypatch)
    served = resolve_secant((2, 4, 4), 7, cache=VerdictCache(path))
    assert served == row  # the note, with its prime, included
    assert searches == []
    assert path.read_text().splitlines() == [line]


@pytest.mark.parametrize("case", [
    "null verdict with cert_sha256", "unknown reason", "reason not text",
    "witness of another statement", "witness statement not text",
    "rank reaches target", "rank above target", "witness not an object"])
def test_malformed_undetermined_line_is_skipped(tmp_path, cold, case,
                                                monkeypatch):
    row, witness = cold
    w = witness.to_json()
    data = {
        "null verdict with cert_sha256": undetermined(
            witness, cert_sha256="a" * 64),
        "unknown reason": undetermined(witness, reason="out_of_luck"),
        "reason not text": undetermined(witness, reason=["no_rule"]),
        "witness of another statement": undetermined(
            witness, witness={**w, "statement": "T(4,4,2;6;0,0,0)"}),
        "witness statement not text": undetermined(
            witness, witness={**w, "statement": [4, 4, 2]}),
        "rank reaches target": undetermined(
            witness, witness={**w, "rank": w["target"]}),
        "rank above target": undetermined(
            witness, witness={**w, "rank": w["target"] + 1}),
        "witness not an object": undetermined(witness, witness=[1, 2]),
    }[case]
    with pytest.raises((ValueError, TypeError)):
        CacheRecord.from_json(data)
    cache = cache_with(tmp_path, json.dumps(data))
    assert len(cache) == 0
    searches = count_searches(monkeypatch)
    assert resolve_secant((2, 4, 4), 7, cache=cache) == row
    assert searches == [STATEMENT]


def _replanned(witness: RankWitness, prime: int, master_seed: int):
    """An honest attempt of the statement outside its engine's plan."""
    seed = derive_seed(STATEMENT, prime, master_seed, 0)
    return recompute_rank(witness.statement, prime, seed)


@pytest.mark.parametrize("case", ["prime outside the plan",
                                  "seed of another master seed",
                                  "rank that does not recompute",
                                  "refusal the size rule now accepts",
                                  "fallback attempt of the first's rank"])
def test_record_that_does_not_hold_up_is_a_miss(tmp_path, cold, case,
                                                monkeypatch):
    row, witness = cold
    forged = {
        "prime outside the plan": _replanned(witness, 1_000_033, 0),
        "seed of another master seed": _replanned(witness, DEFAULT_PRIME, 1),
        "rank that does not recompute": RankWitness.from_json(
            {**witness.to_json(), "rank": witness.rank - 1}),
        "refusal the size rule now accepts": None,
        # honest, but a fresh oracle keeps the first attempt of rank 74
        "fallback attempt of the first's rank": _replanned(
            witness, FALLBACK_PRIME, 0),
    }[case]
    # each forged witness is sound evidence of its own deficit
    assert forged is None or forged.rank < forged.target
    line = json.dumps(undetermined(forged))
    cache = cache_with(tmp_path, line)
    assert len(cache) == 1
    searches = count_searches(monkeypatch)
    fresh = resolve_secant((2, 4, 4), 7, cache=cache)
    # the note names the plan's prime, 1000003, and never a forged one
    assert fresh == row
    assert "150/1000003" in fresh.note
    assert searches == [STATEMENT]
    lines = cache.path.read_text().splitlines()
    assert lines[0] == line and len(lines) == 2
    assert json.loads(lines[1])["witness"] == witness.to_json()
    assert VerdictCache(cache.path).get(STATEMENT, DIGEST).witness == witness


@pytest.mark.parametrize("decided_first", [True, False])
def test_decided_line_beats_undetermined_one(tmp_path, cold, decided_first,
                                             monkeypatch):
    lines = [json.dumps(record()), json.dumps(undetermined(cold[1]))]
    if not decided_first:
        lines.reverse()
    cache = cache_with(tmp_path, *lines)
    assert len(cache) == 1
    assert cache.get(STATEMENT, DIGEST).verdict is True
    searches = count_searches(monkeypatch)
    row = resolve_secant((2, 4, 4), 7, cache=cache)
    assert (row.status, row.source, row.cert_ref) == (
        "NonDefective", "cache", "a" * 12)
    assert searches == []


def test_undetermined_put_never_downgrades_or_repeats(tmp_path, cold):
    _, witness = cold
    path = tmp_path / "verdicts.ldjson"
    cache = VerdictCache(path)
    first = cache.put(STATEMENT, None, None, DIGEST, reason="oracle_deficit",
                      witness=witness)
    again = cache.put(STATEMENT, None, None, DIGEST, reason="node_budget")
    assert again is first
    assert len(path.read_text().splitlines()) == 1
    # a decided put replaces the undetermined record: no conflict
    certificate = SimpleNamespace(root=SimpleNamespace(digest="b" * 64))
    decided = cache.put(STATEMENT, False, certificate, DIGEST)
    assert cache.put(STATEMENT, None, None, DIGEST, reason="oracle_deficit",
                     witness=witness) is decided
    assert len(path.read_text().splitlines()) == 2
    held = VerdictCache(path).get(STATEMENT, DIGEST)
    assert (held.verdict, held.cert_sha256) == (False, "b" * 64)


def test_evidence_on_a_statement_a_closed_form_decides(cold):
    # T(3,3,2;5) is the hull-233 falsity leaf's; its honest deficit is no
    # evidence the cache may serve, since the catalog decides the row
    st = parse_statement("T(3,3,2;5)").canonical()
    witness = ProofEngine().oracle(st).witness
    assert witness.rank < witness.target
    assert not evidence_holds(witness, 0)
    assert evidence_holds(cold[1], 0)
    assert not evidence_holds(cold[1], 1)


def test_fallback_evidence_holds_only_above_the_first_attempt(cold,
                                                              monkeypatch):
    # the fallback attempt is the witness a fresh oracle keeps only when
    # the first attempt reads a lower rank
    _, witness = cold
    fallback = _replanned(witness, FALLBACK_PRIME, 0)
    assert (witness.prime, fallback.rank) == (DEFAULT_PRIME, witness.rank)
    assert not evidence_holds(fallback, 0)
    real = ffrank.recompute_rank

    def first_lower(st, prime, seed):
        w = real(st, prime, seed)
        if prime == DEFAULT_PRIME:
            w = RankWitness.from_json({**w.to_json(), "rank": w.rank - 1})
        return w
    monkeypatch.setattr(verify, "recompute_rank", first_lower)
    assert evidence_holds(fallback, 0)
    assert not evidence_holds(witness, 0)  # no longer recomputes
