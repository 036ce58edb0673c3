"""Verdict cache records: what a line must hold to be served."""

import json

import pytest

from segredim import RunConfig
from segredim.cache import CacheRecord, VerdictCache
from segredim.classify import resolve_secant
from segredim.cli import main

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
        "NonDefective", "induction", "a" * 12)


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
    assert "NonDefective [induction]" in capsys.readouterr().out


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


def test_config_digests_are_pinned():
    # the digests version 0.3.0 writes: a change of either re-keys every
    # record a cache holds, so it needs a new tool version.  Both name the
    # fixed attempt plan as prime 1000003 with retries 1, as when it was
    # settable.
    assert RunConfig().digest() == "8dcbb7ccde4363ea"
    assert RunConfig(seed=9, budget_nodes=2000,
                     force=True).digest() == "5592879465af29bd"
