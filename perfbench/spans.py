"""Spans and counters recorded around segredim's public functions.

install() replaces module attributes with wrappers that record a span
(name, start, end, parent, operation) per call, plus counts read from the
arguments and results.  Spans stay in flat arrays in memory and are written
out once, at the end of the run.  Only the traced worker process calls
install(); untraced runs execute the package unmodified.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self.unique: dict[str, set] = defaultdict(set)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for nid, s, e in zip(self.name, self.start, self.end):
            out[self.names[nid]].append(e - s)
        return out

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover.  Calls
        are nested and single-threaded, so children never overlap."""
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            out[self.names[nid]] += self.end[i] - self.start[i] - covered[i]
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, name, parent, op, start, end."""
        with path.open("w") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\n")
            for i, (nid, p, op, s, e) in enumerate(zip(
                    self.name, self.parent, self.op, self.start, self.end)):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{op}\t{s:.9f}\t{e:.9f}\n")


def _wrap(tracer: Tracer, owner, attr: str, name: str, observe=None) -> None:
    raw = vars(owner)[attr]
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.finish(idx)
            if observe is not None:
                observe(args, None, exc)
            raise
        tracer.finish(idx)
        if observe is not None:
            observe(args, result, None)
        return result

    setattr(owner, attr, staticmethod(traced) if static else traced)


def elimination_ops(rows: int, cols: int, rank: int) -> int:
    """Arithmetic operations of the per-column elimination, computed from
    shape and rank: one multiply and one add per trailing-block entry per
    pivot, 2 * sum_{i<rank} (rows-1-i) * (cols-i)."""
    return 2 * sum((rows - 1 - i) * (cols - i) for i in range(rank))


def install(tracer: Tracer) -> None:
    cli = importlib.import_module("segredim.cli")
    classify = importlib.import_module("segredim.classify")
    ffrank = importlib.import_module("segredim.ffrank")
    cache = importlib.import_module("segredim.cache")
    rules = importlib.import_module("segredim.induction.rules")
    search = importlib.import_module("segredim.induction.search")
    certificate = importlib.import_module("segredim.induction.certificate")
    verify = importlib.import_module("segredim.induction.verify")
    c = tracer.counts

    _wrap(tracer, cli, "main", "cli.main")

    def on_row(args, row, exc):
        if row is not None:
            c["classify.rows." + row.source.split(":")[0]] += 1
    _wrap(tracer, classify, "resolve_secant", "classify.resolve_secant", on_row)

    def on_prove(args, verdict, exc):
        if verdict is None:
            return
        c["search.nodes"] += verdict.stats["nodes"]
        c["search.memo_hits"] += verdict.stats["memo_hits"]
        c["search.exhausted"] += bool(verdict.stats["exhausted"])
        c["search.undetermined"] += verdict.status is None
    _wrap(tracer, search.ProofEngine, "prove", "search.prove", on_prove)

    def on_known_false(args, reason, exc):
        c["rules.known_false.hits"] += reason is not None
    for owner in (rules, classify):
        _wrap(tracer, owner, "known_false", "rules.known_false", on_known_false)

    def on_dumps(args, text, exc):
        if text is not None:
            c["certificate.dumps.bytes"] += len(text.encode())
    _wrap(tracer, certificate.Certificate, "dumps", "certificate.dumps", on_dumps)
    _wrap(tracer, certificate.Certificate, "loads", "certificate.loads")

    _wrap(tracer, cli, "verify", "verify.verify")

    def on_recompute(args, witness, exc):
        st, prime, seed = args[:3]
        tracer.unique["verify.recompute"].add((st.canonical().key(), prime, seed))
    _wrap(tracer, verify, "recompute_rank", "verify.recompute", on_recompute)

    def on_oracle(args, result, exc):
        if isinstance(exc, ffrank.OracleBudgetError):
            c["ffrank.oracle.refused"] += 1
            return
        if result is None:
            return
        cfg = args[1] if len(args) > 1 and args[1] is not None else ffrank.FieldConfig()
        c["ffrank.attempts"] += len(result.attempts)
        c["ffrank.attempts.fallback"] += sum(
            w.prime == cfg.fallback_prime for w in result.attempts)
        if result.certified:
            c["ffrank.oracle.certified"] += 1
        else:
            c["ffrank.oracle.inconclusive"] += 1
            tracer.unique["ffrank.oracle.inconclusive"].add(args[0].canonical().key())
    for owner in (ffrank, search, classify):
        _wrap(tracer, owner, "terracini_oracle", "ffrank.oracle", on_oracle)
    _wrap(tracer, ffrank, "sample_points", "ffrank.sample_points")
    _wrap(tracer, ffrank, "build_terracini_matrix", "ffrank.build")

    def on_rank(args, rank, exc):
        if rank is None:
            return
        rows, cols = args[0].shape
        ops = elimination_ops(rows, cols, rank)
        c["ffrank.rank.cells"] += rows * cols
        c["ffrank.rank.ops"] += ops
        # one int64 read and one write per trailing-block entry per pivot
        c["ffrank.rank.bytes"] += 8 * ops
    _wrap(tracer, ffrank, "rank_mod_p", "ffrank.rank", on_rank)

    def on_load(args, none, exc):
        if exc is None:
            c["cache.load.records"] += len(args[0])
    _wrap(tracer, cache.VerdictCache, "__init__", "cache.load", on_load)

    def on_get(args, record, exc):
        c["cache.get.hits"] += record is not None
    _wrap(tracer, cache.VerdictCache, "get", "cache.get", on_get)
    _wrap(tracer, cache.VerdictCache, "put", "cache.put")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process.  A layer that no span
    reached is left out, so its metrics read as absent rather than 0."""
    durations = tracer.durations()
    self_s = tracer.self_times()
    c = tracer.counts
    out: dict[str, float] = {}

    def timed(span: str, prefix: str, with_self: bool = False) -> bool:
        if span not in durations:
            return False
        out[prefix + ".calls"] = len(durations[span])
        out[prefix + ".s"] = sum(durations[span])
        if with_self:
            out[prefix + ".self_s"] = self_s[span]
        return True

    timed("cli.main", "cli.main", with_self=True)
    if timed("classify.resolve_secant", "classify.resolve_secant", with_self=True):
        ms = [d * 1e3 for d in durations["classify.resolve_secant"]]
        cuts = (statistics.quantiles(ms, n=100, method="inclusive")
                if len(ms) > 1 else ms * 99)
        out["classify.resolve_secant.p50_ms"] = cuts[49]
        out["classify.resolve_secant.p99_ms"] = cuts[98]
        for source in ("catalog", "induction", "oracle"):
            out["classify.rows." + source] = c["classify.rows." + source]
    if timed("search.prove", "search.prove", with_self=True):
        for key in ("nodes", "memo_hits", "exhausted", "undetermined"):
            out["search." + key] = c["search." + key]
    if timed("rules.known_false", "rules.known_false"):
        out["rules.known_false.hits"] = c["rules.known_false.hits"]
    if timed("certificate.dumps", "certificate.dumps"):
        out["certificate.dumps.bytes"] = c["certificate.dumps.bytes"]
    timed("certificate.loads", "certificate.loads")
    timed("verify.verify", "verify.verify", with_self=True)
    if timed("verify.recompute", "verify.recompute"):
        out["verify.recompute.unique"] = len(tracer.unique["verify.recompute"])
    if timed("ffrank.oracle", "ffrank.oracle"):
        for key in ("certified", "inconclusive", "refused"):
            out["ffrank.oracle." + key] = c["ffrank.oracle." + key]
        out["ffrank.oracle.inconclusive_unique"] = len(
            tracer.unique["ffrank.oracle.inconclusive"])
        decided = out["ffrank.oracle.calls"] - out["ffrank.oracle.refused"]
        if decided:
            out["ffrank.oracle.certified_ratio"] = (
                out["ffrank.oracle.certified"] / decided)
        out["ffrank.attempts"] = c["ffrank.attempts"]
        out["ffrank.attempts.fallback"] = c["ffrank.attempts.fallback"]
    if "ffrank.sample_points" in durations:
        out["ffrank.sample_points.s"] = sum(durations["ffrank.sample_points"])
    if "ffrank.build" in durations:
        out["ffrank.build.s"] = sum(durations["ffrank.build"])
    if timed("ffrank.rank", "ffrank.rank"):
        for key in ("cells", "ops", "bytes"):
            out["ffrank.rank." + key] = c["ffrank.rank." + key]
        out["ffrank.rank.gops"] = out["ffrank.rank.ops"] / out["ffrank.rank.s"] / 1e9
    if timed("cache.load", "cache.load"):
        out["cache.load.records"] = c["cache.load.records"]
    if timed("cache.get", "cache.get"):
        out["cache.get.hits"] = c["cache.get.hits"]
    timed("cache.put", "cache.put")
    out["trace.spans"] = len(tracer.name)
    return out
