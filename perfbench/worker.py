"""One benchmark process: set up a workload, then measure or prepare it.

run.py starts this file with PYTHONPATH set to the checkout's src/, once per
role, so no memo table, cache or peak RSS carries over from one run to the
next.  Roles:

  setup    import segredim and prepare the inputs, then exit
  fixture  scan_resume only: the cold `scan --cache` that writes the cache
  measure  repeat the workload's operations for --seconds, checking each

Every role writes one JSON object to --result.  "ready" is the monotonic
clock reading once set-up is done; run.py subtracts its spawn time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import segredim
from segredim import cli, ffrank
from segredim.formats import parse_statement

import checks
import spans

SCAN_ARGV = ("scan", "--k", "3", "--max-n", "10", "--max-r", "60")
PROVE_STATEMENT = "T(15,15,15,15;1074)"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Runner:
    """Times, checks and counts operations for one process."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tally = checks.Tally()
        self.tracer = tracer

    def op(self, fn, check):
        """Run fn() once; return (seconds, result or None on an exception)."""
        if self.tracer is not None:
            self.tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.tally.record(["raised " + traceback.format_exc(limit=-3)])
            return elapsed, None
        elapsed = time.perf_counter() - t0
        return elapsed, result if self.tally.record(check(result)) else None


class Scan:
    """`scan --k 3 --max-n 10 --max-r 60`, no cache: catalog, search,
    certificates and the small-matrix oracle."""

    def __init__(self, seed: int, work: Path):
        self.argv = list(SCAN_ARGV) + ["--seed", str(seed)]
        self.reference = checks.SCAN_REFERENCE.read_text()
        self.undetermined = None

    def check(self, result) -> list[str]:
        return checks.check_scan(*result, self.reference)

    def run_pass(self, runner: Runner) -> float:
        elapsed, result = runner.op(lambda: call_cli(self.argv), self.check)
        if result is not None:
            self.undetermined = checks.count_unknown(result[1])
        return elapsed


class ScanResume(Scan):
    """The same grid, reading a fresh copy of a cache that a cold
    `scan --cache` wrote during set-up."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.fixture = work / "fixture.ldjson"
        self.fixture_listing = work / "fixture.txt"
        self.copy = work / "resume.ldjson"
        self.baseline = None

    def write_fixture(self, runner: Runner) -> float:
        self.fixture.unlink(missing_ok=True)
        elapsed, result = runner.op(
            lambda: call_cli(self.argv + ["--cache", str(self.fixture)]),
            self.check)
        if result is not None:
            self.fixture_listing.write_text(result[1])
        return elapsed

    def check(self, result) -> list[str]:
        problems = super().check(result)
        if self.baseline is not None:
            problems += checks.check_same_listing(result[1], self.baseline)
        return problems

    def run_pass(self, runner: Runner) -> float:
        if self.baseline is None and self.fixture_listing.exists():
            self.baseline = self.fixture_listing.read_text()
        shutil.copyfile(self.fixture, self.copy)
        elapsed, result = runner.op(
            lambda: call_cli(self.argv + ["--cache", str(self.copy)]), self.check)
        if result is not None:
            self.undetermined = checks.count_unknown(result[1])
        return elapsed


class ProveVerify:
    """`prove` of the largest certificate, then `verify --recheck` of it."""

    def __init__(self, seed: int, work: Path):
        self.cert = work / "cert.json"
        self.prove_argv = ["prove", PROVE_STATEMENT, "--out", str(self.cert),
                           "--seed", str(seed)]
        self.verify_argv = ["verify", str(self.cert), "--recheck"]
        self.undetermined = None
        self.cert_bytes = None

    def run_pass(self, runner: Runner) -> float:
        self.cert.unlink(missing_ok=True)
        t_prove, proved = runner.op(lambda: call_cli(self.prove_argv),
                                    lambda r: checks.check_prove(*r))
        if self.cert.exists():
            self.cert_bytes = self.cert.stat().st_size
        t_verify, _ = runner.op(lambda: call_cli(self.verify_argv),
                                lambda r: checks.check_verify(*r))
        self.undetermined = 0 if proved is not None else None
        return t_prove + t_verify


class Oracle:
    """The public oracle, forced past the cell budget, on three large
    matrices; nearly all of its time is modular rank."""

    def __init__(self, seed: int, work: Path):
        self.statements = [(text, parse_statement(text))
                           for text in checks.ORACLE_REFERENCE]
        self.config = ffrank.FieldConfig(force=True, seed=seed)
        self.undetermined = None

    def run_pass(self, runner: Runner) -> float:
        total, undetermined = 0.0, 0
        for text, st in self.statements:
            elapsed, result = runner.op(
                lambda: ffrank.terracini_oracle(st, self.config),
                lambda r: checks.check_oracle(text, r.certified, r.witness.rank))
            total += elapsed
            undetermined += result is None or not result.certified
        self.undetermined = undetermined
        return total


WORKLOADS = {
    "scan": Scan,
    "prove_verify": ProveVerify,
    "oracle": Oracle,
    "scan_resume": ScanResume,
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "segredim": str(Path(segredim.__file__).resolve().parent),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "fixture", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True,
                    help="where a traced process writes its spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.work)
    out: dict = {"ready": monotonic()}
    if args.role == "setup":
        args.result.write_text(json.dumps(out))
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    runner = Runner(tracer)
    if args.role == "fixture":
        out["fixture_s"] = workload.write_fixture(runner)
        out["cache_bytes"] = (workload.fixture.stat().st_size
                              if workload.fixture.exists() else 0)
    else:
        pass_s = []
        begin = time.perf_counter()
        while True:
            pass_s.append(workload.run_pass(runner))
            if len(pass_s) == 1:
                # what one CLI invocation reaches; later passes only reuse
                # the heap the first one grew
                out["rss_mb"] = peak_rss_mb()
            if time.perf_counter() - begin >= args.seconds:
                break
        out["pass_s"] = pass_s
        out["undetermined"] = workload.undetermined
        out["cert_bytes"] = getattr(workload, "cert_bytes", None)
        out["env"] = environment()
    out["attempted"] = runner.tally.attempted
    out["failed"] = runner.tally.failed
    out["problems"] = runner.tally.problems[:20]
    out.setdefault("rss_mb", peak_rss_mb())
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        tracer.write(args.spans)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
