"""segredim benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --runs 5 --trace 1

Workloads (see perfbench/NOTES.md for why each was chosen):

  scan          segredim scan --k 3 --max-n 10 --max-r 60, no cache
  prove_verify  segredim prove "T(15,15,15,15;1074)", then verify --recheck
  oracle        terracini_oracle on three large forced matrices
  scan_resume   the scan grid again, reading a cache written during set-up

Each run starts fresh interpreters (worker.py) that import segredim from
./src: several that only set up, whose median is setup_s, then one that
repeats the workload's operations for --seconds and checks every output.
With --trace 1 an untraced measuring process is followed by a traced one that
runs a single pass; it gives the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scan", "prove_verify", "oracle", "scan_resume")
SETUP_SAMPLES = 4        # set-up-only processes per run, besides the measuring one
RUN_LIMIT_S = 170        # every process of one run must end within this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics every run prints, gated or not, with their units
REPORTED = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "undetermined": "count",
    "cert_bytes": "B",
    "fail_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def blas_threads() -> dict:
    """BLAS thread settings for the workers: as set, but at most nproc."""
    out = {}
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        ok = value.isdigit() and 1 <= int(value) <= nproc()
        out[var] = value if ok else str(nproc())
    return out


def child_env(root: Path, pycache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # a fresh bytecode cache per run: the first set-up compiles segredim,
    # the rest load bytecode, whatever the checkout holds in __pycache__
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.update(blas_threads())
    return env


class Run:
    """One run of one workload: set-up samples, fixture, measurement."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = monotonic() + RUN_LIMIT_S
        self.work = root / ".bench_work" / f"{os.getpid()}-{workload}-{seed}"
        self.env = child_env(root, self.work / "pycache")
        self.out = root / ".bench_out"

    def spawn(self, role: str, trace: int = 0,
              seconds: int | None = None) -> tuple[float, dict]:
        """Start worker.py in `role`; return (its set-up seconds, its result)."""
        result = self.work / f"{role}-{trace}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(WORKER), "--role", role,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds if seconds is None else seconds),
               "--trace", str(trace),
               "--work", str(self.work), "--result", str(result),
               "--spans", str(self.out / f"spans-{self.workload}-{self.seed}-{role}.tsv")]
        started = monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {role} did not finish in time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result.exists():
            raise BenchError(f"{self.workload} {role} exited with code {code}")
        data = json.loads(result.read_text())
        return data["ready"] - started, data

    def execute(self, trace: int) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(exist_ok=True)
        try:
            return self._execute(trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self, trace: int) -> dict:
        setups = [self.spawn("setup")[0] for _ in range(SETUP_SAMPLES)]
        attempted = failed = 0
        problems: list[str] = []
        fixture_s = 0.0
        fixture = None
        if self.workload == "scan_resume":
            _, fixture = self.spawn("fixture", trace)
            fixture_s = fixture["fixture_s"]
            attempted, failed = fixture["attempted"], fixture["failed"]
            problems += fixture["problems"]
        ready, plain = self.spawn("measure", 0)
        setups.append(ready)
        measured = [plain]
        if trace:
            # one traced pass, so that layer counts and times are per pass
            measured.append(self.spawn("measure", 1, seconds=0)[1])
        for m in measured:
            attempted += m["attempted"]
            failed += m["failed"]
            problems += m["problems"]
        if not Path(plain["env"]["segredim"]).is_relative_to(self.root / "src"):
            raise BenchError(f"imported segredim from {plain['env']['segredim']}, "
                             f"not from {self.root / 'src'}")
        res = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "passes": plain["pass_s"],
            "setup_samples": setups,
            "fixture_s": fixture_s,
            "wall_s": statistics.median(plain["pass_s"]),
            # the cache fixture is written once per run; the light part of
            # set-up (interpreter, import, inputs) is sampled SETUP_SAMPLES times
            "setup_s": statistics.median(setups) + fixture_s,
            "peak_rss_mb": plain["rss_mb"],
            "undetermined": plain["undetermined"],
            "cert_bytes": plain["cert_bytes"],
            "fail_ratio": failed / attempted if attempted else 0.0,
            "env": plain["env"],
        }
        if trace:
            traced = measured[1]
            layers = dict(traced["layers"])
            layers["trace.wall_s"] = statistics.median(traced["pass_s"])
            layers["trace.overhead_s"] = layers["trace.wall_s"] - res["wall_s"]
            if fixture is not None:
                for key in ("cache.put.calls", "cache.put.s"):
                    if key in fixture["layers"]:
                        layers[key] = fixture["layers"][key]
                layers["cache.bytes"] = fixture["cache_bytes"]
            res["layers"] = layers
        return res


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(root: Path, worker_env: dict) -> dict:
    env = {
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "blas_threads": blas_threads(),
    }
    env.update(worker_env)
    return env


def spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# every per-layer metric the traced run can produce, with its unit
LAYER_UNITS = {
    "cli.main.calls": "count", "cli.main.s": "s", "cli.main.self_s": "s",
    "classify.resolve_secant.calls": "count",
    "classify.resolve_secant.s": "s",
    "classify.resolve_secant.self_s": "s",
    "classify.resolve_secant.p50_ms": "ms",
    "classify.resolve_secant.p99_ms": "ms",
    "classify.rows.catalog": "count", "classify.rows.induction": "count",
    "classify.rows.oracle": "count",
    "search.prove.calls": "count", "search.prove.s": "s",
    "search.prove.self_s": "s", "search.nodes": "count",
    "search.memo_hits": "count", "search.exhausted": "count",
    "search.undetermined": "count",
    "rules.known_false.calls": "count", "rules.known_false.hits": "count",
    "rules.known_false.s": "s",
    "certificate.dumps.calls": "count", "certificate.dumps.s": "s",
    "certificate.dumps.bytes": "B",
    "certificate.loads.calls": "count", "certificate.loads.s": "s",
    "verify.verify.calls": "count", "verify.verify.s": "s",
    "verify.verify.self_s": "s",
    "verify.recompute.calls": "count", "verify.recompute.unique": "count",
    "verify.recompute.s": "s",
    "ffrank.oracle.calls": "count", "ffrank.oracle.certified": "count",
    "ffrank.oracle.inconclusive": "count",
    "ffrank.oracle.inconclusive_unique": "count",
    "ffrank.oracle.refused": "count", "ffrank.oracle.s": "s",
    "ffrank.oracle.certified_ratio": "ratio",
    "ffrank.attempts": "count", "ffrank.attempts.fallback": "count",
    "ffrank.sample_points.s": "s", "ffrank.build.s": "s",
    "ffrank.rank.calls": "count", "ffrank.rank.s": "s",
    "ffrank.rank.cells": "count", "ffrank.rank.ops": "op",
    "ffrank.rank.bytes": "B", "ffrank.rank.gops": "Gop/s",
    "cache.load.calls": "count", "cache.load.s": "s",
    "cache.load.records": "count",
    "cache.get.calls": "count", "cache.get.s": "s", "cache.get.hits": "count",
    "cache.put.calls": "count", "cache.put.s": "s", "cache.bytes": "B",
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
}
# counts derived from matrix shape and rank rather than observed
COMPUTED = {"ffrank.rank.ops", "ffrank.rank.bytes", "ffrank.rank.gops"}


def print_run(res: dict) -> None:
    q1, med, q3 = quartiles(res["passes"])
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"{len(res['passes'])} passes in {res['seconds']} s")
    print(f"  wall_s       {med:.4f} s  (median of passes; q1 {q1:.4f}, "
          f"q3 {q3:.4f}, n={len(res['passes'])})")
    print(f"  setup_s      {res['setup_s']:.4f} s  (median of "
          f"{len(res['setup_samples'])} set-ups"
          + (f" + cache fixture {res['fixture_s']:.4f} s)" if res["fixture_s"] else ")"))
    for name in ("peak_rss_mb", "undetermined", "cert_bytes"):
        value = "absent" if res[name] is None else f"{fmt(res[name])} {REPORTED[name]}"
        print(f"  {name:<12} {value}")
    print(f"  fail_ratio   {res['fail_ratio']:.4f}  "
          f"({res['failed']} failed of {res['attempted']} operations)")
    for problem in res["problems"]:
        print(f"  FAILED: {problem.strip()}")
    if "layers" in res:
        print("  per-layer metrics (traced process):")
        for name, unit in LAYER_UNITS.items():
            value = res["layers"].get(name)
            if value is None:
                print(f"    {name:<36} absent: no call reached this layer")
                continue
            note = "  (computed)" if name in COMPUTED else ""
            print(f"    {name:<36} {fmt(value)} {unit}{note}")


def result_line(res: dict, metrics: list[dict], source: dict) -> str:
    out = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
           for m in metrics if source.get(m["name"]) is not None}
    return json.dumps({"correct": res["failed"] == 0,
                       "attempted": res["attempted"],
                       "failed": res["failed"],
                       "metrics": out})


def run_single(root: Path, args) -> int:
    res = Run(root, args.workload, args.seed, args.seconds).execute(args.trace)
    print_run(res)
    print("env: " + json.dumps(environment(root, res["env"]), sort_keys=True))
    bench = spec(root)
    if args.trace:
        print(result_line(res, bench["per_layer"], res["layers"]))
    else:
        print(result_line(res, bench["end_to_end"], res))
    return 0


def run_suite(root: Path, args) -> int:
    """All workloads, interleaved round by round so that drift in machine
    speed reaches each alike; one traced run each at the end if asked."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for r in range(args.runs):
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for w in order:
            res = Run(root, w, args.seed + r, args.seconds).execute(0)
            print_run(res)
            runs[w].append(res)
    traced = {}
    if args.trace:
        for w in WORKLOADS:
            traced[w] = Run(root, w, args.seed, args.seconds).execute(1)
            print_run(traced[w])
    env = environment(root, runs[WORKLOADS[0]][0]["env"])
    summary: dict = {}
    print(f"\nsummary over {args.runs} runs per workload (median, q1, q3):")
    for w in WORKLOADS:
        for name, unit in REPORTED.items():
            values = [res[name] for res in runs[w] if res[name] is not None]
            if not values:
                print(f"  {w:<13} {name:<13} absent")
                continue
            q1, med, q3 = quartiles(values)
            summary[f"{w}.{name}"] = {"value": med, "unit": unit, "q1": q1,
                                      "q3": q3, "n": len(values)}
            print(f"  {w:<13} {name:<13} {med:.6g} {unit}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        if w in traced:
            print(f"  {w:<13} trace.overhead_s {traced[w]['layers']['trace.overhead_s']:.4f} s")
    print("env: " + json.dumps(env, sort_keys=True))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = root / ".bench_out" / f"suite-{stamp}.json"
    record.write_text(json.dumps({"env": env, "runs": runs, "traced": traced,
                                  "summary": summary}, indent=1))
    print(f"results written to {record.relative_to(root)}")
    attempted = sum(res["attempted"] for rs in runs.values() for res in rs)
    failed = sum(res["failed"] for rs in runs.values() for res in rs)
    attempted += sum(res["attempted"] for res in traced.values())
    failed += sum(res["failed"] for res in traced.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in summary.items()}}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload with --workload all")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    root = Path.cwd()
    if not (root / "src" / "segredim" / "__init__.py").is_file():
        print("error: run from the root of a segredim checkout "
              "(src/segredim not found)", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_suite(root, args)
        return run_single(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
