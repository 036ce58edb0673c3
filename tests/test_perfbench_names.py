"""The names the benchmark harness wraps stay importable and reached.

perfbench/spans.py replaces module attributes of segredim (terracini_oracle
in three modules, known_false in two, ProofEngine.prove, ...) with traced
wrappers, so renaming or removing one breaks the benchmark.  This test runs
the harness's install() in a fresh interpreter and a small scan through the
wrapped CLI, then the wrapped oracle under the oracle workload's FieldConfig
and under a RunConfig.  It only reads perfbench/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import spans
from segredim import cli
tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(["scan", "--k", "3", "--max-n", "3", "--max-r", "5"])
# the oracle workload's config (worker.Oracle) and the run config the
# search passes on, whose fallback_prime spans.on_oracle reads
from segredim import RunConfig, ffrank, parse_statement
field = ffrank.FieldConfig(force=True, seed=1)
st = parse_statement("T(2,2,2;4)")
fallback = [w.prime == field.fallback_prime
            for cfg in (field, RunConfig(seed=1))
            for w in ffrank.terracini_oracle(st, cfg).attempts]
print(json.dumps({"code": code, "spans": sorted(set(tracer.names)),
                  "fallback": fallback}))
"""


def test_spans_install_and_scan():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    # T(2,2,2;4) is deficient: each config runs its attempt and the fallback
    assert result["fallback"] == [False, True, False, True]
    assert {"cli.main", "classify.resolve_secant", "search.prove",
            "rules.known_false", "ffrank.oracle",
            "ffrank.rank"} <= set(result["spans"])
