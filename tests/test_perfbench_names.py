"""The names the benchmark harness wraps stay importable and reached.

perfbench/spans.py replaces module attributes of segredim (terracini_oracle
in three modules, known_false in two, ProofEngine.prove, ...) with traced
wrappers, so renaming or removing one breaks the benchmark.  This test runs
the harness's install() in a fresh interpreter and a small scan through the
wrapped CLI.  It only reads perfbench/.
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
print(json.dumps({"code": code, "spans": sorted(set(tracer.names))}))
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
    assert {"cli.main", "classify.resolve_secant", "search.prove",
            "rules.known_false", "ffrank.oracle",
            "ffrank.rank"} <= set(result["spans"])
