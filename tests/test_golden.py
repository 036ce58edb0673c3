"""Golden CLI output: scan, classify, dim and prove stay byte-identical.

The files under tests/golden/ hold the stdout (and, for a prove that
settles its statement, the certificate file) of each command below.
Certificate references in the classify records pin the certificate bytes.
The one field that depends on the clock, prove's `elapsed_s`, is masked on
both sides.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from segredim.cli import main
from segredim.induction.verify import verify

GOLDEN = Path(__file__).parent / "golden"

SCANS = {
    "scan_k3_n5_r30": ["scan", "--k", "3", "--max-n", "5", "--max-r", "30"],
    "scan_k4_n3_r30": ["scan", "--k", "4", "--max-n", "3", "--max-r", "30"],
}
CLASSIFIES = {
    f"classify_{fmt.replace(',', '')}": ["classify", fmt, "--json"]
    for fmt in ("3,3,3", "2,4,4", "3,3,4", "3,3,3,3")
}
DIMS = {
    # the oracle refuses the 1419x1331 matrix: Unknown, exit 3
    "dim_101010_43": ["dim", "10,10,10", "43"],
    # the search gives up and the oracle fallback sees a deficit
    "dim_244_7": ["dim", "2,4,4", "7"],
}
REPORTS = {**SCANS, **CLASSIFIES, **DIMS}
# name -> (argv, certificate file name)
PROVES = {
    "prove_333_7": (["prove", "T(3,3,3;7)", "--json"], "cert.json"),
    "prove_233_5": (["prove", "T(2,3,3;5)"], "cert.json"),
    # undetermined: no certificate is written
    "prove_101010_43": (["prove", "T(10,10,10;43)", "--json"], "cert.json"),
}

_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def _mask(text: str) -> str:
    return _ELAPSED.sub('"elapsed_s": "masked"', text)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, _mask(out.getvalue())


def _expected(name: str) -> tuple[int, str]:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[name], (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_output(name, tmp_path):
    argv = REPORTS[name]
    want = _expected(name)
    assert _run(argv) == want
    # a cold cache run writes what a warm one reads back; both print the
    # same bytes as the uncached run
    cache = tmp_path / "verdicts.ldjson"
    assert _run(argv + ["--cache", str(cache)]) == want
    assert _run(argv + ["--cache", str(cache)]) == want


@pytest.mark.parametrize("name", sorted(PROVES))
def test_prove_output_and_certificate(name, tmp_path, monkeypatch):
    argv, cert_name = PROVES[name]
    monkeypatch.chdir(tmp_path)
    assert _run(argv + ["--out", cert_name]) == _expected(name)
    want = GOLDEN / f"{name}.cert.json"
    if not want.exists():
        assert not (tmp_path / cert_name).exists()
        return
    assert (tmp_path / cert_name).read_text() == want.read_text()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.cert.json")),
                         ids=lambda path: path.name)
def test_committed_certificate_verifies(path):
    assert verify(path.read_text())


README = Path(__file__).parent.parent / "README.md"


def test_readme_python_api_runs():
    # the README's Python API block, run as written
    text = README.read_text().split("\n## Python API\n", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


BENCH_SCAN = (Path(__file__).parent.parent / "perfbench" / "reference"
              / "scan_k3_n10_r60.txt")


def test_bench_scan_listing():
    # the benchmark's scan grid, checked here too so that a changed row
    # fails the test suite and not only a benchmark run; the reference
    # belongs to the benchmark and is only read, never regenerated here
    want = BENCH_SCAN.read_text()
    code, out = _run(["scan", "--k", "3", "--max-n", "10", "--max-r", "60"])
    assert out == want
    assert code == (3 if "Unknown" in want else 0)


def _capture() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in REPORTS.items():
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.txt").write_text(out)
    cwd = os.getcwd()
    for name, (argv, cert_name) in PROVES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                codes[name], out = _run(argv + ["--out", cert_name])
            finally:
                os.chdir(cwd)
            cert = Path(tmp) / cert_name
            if cert.exists():
                (GOLDEN / f"{name}.cert.json").write_text(cert.read_text())
        (GOLDEN / f"{name}.txt").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
