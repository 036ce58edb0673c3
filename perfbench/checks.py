"""Output checks for the benchmark workloads, and the failure tally.

Every checker takes what one operation produced and returns a list of
problems; an empty list means the output is correct.  The checkers import
nothing from segredim, so the self-tests can feed them doctored outputs.
"""
from __future__ import annotations

import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCAN_REFERENCE = REFERENCE_DIR / "scan_k3_n10_r60.txt"

EXIT_OK = 0
EXIT_UNDETERMINED = 3
UNKNOWN = "Unknown"

PROVE_STATEMENT = "T(15,15,15,15;1074;0,0,0,0)"

# statement -> (certified, best rank); independent of the seed
ORACLE_REFERENCE = {
    "T(3,3,3,3,3;64)": (True, 1024),
    "T(5,5,5,5;61)": (True, 1281),
    "T(1,1,15,15;31)": (False, 1022),
}

_HEADER = re.compile(r"^defective scan: k<=\d+ n<=\d+ s<=\d+  \((\d+) hits\)$")
_ROW = re.compile(r"^  \((?P<fmt>[\d,]+)\) s=(?P<s>\d+): expected \d+, "
                  r"certified (?:\d+|\?), (?P<status>[A-Za-z-]+)$")


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def scan_rows(listing: str) -> dict[tuple[str, int], str]:
    """(format, s) -> the row's line, for every row of a scan listing."""
    rows = {}
    for line in listing.splitlines()[1:]:
        m = _ROW.match(line)
        if m is None:
            raise ValueError(f"unparsable scan row: {line!r}")
        rows[(m["fmt"], int(m["s"]))] = line
    return rows


def row_status(line: str) -> str:
    return _ROW.match(line)["status"]


def count_unknown(listing: str) -> int:
    return sum(row_status(line) == UNKNOWN
               for line in scan_rows(listing).values())


def check_scan(code: int, listing: str, reference: str) -> list[str]:
    """Every row the reference settles must appear unchanged; a reference
    Unknown row may resolve to anything or vanish; nothing else may appear.
    Exit code 3 exactly when an Unknown row remains."""
    lines = listing.splitlines()
    if not lines or (m := _HEADER.match(lines[0])) is None:
        return ["scan listing has no header line"]
    try:
        got = scan_rows(listing)
    except ValueError as exc:
        return [str(exc)]
    want = scan_rows(reference)
    problems = []
    if int(m[1]) != len(got) or len(got) != len(lines) - 1:
        problems.append(f"header counts {m[1]} hits, listing has {len(lines) - 1}")
    for key, line in want.items():
        if row_status(line) == UNKNOWN:
            continue
        if got.get(key) != line:
            problems.append(f"row {key}: want {line.strip()!r}, "
                            f"got {got.get(key, 'nothing')!r}")
    for key, line in got.items():
        if key not in want:
            problems.append(f"unexpected row {line.strip()!r}")
    unknown = any(row_status(line) == UNKNOWN for line in got.values())
    want_code = EXIT_UNDETERMINED if unknown else EXIT_OK
    if code != want_code:
        problems.append(f"scan exit code {code}, want {want_code}")
    return problems


def check_same_listing(listing: str, baseline: str) -> list[str]:
    if listing != baseline:
        return ["listing is not byte-identical to the uncached scan"]
    return []


def check_prove(code: int, out: str) -> list[str]:
    first = out.splitlines()[0] if out else ""
    problems = []
    if code != EXIT_OK:
        problems.append(f"prove exit code {code}, want 0")
    if first != f"TRUE {PROVE_STATEMENT}" and \
            not first.startswith(f"TRUE {PROVE_STATEMENT} "):
        problems.append(f"prove printed {first!r}")
    return problems


def check_verify(code: int, out: str) -> list[str]:
    problems = []
    if code != EXIT_OK:
        problems.append(f"verify exit code {code}, want 0")
    if out.strip() != f"certificate OK: TRUE {PROVE_STATEMENT}":
        problems.append(f"verify printed {out.strip()!r}")
    return problems


def check_oracle(statement: str, certified: bool, rank: int) -> list[str]:
    want = ORACLE_REFERENCE[statement]
    if (certified, rank) != want:
        return [f"oracle {statement}: got (certified={certified}, "
                f"rank={rank}), want {want}"]
    return []
