"""Self-tests for the benchmark's checkers, failure tally and span arithmetic.

Run from the root of a checkout:  python3 perfbench/selftest.py
Each checker must pass the recorded reference output and reject a doctored
copy of it, and a rejected operation must show up in fail_ratio.
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402

REFERENCE = checks.SCAN_REFERENCE.read_text()
DEFECTIVE_ROW = "  (2,2,2) s=4: expected 27, certified 26, Defective"
UNKNOWN_ROW = "  (10,10,10) s=43: expected 1331, certified ?, Unknown"
PROVED = f"TRUE {checks.PROVE_STATEMENT} oracle=896 table_true=6382 trivial=18\n"
VERIFIED = f"certificate OK: TRUE {checks.PROVE_STATEMENT}\n"


def replace_row(listing: str, old: str, new: str) -> str:
    assert old in listing.splitlines()
    return listing.replace(old + "\n", new + "\n" if new else "")


def with_header(listing: str) -> str:
    lines = listing.splitlines()
    header = lines[0].rsplit("(", 1)[0] + f"({len(lines) - 1} hits)"
    return "\n".join([header] + lines[1:]) + "\n"


class ScanChecks(unittest.TestCase):
    def test_reference_passes(self):
        self.assertEqual(checks.check_scan(3, REFERENCE, REFERENCE), [])
        self.assertEqual(checks.count_unknown(REFERENCE), 5)

    def test_flipped_status_rejected(self):
        doctored = replace_row(REFERENCE, DEFECTIVE_ROW,
                               DEFECTIVE_ROW.replace("Defective", "Evidence-Defective"))
        self.assertTrue(checks.check_scan(3, doctored, REFERENCE))

    def test_missing_row_rejected(self):
        doctored = with_header(replace_row(REFERENCE, DEFECTIVE_ROW, ""))
        self.assertTrue(checks.check_scan(3, doctored, REFERENCE))

    def test_extra_row_rejected(self):
        extra = "  (3,3,3) s=5: expected 35, certified 34, Defective"
        doctored = with_header(REFERENCE + extra + "\n")
        self.assertTrue(checks.check_scan(3, doctored, REFERENCE))

    def test_header_count_checked(self):
        doctored = REFERENCE.replace("(100 hits)", "(99 hits)")
        self.assertTrue(checks.check_scan(3, doctored, REFERENCE))

    def test_exit_code_follows_unknown_rows(self):
        self.assertTrue(checks.check_scan(0, REFERENCE, REFERENCE))
        resolved = with_header(replace_row(REFERENCE, UNKNOWN_ROW, ""))
        self.assertEqual(checks.count_unknown(resolved), 4)
        self.assertEqual(checks.check_scan(3, resolved, REFERENCE), [])
        settled = REFERENCE
        for line in REFERENCE.splitlines():
            if line.endswith(", Unknown"):
                settled = replace_row(settled, line, line.replace(
                    "certified ?, Unknown", "certified 1, Defective"))
        self.assertEqual(checks.check_scan(0, settled, REFERENCE), [])
        self.assertTrue(checks.check_scan(3, settled, REFERENCE))

    def test_resume_listing_must_match(self):
        self.assertEqual(checks.check_same_listing(REFERENCE, REFERENCE), [])
        self.assertTrue(checks.check_same_listing(REFERENCE + "\n", REFERENCE))


class ProveVerifyChecks(unittest.TestCase):
    def test_reference_passes(self):
        self.assertEqual(checks.check_prove(0, PROVED), [])
        self.assertEqual(checks.check_verify(0, VERIFIED), [])

    def test_false_verdict_rejected(self):
        self.assertTrue(checks.check_prove(1, PROVED.replace("TRUE", "FALSE")))
        self.assertTrue(checks.check_prove(0, PROVED.replace("TRUE", "FALSE")))
        self.assertTrue(checks.check_prove(0, PROVED.replace("1074", "1075")))

    def test_failed_verify_rejected(self):
        self.assertTrue(checks.check_verify(1, ""))
        self.assertTrue(checks.check_verify(0, VERIFIED.replace("TRUE", "FALSE")))
        self.assertTrue(checks.check_verify(1, VERIFIED))


class OracleChecks(unittest.TestCase):
    def test_reference_passes(self):
        for text, (certified, rank) in checks.ORACLE_REFERENCE.items():
            self.assertEqual(checks.check_oracle(text, certified, rank), [])

    def test_wrong_rank_or_flag_rejected(self):
        self.assertTrue(checks.check_oracle("T(5,5,5,5;61)", True, 1280))
        self.assertTrue(checks.check_oracle("T(1,1,15,15;31)", False, 1021))
        self.assertTrue(checks.check_oracle("T(1,1,15,15;31)", True, 1022))


class FailRatio(unittest.TestCase):
    def test_doctored_outputs_are_counted(self):
        import worker

        runner = worker.Runner(None)
        runner.op(lambda: (0, PROVED), lambda r: checks.check_prove(*r))
        runner.op(lambda: (0, PROVED.replace("TRUE", "FALSE")),
                  lambda r: checks.check_prove(*r))
        runner.op(lambda: ("T(5,5,5,5;61)", True, 1280),
                  lambda r: checks.check_oracle(*r))
        self.assertEqual((runner.tally.attempted, runner.tally.failed), (3, 2))
        self.assertAlmostEqual(runner.tally.fail_ratio, 2 / 3)

    def test_exception_is_a_failure(self):
        import worker

        runner = worker.Runner(None)
        elapsed, result = runner.op(lambda: 1 / 0, lambda r: [])
        self.assertIsNone(result)
        self.assertEqual(runner.tally.failed, 1)
        self.assertIn("ZeroDivisionError", runner.tally.problems[0])


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = spans.Tracer()
        outer = t.begin("outer")
        inner = t.begin("inner")
        t.finish(inner)
        t.finish(outer)
        t.start[outer], t.end[outer] = 0.0, 10.0
        t.start[inner], t.end[inner] = 2.0, 5.0
        self.assertEqual(t.self_times(), {"outer": 7.0, "inner": 3.0})
        self.assertEqual(t.parent[inner], outer)

    def test_unreached_layers_are_absent(self):
        self.assertEqual(spans.layer_metrics(spans.Tracer()), {"trace.spans": 0})

    def test_elimination_ops(self):
        # 3x3 full rank: trailing blocks 2x3, 1x2, 0x1
        self.assertEqual(spans.elimination_ops(3, 3, 3), 2 * (6 + 2 + 0))
        self.assertEqual(spans.elimination_ops(5, 4, 0), 0)


if __name__ == "__main__":
    unittest.main()
