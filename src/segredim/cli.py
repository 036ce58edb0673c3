"""Command-line surface.

Subcommands: dim, prove, classify, scan, verify.  All randomness flows
from --seed, and the oracle's primes are fixed (ffrank.PLAN); every number
a command prints is reproducible from the flags, except the wall time
prove --json reports as stats.elapsed_s.
Exit codes: 0 success/true, 1 false or verification failure, 2 usage,
3 undetermined.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import classify as cls
from .cache import CacheConflictError, VerdictCache
from .config import DEFAULT_BUDGET_NODES, RunConfig, TOOL_VERSION
from .ffrank import MAX_CELLS
from .formats import (
    ParseError,
    ambient_dim,
    expected_secant_dim,
    parse_format,
    parse_statement,
)
from .induction import (
    CertificateFormatError,
    Certificate,
    ProofEngine,
    VerificationError,
)
from .induction.verify import verify

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3


def _positive(text: str) -> int:
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; all point draws derive from it")
    p.add_argument("--budget-nodes", type=_positive,
                   default=DEFAULT_BUDGET_NODES,
                   help="proof search node budget")
    p.add_argument("--cache", metavar="PATH", default=None,
                   help="verdict cache file (line-delimited JSON)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--force", action="store_true",
                   help=f"run oracle matrices past the {MAX_CELLS}-cell cap")


def _engine(args: argparse.Namespace) -> ProofEngine:
    """The command's one engine: its config holds every setting of the run."""
    return ProofEngine(RunConfig(seed=args.seed,
                                 budget_nodes=args.budget_nodes,
                                 force=args.force))


def _cache(args: argparse.Namespace) -> Optional[VerdictCache]:
    return VerdictCache(args.cache) if args.cache else None


# --- dim ------------------------------------------------------------------


def cmd_dim(args: argparse.Namespace) -> int:
    fmt = parse_format(args.format)
    if args.s < 1:
        print(f"error: secant index must be >= 1, got {args.s}", file=sys.stderr)
        return EXIT_USAGE
    row = cls.resolve_secant(fmt, args.s, _engine(args), _cache(args))
    positive = sum(1 for n in fmt.dims if n > 0)
    if args.json:
        print(json.dumps(row.record(fmt), sort_keys=True))
    else:
        exp_aff, exp_proj = expected_secant_dim(fmt, args.s)
        print(f"format ({fmt})  s={args.s}  ambient affine {ambient_dim(fmt)}")
        print(f"expected:  affine {exp_aff}  projective {exp_proj}")
        if row.lower is not None and row.lower == row.upper:
            print(f"certified: affine {row.lower}  projective {row.lower - 1}")
        elif row.lower is not None:
            print(f"certified: affine >= {row.lower} (upper bound {row.upper})")
        else:
            print("certified: none")
        status = row.status
        if row.status == cls.DEFECTIVE and row.defect is not None:
            status = f"Defective({row.defect})"
        print(f"status: {status} [{row.source}]")
        if positive < 3:
            print("note: fewer than three effective factors; outside the "
                  "classified grids")
        if row.note:
            print(f"note: {row.note}")
    return EXIT_UNDETERMINED if row.status == cls.UNKNOWN else EXIT_OK


# --- prove ----------------------------------------------------------------


def _leaf_summary(certificate: Certificate) -> str:
    counts = certificate.leaf_counts()
    return " ".join(f"{k}={counts[k]}" for k in sorted(counts))


def cmd_prove(args: argparse.Namespace) -> int:
    st = parse_statement(args.statement)
    cache = _cache(args)
    engine = _engine(args)
    v = engine.prove(st)
    out_path = Path(args.out)
    if v.status is None:
        word = "UNDETERMINED"
        summary = f"{word} {st.canonical()} -"
        if args.json:
            rec = {
                "verdict": None,
                "statement": str(st.canonical()),
                "stats": v.stats,
                "reason": v.reason,
            }
            if v.evidence is not None:
                w = v.evidence.witness
                rec["evidence"] = {"rank": w.rank, "target": w.target}
            print(json.dumps(rec, sort_keys=True))
        else:
            print(summary)
            print(f"undetermined: {v.reason}", file=sys.stderr)
            if v.evidence is not None:
                w = v.evidence.witness
                print(f"best oracle evidence: rank {w.rank} of target "
                      f"{w.target} (not a proof)", file=sys.stderr)
        return EXIT_UNDETERMINED
    # the certificate first: a cache record must not point at a file that
    # failed to be written
    out_path.write_text(v.certificate.dumps() + "\n")
    if cache is not None:
        cache.put(st, v.status, v.certificate, engine.config.digest())
    word = "TRUE" if v.status else "FALSE"
    if args.json:
        print(json.dumps({
            "verdict": v.status,
            "statement": str(st.canonical()),
            "leaf_counts": dict(v.certificate.leaf_counts()),
            "certificate": str(out_path),
            "stats": v.stats,
        }, sort_keys=True))
    else:
        print(f"{word} {st.canonical()} {_leaf_summary(v.certificate)}")
        print(f"certificate written to {out_path}", file=sys.stderr)
    return EXIT_OK if v.status else EXIT_FALSE


# --- classify -------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    fmt = parse_format(args.format)
    engine = _engine(args)
    cache = _cache(args)
    profile = cls.secant_profile(fmt, args.max_s, engine, cache)
    perf = cls.perfect_check(fmt, engine, cache)
    if args.json:
        for rec in profile.records():
            print(json.dumps(rec, sort_keys=True))
        print(json.dumps({
            "format": str(fmt),
            "typical_rank": profile.typical_rank,
            "typical_rank_status": profile.typical_rank_status,
            "perfect": perf.status,
        }, sort_keys=True))
    else:
        print(cls.render_profile(profile))
        print(f"perfect: {perf.status}"
              + (f" [{perf.source}]" if perf.source else ""))
    if profile.typical_rank_status == "unknown":
        return EXIT_UNDETERMINED
    return EXIT_OK


# --- scan -----------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    if args.k < 3 or args.max_n < 1 or args.max_r < 1:
        print("error: scan needs --k >= 3, --max-n >= 1, --max-r >= 1",
              file=sys.stderr)
        return EXIT_USAGE
    report = cls.defective_scan(args.k, args.max_n, args.max_r,
                                _engine(args), _cache(args))
    if args.json:
        for rec in report.records():
            print(json.dumps(rec, sort_keys=True))
    else:
        print(cls.render_scan(report))
    if any(h.status == cls.UNKNOWN for h in report.hits):
        return EXIT_UNDETERMINED
    return EXIT_OK


# --- verify ---------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cert = Certificate.loads(Path(args.certificate).read_text(encoding="utf-8"))
        verify(cert)
    except (CertificateFormatError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"verification failed: malformed certificate: {exc}",
              file=sys.stderr)
        return EXIT_FALSE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FALSE
    verdict = "TRUE" if cert.verdict else "FALSE"
    if args.json:
        print(json.dumps({
            "verified": True,
            "verdict": cert.verdict,
            "statement": str(cert.statement.canonical()),
        }, sort_keys=True))
    else:
        print(f"certificate OK: {verdict} {cert.statement.canonical()}")
    return EXIT_OK


# --- entry ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segredim",
        description="Dimensions of secant varieties of Segre varieties: "
                    "modular rank oracle, inductive prover, format reports.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="expected and certified secant dimension")
    p.add_argument("format", help="factor dimensions, e.g. 2,3,3 or 3^4")
    p.add_argument("s", type=int, help="secant index")
    _add_common_flags(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("prove", help="prove a statement, emit a certificate")
    p.add_argument("statement", help='e.g. "T(3,3,3;7)" or "T(2,2,2;3;0,1,1)"')
    p.add_argument("--out", default="cert.json",
                   help="certificate output path (default cert.json)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("classify", help="secant profile of one format")
    p.add_argument("format")
    p.add_argument("--max-s", type=_positive, default=None,
                   help="cap the secant sweep")
    _add_common_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="grid scan for defective formats")
    p.add_argument("--k", type=int, required=True,
                   help="largest factor count (grid runs k=3..K)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-r", type=int, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("certificate")
    p.add_argument("--recheck", action="store_true",
                   help="recompute every rank witness from its prime/seed "
                        "(the default; accepted for compatibility)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; surface the code so
        # embedders calling main() directly get a return value instead.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, CacheConflictError, ParseError) as exc:
        # an unreadable cache or certificate, an unwritable output path, a
        # cache record of the opposite verdict or an unparsable format or
        # statement is a usage error: exit 1 would read as a false verdict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
