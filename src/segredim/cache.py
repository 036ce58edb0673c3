"""Append-only verdict cache, one JSON record per line.

Records are keyed by canonical statement text plus a digest of the run
configuration, so results from a different seed, budget or certificate
format never alias.  A decided record holds a verdict and its
certificate's root digest, cert_sha256.  An undetermined record holds
verdict null, the search's Verdict.reason and the oracle's best
RankWitness, or a null witness where the oracle refused the matrix by
size; it has no cert_sha256, so a reader that knows only decided records
skips it.  A decided record beats an undetermined one for the same key,
whichever line comes first; otherwise the last line wins.
The file is human-diffable and safe to truncate; unreadable lines are
skipped on load.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from .config import TOOL_VERSION
from .ffrank import RankWitness
from .formats import Statement
from .induction.search import REASONS

_SHA256 = re.compile(r"[0-9a-f]{64}")


class CacheConflictError(RuntimeError):
    """A new verdict contradicts the record held for the same statement
    and config digest."""


@dataclass(frozen=True)
class CacheRecord:
    """One line of the file.  cert_sha256 is set exactly when verdict is;
    reason, and witness if the oracle ran, only when it is None."""

    statement: str
    verdict: Optional[bool]
    cert_sha256: Optional[str]
    tool_version: str
    timestamp: str
    config_digest: str
    reason: Optional[str] = None
    witness: Optional[RankWitness] = None

    def to_json(self) -> dict:
        out = {"statement": self.statement, "verdict": self.verdict,
               "tool_version": self.tool_version, "timestamp": self.timestamp,
               "config_digest": self.config_digest}
        if self.verdict is None:
            out["reason"] = self.reason
            out["witness"] = (None if self.witness is None
                              else self.witness.to_json())
        else:
            out["cert_sha256"] = self.cert_sha256
        return out

    @staticmethod
    def from_json(data: dict) -> "CacheRecord":
        statement, verdict = str(data["statement"]), data["verdict"]
        sha = reason = witness = None
        # a loose type makes the line unreadable; it is never coerced
        if verdict is None and "cert_sha256" not in data:
            reason, witness = data["reason"], data["witness"]
            if witness is not None:
                witness = RankWitness.from_json(witness)
            if reason not in REASONS:
                raise ValueError(f"unknown reason {reason!r}")
            if witness is not None and (witness.statement.key() != statement
                                        or not witness.rank < witness.target):
                raise ValueError(
                    f"witness of {witness.statement} at rank {witness.rank} "
                    f"of {witness.target} is no deficit of {statement}")
        else:
            sha = data["cert_sha256"]
            if type(verdict) is not bool or not _SHA256.fullmatch(str(sha)):
                raise ValueError(
                    f"bad verdict {verdict!r} or cert_sha256 {sha!r}")
        return CacheRecord(
            statement=statement,
            verdict=verdict,
            cert_sha256=sha,
            tool_version=str(data.get("tool_version", "")),
            timestamp=str(data.get("timestamp", "")),
            config_digest=str(data["config_digest"]),
            reason=reason,
            witness=witness,
        )


def _key_text(statement: Union[Statement, str]) -> str:
    if isinstance(statement, Statement):
        return statement.key()
    return statement


class VerdictCache:
    """Loads the whole file once; put() appends and flushes immediately,
    unless the file already holds the record or a decided one."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._records: dict[tuple[str, str], CacheRecord] = {}
        if self.path.exists():
            # each line decodes on its own, so one that is not UTF-8
            # (UnicodeDecodeError is a ValueError) or is nested past what
            # json can parse is skipped like the rest
            for line in self.path.read_bytes().splitlines():
                try:
                    rec = CacheRecord.from_json(json.loads(line.decode()))
                except (ValueError, KeyError, TypeError, RecursionError):
                    continue
                key = (rec.statement, rec.config_digest)
                held = self._records.get(key)
                if held is None or held.verdict is None or rec.verdict is not None:
                    self._records[key] = rec

    def __len__(self) -> int:
        return len(self._records)

    def get(self, statement: Union[Statement, str],
            config_digest: str) -> Optional[CacheRecord]:
        return self._records.get((_key_text(statement), config_digest))

    def put(self, statement: Union[Statement, str], verdict: Optional[bool],
            certificate, config_digest: str, *, reason: Optional[str] = None,
            witness: Optional[RankWitness] = None) -> CacheRecord:
        """Record a verdict and its certificate, or, with verdict None and
        no certificate, the search's reason and the oracle's best witness
        (None where it refused).  An undetermined put on a key that holds
        any record changes nothing; a decided one replaces an undetermined
        record, and one of the opposite verdict raises CacheConflictError."""
        text = _key_text(statement)
        existing = self._records.get((text, config_digest))
        if verdict is None and existing is not None:
            return existing
        rec = CacheRecord(
            statement=text,
            verdict=verdict,
            cert_sha256=None if verdict is None else certificate.root.digest,
            tool_version=TOOL_VERSION,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            config_digest=config_digest,
            reason=reason,
            witness=witness,
        )
        if existing is not None and existing.verdict is not None:
            if existing.verdict != verdict:
                raise CacheConflictError(
                    f"cache conflict for {text}: stored {existing.verdict}, "
                    f"new {verdict}")
            if existing.cert_sha256 == rec.cert_sha256:
                return existing  # the file holds this record already
        self._records[(text, config_digest)] = rec
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            fh.flush()
        return rec

    def discard(self, statement: Union[Statement, str],
                config_digest: str) -> None:
        """Forget the record held for a key, one that failed its recheck,
        so that the next put appends its replacement, the line that a
        later load keeps."""
        self._records.pop((_key_text(statement), config_digest), None)
