"""Append-only verdict cache, one JSON record per line.

Records are keyed by canonical statement text plus a digest of the run
configuration, so results from a different seed, budget or certificate
format never alias.
The file is human-diffable and safe to truncate; unreadable lines are
skipped on load.
"""
from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from .config import TOOL_VERSION
from .formats import Statement

_SHA256 = re.compile(r"[0-9a-f]{64}")


class CacheConflictError(RuntimeError):
    """A new verdict contradicts the record held for the same statement
    and config digest."""


@dataclass(frozen=True)
class CacheRecord:
    statement: str
    verdict: bool
    cert_sha256: str
    tool_version: str
    timestamp: str
    config_digest: str

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "CacheRecord":
        verdict, sha = data["verdict"], data["cert_sha256"]
        # a loose type makes the line unreadable; it is never coerced
        if type(verdict) is not bool or not _SHA256.fullmatch(str(sha)):
            raise ValueError(f"bad verdict {verdict!r} or cert_sha256 {sha!r}")
        return CacheRecord(
            statement=str(data["statement"]),
            verdict=verdict,
            cert_sha256=sha,
            tool_version=str(data.get("tool_version", "")),
            timestamp=str(data.get("timestamp", "")),
            config_digest=str(data["config_digest"]),
        )


def _key_text(statement: Union[Statement, str]) -> str:
    if isinstance(statement, Statement):
        return statement.key()
    return statement


class VerdictCache:
    """Loads the whole file once; put() appends and flushes immediately."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._records: dict[tuple[str, str], CacheRecord] = {}
        if self.path.exists():
            # each line decodes on its own, so one that is not UTF-8
            # (UnicodeDecodeError is a ValueError) is skipped like the rest
            for line in self.path.read_bytes().splitlines():
                try:
                    rec = CacheRecord.from_json(json.loads(line.decode()))
                except (ValueError, KeyError, TypeError):
                    continue
                self._records[(rec.statement, rec.config_digest)] = rec

    def __len__(self) -> int:
        return len(self._records)

    def get(self, statement: Union[Statement, str],
            config_digest: str) -> Optional[CacheRecord]:
        return self._records.get((_key_text(statement), config_digest))

    def put(self, statement: Union[Statement, str], verdict: bool,
            certificate, config_digest: str) -> CacheRecord:
        text = _key_text(statement)
        rec = CacheRecord(
            statement=text,
            verdict=bool(verdict),
            cert_sha256=certificate.root.digest,
            tool_version=TOOL_VERSION,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            config_digest=config_digest,
        )
        existing = self._records.get((text, config_digest))
        if existing is not None and existing.verdict != rec.verdict:
            raise CacheConflictError(
                f"cache conflict for {text}: stored {existing.verdict}, "
                f"new {rec.verdict}")
        self._records[(text, config_digest)] = rec
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            fh.flush()
        return rec
