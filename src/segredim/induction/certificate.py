"""Certificate trees for the reduction engine.

A certificate is a self-contained derivation: every node carries the
statement it proves plus enough side data to re-check the step without
re-running the search.  Serialized form is versioned ("cert-v1").
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Optional

from ..formats import Statement, parse_statement
from ..ffrank import RankWitness

CERT_VERSION = "cert-v1"

# node kinds
SUB_SPLIT = "sub_split"
SUPER_SPLIT = "super_split"
EQUI_SPLIT = "equi_split"
DROP_CONDITIONS = "drop_conditions"
DROP_ZERO_FACTOR = "drop_zero_factor"
APPEND_ZERO_FACTOR = "append_zero_factor"
MONOTONE_FORMAT = "monotone_format"
MONOTONE_SA = "monotone_sa"
ORACLE = "oracle"
TABLE_TRUE = "table_true"
TABLE_FALSE = "table_false"
UNBALANCED_FALSE = "unbalanced_false"
FIBRATION_FALSE = "fibration_false"
TRIVIAL = "trivial"

ALL_KINDS = frozenset({
    SUB_SPLIT, SUPER_SPLIT, EQUI_SPLIT, DROP_CONDITIONS, DROP_ZERO_FACTOR,
    APPEND_ZERO_FACTOR, MONOTONE_FORMAT, MONOTONE_SA, ORACLE, TABLE_TRUE,
    TABLE_FALSE, UNBALANCED_FALSE, FIBRATION_FALSE, TRIVIAL,
})

# kinds that always conclude False; every other kind concludes True,
# except the drop rules which pass the child's verdict through.
FALSE_KINDS = frozenset({TABLE_FALSE, UNBALANCED_FALSE, FIBRATION_FALSE})
PASS_THROUGH_KINDS = frozenset({DROP_CONDITIONS, DROP_ZERO_FACTOR})


class CertificateFormatError(ValueError):
    """Raised when certificate JSON is structurally malformed."""


@dataclass(frozen=True)
class CertNode:
    kind: str
    statement: Statement
    side_conditions: dict = field(default_factory=dict)
    children: tuple = ()
    witness: Optional[RankWitness] = None
    table_id: Optional[str] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "kind": self.kind,
            "statement": str(self.statement.canonical()),
        }
        if self.side_conditions:
            out["side_conditions"] = dict(self.side_conditions)
        if self.children:
            out["children"] = [c.to_json() for c in self.children]
        if self.witness is not None:
            w = self.witness.to_json()
            w.pop("statement", None)
            out["witness"] = w
        if self.table_id is not None:
            out["table_id"] = self.table_id
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @staticmethod
    def from_json(data: dict) -> "CertNode":
        if not isinstance(data, dict):
            raise CertificateFormatError("node must be an object")
        try:
            kind = data["kind"]
            st = parse_statement(data["statement"])
        except (KeyError, ValueError, TypeError) as exc:
            raise CertificateFormatError(f"bad node header: {exc}") from exc
        if kind not in ALL_KINDS:
            raise CertificateFormatError(f"unknown node kind {kind!r}")
        children = tuple(CertNode.from_json(c) for c in data.get("children", ()))
        witness = None
        if "witness" in data:
            wd = dict(data["witness"])
            wd.setdefault("statement", str(st.canonical()))
            try:
                witness = RankWitness.from_json(wd)
            except (KeyError, ValueError, TypeError) as exc:
                raise CertificateFormatError(f"bad witness: {exc}") from exc
        return CertNode(
            kind=kind,
            statement=st,
            side_conditions=dict(data.get("side_conditions", {})),
            children=children,
            witness=witness,
            table_id=data.get("table_id"),
            reason=data.get("reason"),
        )

    def walk(self) -> Iterator["CertNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class Certificate:
    statement: Statement
    verdict: bool
    root: CertNode

    def to_json(self) -> dict:
        return {
            "version": CERT_VERSION,
            "statement": str(self.statement.canonical()),
            "verdict": self.verdict,
            "node": self.root.to_json(),
        }

    def dumps(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    @cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of dumps(), computed once per certificate; cache
        records store it and cert_ref is its first 12 digits."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise CertificateFormatError("certificate must be an object")
        if data.get("version") != CERT_VERSION:
            raise CertificateFormatError(
                f"unsupported certificate version {data.get('version')!r}")
        for key in ("statement", "verdict", "node"):
            if key not in data:
                raise CertificateFormatError(f"missing field {key!r}")
        if not isinstance(data["verdict"], bool):
            raise CertificateFormatError("verdict must be a boolean")
        try:
            st = parse_statement(data["statement"])
        except (ValueError, TypeError) as exc:
            raise CertificateFormatError(f"bad statement: {exc}") from exc
        return Certificate(st, data["verdict"], CertNode.from_json(data["node"]))

    @staticmethod
    def loads(text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateFormatError(f"not valid JSON: {exc}") from exc
        return Certificate.from_json(data)

    def walk(self) -> Iterator[CertNode]:
        return self.root.walk()

    def leaf_counts(self) -> dict:
        counts: dict[str, int] = {}
        for node in self.walk():
            if not node.children:
                counts[node.kind] = counts.get(node.kind, 0) + 1
        return dict(sorted(counts.items()))

    def max_oracle_cols(self) -> int:
        """Largest matrix width among oracle-backed leaves (0 if none)."""
        cols = [n.witness.cols for n in self.walk() if n.witness is not None]
        return max(cols, default=0)
