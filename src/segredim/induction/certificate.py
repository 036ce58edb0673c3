"""Certificates for the reduction engine, as hash-consed DAGs ("cert-v2").

A certificate is a self-contained derivation: every node carries the
statement it proves plus enough side data to re-check the step without
re-running the search.  The search shares one node per statement, and
the serialized form keeps that sharing: `nodes` lists each distinct node
once, children before parents, the root last, and a node names its
children by their index in that list.  A node's digest is the
SHA-256 of its canonical JSON with child digests in place of child
indices, so the root digest is a Merkle hash of the whole proof.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..config import CERT_VERSION
from ..formats import Statement, parse_statement
from ..ffrank import RankWitness

# node kinds
SUB_SPLIT = "sub_split"
SUPER_SPLIT = "super_split"
EQUI_SPLIT = "equi_split"
DROP_CONDITIONS = "drop_conditions"
DROP_ZERO_FACTOR = "drop_zero_factor"
ORACLE = "oracle"
TABLE_FALSE = "table_false"
UNBALANCED_FALSE = "unbalanced_false"
FIBRATION_FALSE = "fibration_false"
TRIVIAL = "trivial"
TWO_FACTOR = "two_factor"

SPLIT_KINDS = frozenset({SUB_SPLIT, SUPER_SPLIT, EQUI_SPLIT})
ALL_KINDS = SPLIT_KINDS | frozenset({
    DROP_CONDITIONS, DROP_ZERO_FACTOR, ORACLE, TABLE_FALSE, UNBALANCED_FALSE,
    FIBRATION_FALSE, TRIVIAL, TWO_FACTOR,
})


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

    def record(self, children: list) -> dict:
        """This node as a JSON object whose `children` entry is the given
        list (indices into a node list, or child digests); empty fields
        are left out."""
        witness = self.witness and {key: value for key, value in
                                    self.witness.to_json().items()
                                    if key != "statement"}
        out = {"kind": self.kind, "statement": self.statement.key(),
               "side_conditions": dict(self.side_conditions),
               "children": children, "witness": witness,
               "table_id": self.table_id, "reason": self.reason}
        return {key: value for key, value in out.items() if value}

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 of the node's canonical JSON, child digests in place
        of child indices; computed once per node object."""
        blob = json.dumps(self.record([c.digest for c in self.children]),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @staticmethod
    def parse(data, pos: int, earlier: list) -> "CertNode":
        """Node `pos` of a node list; `earlier` holds the nodes before it."""
        def bad(message: str):
            raise CertificateFormatError(f"node {pos}: {message}")

        if not isinstance(data, dict):
            bad("must be an object")
        try:
            kind = data["kind"]
            st = parse_statement(data["statement"])
        except (KeyError, ValueError, TypeError) as exc:
            bad(f"bad header: {exc}")
        if kind not in ALL_KINDS:
            bad(f"unknown node kind {kind!r}")
        refs = data.get("children", [])
        if not isinstance(refs, list) or not all(
                type(i) is int and 0 <= i < pos for i in refs):
            bad(f"children {refs!r} are not indices of earlier nodes")
        side_conditions = data.get("side_conditions", {})
        if not isinstance(side_conditions, dict):
            bad("side_conditions must be an object")
        witness = None
        if "witness" in data:
            try:
                witness = RankWitness.from_json(
                    {**data["witness"], "statement": str(st)})
            except (KeyError, ValueError, TypeError) as exc:
                bad(f"bad witness: {exc}")
        return CertNode(kind=kind, statement=st,
                        side_conditions=side_conditions,
                        children=tuple(earlier[i] for i in refs),
                        witness=witness, table_id=data.get("table_id"),
                        reason=data.get("reason"))


@dataclass(frozen=True)
class Certificate:
    statement: Statement
    verdict: bool
    root: CertNode

    @cached_property
    def nodes(self) -> tuple:
        """Distinct nodes (by digest), children before parents, root last."""
        order: dict[str, CertNode] = {}

        def visit(node: CertNode) -> None:
            if node.digest not in order:
                for child in node.children:
                    visit(child)
                order[node.digest] = node

        visit(self.root)
        return tuple(order.values())

    def to_json(self) -> dict:
        index = {node.digest: pos for pos, node in enumerate(self.nodes)}
        return {
            "version": CERT_VERSION,
            "statement": str(self.statement),
            "verdict": self.verdict,
            "nodes": [node.record([index[c.digest] for c in node.children])
                      for node in self.nodes],
        }

    def dumps(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise CertificateFormatError("certificate must be an object")
        if data.get("version") != CERT_VERSION:
            raise CertificateFormatError(
                f"unsupported certificate version {data.get('version')!r}")
        for key in ("statement", "verdict", "nodes"):
            if key not in data:
                raise CertificateFormatError(f"missing field {key!r}")
        if not isinstance(data["verdict"], bool):
            raise CertificateFormatError("verdict must be a boolean")
        try:
            st = parse_statement(data["statement"])
        except (ValueError, TypeError) as exc:
            raise CertificateFormatError(f"bad statement: {exc}") from exc
        if not isinstance(data["nodes"], list) or not data["nodes"]:
            raise CertificateFormatError("nodes must be a non-empty list")
        nodes: list[CertNode] = []
        position: dict[str, int] = {}
        for pos, item in enumerate(data["nodes"]):
            node = CertNode.parse(item, pos, nodes)
            if node.digest in position:
                raise CertificateFormatError(
                    f"node {pos} duplicates node {position[node.digest]}")
            position[node.digest] = pos
            nodes.append(node)
        used = {position[c.digest] for node in nodes for c in node.children}
        for pos in range(len(nodes) - 1):
            if pos not in used:
                raise CertificateFormatError(
                    f"node {pos} is not a child of any later node")
        cert = Certificate(st, data["verdict"], nodes[-1])
        cert.__dict__["nodes"] = tuple(nodes)   # keep the file's order
        return cert

    @staticmethod
    def loads(text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except ValueError as exc:   # JSONDecodeError, or an int past the digit limit
            raise CertificateFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise CertificateFormatError("JSON nested too deeply") from None
        return Certificate.from_json(data)

    def leaf_counts(self) -> dict:
        """Leaves per kind of the proof tree the DAG stands for, counted
        without expanding it."""
        below: dict[str, Counter] = {}
        for node in self.nodes:
            below[node.digest] = (
                sum((below[c.digest] for c in node.children), Counter())
                if node.children else Counter({node.kind: 1}))
        return dict(sorted(below[self.root.digest].items()))

    def max_oracle_cols(self) -> int:
        """Largest matrix width among oracle-backed leaves (0 if none)."""
        cols = [n.witness.cols for n in self.nodes if n.witness is not None]
        return max(cols, default=0)
