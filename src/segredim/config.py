"""Run configuration shared by the CLI and the library entry points."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .ffrank import DEFAULT_PRIME, MAX_CELLS, FieldConfig

DEFAULT_BUDGET_NODES = 50_000

TOOL_VERSION = "0.4.0"

CERT_VERSION = "cert-v2"


@dataclass(frozen=True)
class RunConfig(FieldConfig):
    """Every setting of a run: the oracle's, which it passes on as the
    FieldConfig it is, and the node budget of each search."""

    budget_nodes: int = DEFAULT_BUDGET_NODES

    # not a field (no annotation): None until digest() sets it, so that a
    # scan hashes its config once, not once per row it settles
    _digest = None

    def __post_init__(self):
        super().__post_init__()
        # every search runs under this budget; the CLI's --budget-nodes
        # rejects the same values
        n = self.budget_nodes
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"budget_nodes must be an int >= 1, got {n!r}")

    def digest(self) -> str:
        """Hash of every setting that can change a verdict, the oracle's
        cell cap included, of the certificate format that cert_refs depend
        on, and of the tool version, since a new rule changes cert_refs
        without changing any setting; cache records carry it.  Worked out
        once per instance, which is frozen."""
        if self._digest is not None:
            return self._digest
        payload = {
            "tool_version": TOOL_VERSION,
            "cert_version": CERT_VERSION,
            # the fixed plan (ffrank.PLAN), once settable: named as then,
            # so that every record a cache holds keeps its key
            "prime": DEFAULT_PRIME,
            "seed": self.seed,
            "retries": 1,
            "budget_nodes": self.budget_nodes,
            "max_cells": MAX_CELLS,
            "force": self.force,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()[:16]
        object.__setattr__(self, "_digest", digest)
        return digest
