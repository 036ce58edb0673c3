"""Run configuration shared by the CLI and the library entry points."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .ffrank import DEFAULT_MAX_CELLS, DEFAULT_PRIME, FALLBACK_PRIME, FieldConfig

DEFAULT_BUDGET_NODES = 50_000
DEFAULT_BUDGET_COLS = 4_096

TOOL_VERSION = "0.1.0"

CERT_VERSION = "cert-v2"


@dataclass(frozen=True)
class RunConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0
    retries: int = 3
    budget_nodes: int = DEFAULT_BUDGET_NODES
    budget_cols: int = DEFAULT_BUDGET_COLS
    max_cells: int = DEFAULT_MAX_CELLS
    force: bool = False

    def field_config(self) -> FieldConfig:
        return FieldConfig(
            prime=self.prime,
            seed=self.seed,
            retries=self.retries,
            fallback_prime=FALLBACK_PRIME,
            max_cells=self.max_cells,
            force=self.force,
        )

    def digest(self) -> str:
        """Hash of every field that can change a verdict, and of the
        certificate format that cert_refs depend on; cache records carry it."""
        payload = {
            "cert_version": CERT_VERSION,
            "prime": self.prime,
            "seed": self.seed,
            "retries": self.retries,
            "budget_nodes": self.budget_nodes,
            "budget_cols": self.budget_cols,
            "max_cells": self.max_cells,
            "force": self.force,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)
