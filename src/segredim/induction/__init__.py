"""Inductive prover: rewrite rules, proof search, certificates, checking."""

from . import rules
from .certificate import (
    CERT_VERSION,
    Certificate,
    CertificateFormatError,
    CertNode,
)
from .rules import FalsityReason, RuleError, SplitChoice, known_false, trivial_truth
from .search import ProofEngine, Verdict, prove
from .verify import VerificationError, is_valid

__all__ = [
    "CERT_VERSION",
    "Certificate",
    "CertificateFormatError",
    "CertNode",
    "FalsityReason",
    "ProofEngine",
    "RuleError",
    "SplitChoice",
    "Verdict",
    "VerificationError",
    "is_valid",
    "known_false",
    "prove",
    "rules",
    "trivial_truth",
]
