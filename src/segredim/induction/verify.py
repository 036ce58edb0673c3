"""Independent certificate checking.

The verifier re-derives every step from the node's stored statement and
side conditions using the rule arithmetic alone; it never searches.  It
checks each node of the DAG once, children before parents, and works out
each node's verdict from its kind and its children's verdicts; the root's
verdict must be the certificate's.  Node checks are local, so a single
corrupted field is caught at the node that uses it, and the error names
that node's index in the certificate's node list.
"""
from __future__ import annotations

import json
from typing import Union

from ..ffrank import check_prime, recompute_rank, row_count
from ..formats import Statement, ambient_dim, json_int, target_dim
from . import certificate as cert
from . import rules
from .certificate import Certificate, CertNode


class VerificationError(Exception):
    """A certificate failed a check; `path` is the offending node's index
    in the certificate's node list."""

    def __init__(self, path: int, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"certificate node {path}: {message}")


def _fail(path: int, message: str):
    raise VerificationError(path, message)


def _need(condition: bool, path: int, message: str) -> None:
    if not condition:
        _fail(path, message)


def _child_count(node: CertNode, path: int, want: int) -> None:
    _need(len(node.children) == want, path,
          f"{node.kind} must have {want} children, found {len(node.children)}")


def _same_statement(a: Statement, b: Statement) -> bool:
    return a.key() == b.key()


def _witness_checks(node: CertNode, path: int) -> None:
    """Check a True rank-witness leaf: its fields against the statement,
    then its rank, recomputed from the witness's prime and seed."""
    w = node.witness
    _need(w is not None, path, "missing rank witness")
    st = node.statement
    _need(rules.known_false(st) is None, path,
          f"{node.kind} leaf contradicts the falsity catalog")
    _need(rules.two_factor_dim(st) in (None, target_dim(st)), path,
          f"{node.kind} leaf contradicts the two-factor closed form")
    _need(w.rank <= min(w.rows, w.cols), path,
          f"witness rank {w.rank} exceeds the {w.rows}x{w.cols} matrix")
    _need(w.rows == row_count(st), path,
          f"witness rows {w.rows} != configuration rows {row_count(st)}")
    _need(w.cols == ambient_dim(st.format), path,
          f"witness cols {w.cols} != ambient {ambient_dim(st.format)}")
    _need(w.target == target_dim(st), path,
          f"witness target {w.target} != expected dimension {target_dim(st)}")
    _need(w.rank == w.target, path,
          f"witness rank {w.rank} does not certify the target {w.target}")
    try:
        check_prime(w.prime)
    except ValueError as exc:
        _fail(path, f"witness modulus is not admissible: {exc}")
    try:
        rank = recompute_rank(st, w.prime, w.seed).rank
    except MemoryError:  # a forged witness can name any matrix size
        _fail(path, f"witness matrix {w.rows}x{w.cols} cannot be allocated")
    _need(rank == w.rank, path,
          f"oracle re-run gives rank {rank}, witness says {w.rank}")


def _check_split(node: CertNode, path: int) -> None:
    _child_count(node, path, 2)
    try:
        mode, c1, c2 = rules.split_mode(
            node.statement, rules.SplitChoice.parse(node.side_conditions))
    except rules.RuleError as exc:
        _fail(path, str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed split side conditions: {exc}")
    for got, want, idx in ((node.children[0].statement, c1, 0),
                          (node.children[1].statement, c2, 1)):
        if not _same_statement(got, want):
            _fail(path, f"child {idx} is {got}, split arithmetic gives {want}")
    if node.kind != mode:
        _fail(path, f"split arithmetic gives {mode}, node claims {node.kind}")


def _check_drop(node: CertNode, path: int, verdict: bool) -> None:
    """A drop node: rebuild its child from the side conditions through the
    rule and compare it with the stored child."""
    st, sc = node.statement, node.side_conditions
    try:
        slot = json_int(sc["slot"])
        if node.kind == cert.DROP_ZERO_FACTOR:
            want = rules.drop_zero_factor(st, slot)
        else:
            # False passes through only where the drop is an equivalence
            want = rules.drop_conditions(st, slot,
                                         require_subabundant=verdict is False)
            if json_int(sc["dropped"]) != st.a[slot]:
                raise rules.RuleError(f"dropped {sc['dropped']} conditions, "
                                      f"slot {slot} carries {st.a[slot]}")
    except rules.RuleError as exc:
        _fail(path, str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed {node.kind} side conditions: {exc}")
    got = node.children[0].statement
    if not _same_statement(got, want):
        _fail(path, f"child is {got}, side conditions give {want}")


def _check_falsity_leaf(node: CertNode, path: int) -> None:
    reason = rules.known_false(node.statement)
    _need(reason is not None, path,
          f"{node.statement} is not in any falsity catalog")
    # compared as JSON, so that 44.0 or true does not pass for an int
    got = json.dumps([node.kind, node.table_id, node.side_conditions],
                     sort_keys=True)
    want = json.dumps([reason.kind, reason.table_id, reason.data],
                      sort_keys=True)
    _need(got == want, path, f"falsity leaf {got}, catalog gives {want}")


def _check_two_factor(node: CertNode, path: int) -> bool:
    leaf = rules.two_factor_leaf(node.statement)
    _need(leaf is not None, path,
          f"{node.statement} has more than two positive factors")
    verdict, conds = leaf
    # compared as JSON, like the falsity leaves
    got = json.dumps(node.side_conditions, sort_keys=True)
    want = json.dumps(conds, sort_keys=True)
    _need(got == want, path, f"two_factor leaf {got}, closed form gives {want}")
    return verdict


def _check_trivial(node: CertNode, path: int) -> None:
    why = rules.trivial_truth(node.statement)
    _need(why is not None, path, f"{node.statement} is not trivially true")
    _need(node.reason == why, path,
          f"trivial reason {node.reason!r} should be {why!r}")


def _check_node(node: CertNode, path: int, below: list) -> bool:
    """Check one node whose children concluded `below`; return its verdict."""
    kind = node.kind
    _need(kind in cert.ALL_KINDS, path, f"unknown kind {kind!r}")
    if kind in cert.SPLIT_KINDS:
        _check_split(node, path)
        _need(all(below), path, f"{kind} needs both children True")
        return True
    if kind in (cert.DROP_CONDITIONS, cert.DROP_ZERO_FACTOR):
        _child_count(node, path, 1)
        _check_drop(node, path, below[0])
        return below[0]
    _child_count(node, path, 0)
    if kind == cert.ORACLE:
        _witness_checks(node, path)
        return True
    if kind in cert.FALSE_KINDS:
        _check_falsity_leaf(node, path)
        return False
    if kind == cert.TWO_FACTOR:
        return _check_two_factor(node, path)
    _check_trivial(node, path)
    return True


def verify(certificate: Union[Certificate, dict, str]) -> bool:
    """Check every node of a certificate; True on success.

    Raises VerificationError naming the first failing node.  Rank
    witnesses are recomputed from their recorded (prime, seed), once per
    witness node; no rank is taken on trust.
    """
    if isinstance(certificate, str):
        certificate = Certificate.loads(certificate)
    elif isinstance(certificate, dict):
        certificate = Certificate.from_json(certificate)
    root = certificate.root
    _need(_same_statement(certificate.statement, root.statement),
          len(certificate.nodes) - 1,
          f"root node proves {root.statement}, certificate claims "
          f"{certificate.statement}")
    verdicts: dict[str, bool] = {}
    for path, node in enumerate(certificate.nodes):
        below = [verdicts[c.digest] for c in node.children]
        verdicts[node.digest] = _check_node(node, path, below)
    _need(verdicts[root.digest] == certificate.verdict, path,
          f"root concludes {verdicts[root.digest]}, certificate claims "
          f"{certificate.verdict}")
    return True


def is_valid(certificate) -> bool:
    """Boolean form of verify: False instead of an exception."""
    try:
        return verify(certificate)
    except (VerificationError, cert.CertificateFormatError, ValueError):
        return False
