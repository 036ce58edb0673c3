"""Independent certificate checking.

The verifier re-derives every step from the node's stored statement and
side conditions using the rule arithmetic alone; it never searches.  Node
checks are local, so a single corrupted field is caught at the node that
uses it, and the error names the path from the root.
"""
from __future__ import annotations

from typing import Optional, Union

from ..ffrank import check_prime, recompute_rank, row_count
from ..formats import Statement, ambient_dim, target_dim
from . import certificate as cert
from . import rules
from .certificate import Certificate, CertNode


class VerificationError(Exception):
    """A certificate failed a check; `path` locates the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"certificate node {path}: {message}")


def _fail(path: str, message: str):
    raise VerificationError(path, message)


def _need(condition: bool, path: str, message: str) -> None:
    if not condition:
        _fail(path, message)


def _child_count(node: CertNode, path: str, want: int) -> None:
    _need(len(node.children) == want, path,
          f"{node.kind} must have {want} children, found {len(node.children)}")


def _same_statement(a: Statement, b: Statement) -> bool:
    return a.canonical().key() == b.canonical().key()


def _witness_checks(node: CertNode, path: str,
                    rechecked: Optional[dict]) -> None:
    """Check a True rank-witness leaf.  With `rechecked` (a memo shared by
    one verify call) the rank is recomputed once per statement, prime and
    seed instead of being taken from the witness."""
    w = node.witness
    _need(w is not None, path, "missing rank witness")
    st = node.statement
    _need(rules.known_false(st) is None, path,
          f"{node.kind} leaf contradicts the falsity catalog")
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
    if rechecked is not None:
        key = (st.canonical().key(), w.prime, w.seed)
        if key not in rechecked:
            rechecked[key] = recompute_rank(st, w.prime, w.seed).rank
        _need(rechecked[key] == w.rank, path,
              f"oracle re-run gives rank {rechecked[key]}, witness says {w.rank}")


def _check_split(node: CertNode, path: str) -> None:
    _child_count(node, path, 2)
    try:
        choice = rules.SplitChoice.parse(node.side_conditions)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed split side conditions: {exc}")
    try:
        mode, c1, c2 = rules.split_mode(node.statement, choice)
    except rules.RuleError as exc:
        _fail(path, str(exc))
    for got, want, idx in ((node.children[0].statement, c1, 0),
                          (node.children[1].statement, c2, 1)):
        if not _same_statement(got, want):
            _fail(path, f"child {idx} is {got}, split arithmetic gives {want}")
    if node.kind != mode:
        _fail(path, f"split arithmetic gives {mode}, node claims {node.kind}")


def _rebuilt_child(node: CertNode, verdict: bool) -> Statement:
    st, sc = node.statement, node.side_conditions
    if node.kind == cert.DROP_ZERO_FACTOR:
        return rules.drop_zero_factor(st, int(sc["slot"]))
    if node.kind == cert.DROP_CONDITIONS:
        # False passes through only where the drop is an equivalence
        return rules.drop_conditions(st, int(sc["slot"]),
                                     require_subabundant=verdict is False)
    return rules.monotone_source(node.kind, st, sc)


def _check_one_child(node: CertNode, path: str, verdict: bool) -> None:
    """A drop or monotone node: rebuild its child from the side conditions
    through the rule and compare it with the stored child."""
    _child_count(node, path, 1)
    try:
        want = _rebuilt_child(node, verdict)
    except rules.RuleError as exc:
        _fail(path, str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed {node.kind} side conditions: {exc}")
    got = node.children[0].statement
    if not _same_statement(got, want):
        _fail(path, f"child is {got}, side conditions give {want}")


def _check_append_zero_factor(node: CertNode, path: str) -> None:
    _child_count(node, path, 1)
    try:
        extra = int(node.side_conditions["extra"])
        grown = rules.append_zero_factor(node.children[0].statement, extra)
    except (KeyError, TypeError, ValueError) as exc:
        _fail(path, f"bad append count: {exc}")
    except rules.RuleError as exc:
        _fail(path, str(exc))
    _need(_same_statement(node.statement, grown), path,
          "statement does not match the child with a point factor appended")


def _check_falsity_leaf(node: CertNode, path: str) -> None:
    reason = rules.known_false(node.statement)
    _need(reason is not None, path,
          f"{node.statement} is not in any falsity catalog")
    _need(reason.kind == node.kind, path,
          f"falsity source is {reason.kind}, node claims {node.kind}")
    if node.kind == cert.TABLE_FALSE:
        _need(node.table_id == reason.table_id, path,
              f"table id {node.table_id!r} does not match {reason.table_id!r}")


def _check_table_true(node: CertNode, path: str,
                      rechecked: Optional[dict]) -> None:
    st = node.statement
    _need(st.format.k == 3 and max(st.format.dims) <= 2, path,
          "table_true leaf outside the three-factor base domain")
    _witness_checks(node, path, rechecked)


def _check_trivial(node: CertNode, path: str) -> None:
    why = rules.trivial_truth(node.statement)
    _need(why is not None, path, f"{node.statement} is not trivially true")
    _need(node.reason == why, path,
          f"trivial reason {node.reason!r} should be {why!r}")


def _check_node(node: CertNode, verdict: bool, path: str,
                rechecked: Optional[dict]) -> None:
    if node.kind not in cert.ALL_KINDS:
        _fail(path, f"unknown kind {node.kind!r}")
    if node.kind in cert.FALSE_KINDS:
        _need(verdict is False, path, f"{node.kind} cannot conclude True")
    elif node.kind not in cert.PASS_THROUGH_KINDS:
        _need(verdict is True, path, f"{node.kind} cannot conclude False")

    if node.kind in (cert.SUB_SPLIT, cert.SUPER_SPLIT, cert.EQUI_SPLIT):
        _check_split(node, path)
    elif node.kind in (cert.DROP_CONDITIONS, cert.DROP_ZERO_FACTOR,
                       cert.MONOTONE_FORMAT, cert.MONOTONE_SA):
        _check_one_child(node, path, verdict)
    elif node.kind == cert.APPEND_ZERO_FACTOR:
        _check_append_zero_factor(node, path)
    elif node.kind == cert.ORACLE:
        _child_count(node, path, 0)
        _witness_checks(node, path, rechecked)
    elif node.kind == cert.TABLE_TRUE:
        _child_count(node, path, 0)
        _check_table_true(node, path, rechecked)
    elif node.kind in cert.FALSE_KINDS:
        _child_count(node, path, 0)
        _check_falsity_leaf(node, path)
    else:
        _child_count(node, path, 0)
        _check_trivial(node, path)

    for idx, child in enumerate(node.children):
        _check_node(child, verdict, f"{path}.{idx}", rechecked)


def verify(certificate: Union[Certificate, dict, str],
           recheck_oracle: bool = True) -> bool:
    """Check every node of a certificate; True on success.

    Raises VerificationError naming the first failing node.  Rank
    witnesses are recomputed from their recorded (prime, seed), once per
    distinct (statement, prime, seed).  recheck_oracle=False is the
    structural-only mode: it takes each witness's rank at face value.
    """
    if isinstance(certificate, str):
        certificate = Certificate.loads(certificate)
    elif isinstance(certificate, dict):
        certificate = Certificate.from_json(certificate)
    root = certificate.root
    _need(_same_statement(certificate.statement, root.statement), "root",
          f"root node proves {root.statement}, certificate claims "
          f"{certificate.statement}")
    _check_node(root, certificate.verdict, "root",
                {} if recheck_oracle else None)
    return True


def is_valid(certificate, recheck_oracle: bool = True) -> bool:
    """Boolean form of verify: False instead of an exception."""
    try:
        return verify(certificate, recheck_oracle=recheck_oracle)
    except (VerificationError, cert.CertificateFormatError, ValueError):
        return False
