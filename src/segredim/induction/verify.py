"""Independent certificate checking.

The verifier re-derives every step from the node's stored statement and
side conditions using the rule arithmetic alone; it never searches.  Node
checks are local, so a single corrupted field is caught at the node that
uses it, and the error names the path from the root.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Optional, Union

from ..ffrank import check_prime, recompute_rank, row_count
from ..formats import (
    Statement,
    ambient_dim,
    is_subabundant,
    is_superabundant,
    parameter_count,
    target_dim,
)
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


def _grouped_dominance(parent_pairs, child_pairs, key_idx: int, cmp_idx: int,
                       parent_at_least: bool) -> bool:
    """Is there a slot bijection with equal key component and a dominance
    on the other component?  Sorted pairing within a key group is exact."""
    gp = defaultdict(list)
    gc = defaultdict(list)
    for pair in parent_pairs:
        gp[pair[key_idx]].append(pair[cmp_idx])
    for pair in child_pairs:
        gc[pair[key_idx]].append(pair[cmp_idx])
    if set(gp) != set(gc):
        return False
    for key, pvals in gp.items():
        cvals = gc[key]
        if len(pvals) != len(cvals):
            return False
        for p, c in zip(sorted(pvals), sorted(cvals)):
            if parent_at_least and p < c:
                return False
            if not parent_at_least and p > c:
                return False
    return True


def _check_split(node: CertNode, path: str) -> None:
    _child_count(node, path, 2)
    sc = node.side_conditions
    try:
        choice = rules.SplitChoice(
            slot=int(sc["slot"]),
            n_parts=tuple(int(x) for x in sc["n_parts"]),
            s_parts=tuple(int(x) for x in sc["s_parts"]),
            a_parts=(tuple(int(x) for x in sc["a_parts"][0]),
                     tuple(int(x) for x in sc["a_parts"][1])),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed split side conditions: {exc}")
    try:
        c1, c2 = rules.split_children(node.statement, choice)
    except rules.RuleError as exc:
        _fail(path, str(exc))
    for got, want, idx in ((node.children[0].statement, c1, 0),
                          (node.children[1].statement, c2, 1)):
        _need(_same_statement(got, want), path,
              f"child {idx} is {got}, split arithmetic gives {want}")
    if node.kind == cert.SUB_SPLIT:
        _need(is_subabundant(c1) and is_subabundant(c2), path,
              "children of a subabundant split must both be subabundant")
    elif node.kind == cert.SUPER_SPLIT:
        _need(is_superabundant(c1) and is_superabundant(c2), path,
              "children of a superabundant split must both be superabundant")
    else:
        st = node.statement
        _need(parameter_count(st) == ambient_dim(st.format), path,
              "equiabundant split on a non-equiabundant statement")
        for c in (c1, c2):
            _need(parameter_count(c) == ambient_dim(c.format), path,
                  "equiabundant split with a non-equiabundant child")


def _check_drop_conditions(node: CertNode, path: str, verdict: bool) -> None:
    _child_count(node, path, 1)
    st = node.statement
    try:
        slot = int(node.side_conditions["slot"])
        child = rules.drop_conditions(st, slot, require_subabundant=False)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"bad drop slot: {exc}")
    except rules.RuleError as exc:
        _fail(path, str(exc))
    _need(_same_statement(node.children[0].statement, child), path,
          "child statement does not match the dropped-conditions form")
    if verdict is False:
        # the equivalence direction needs independence of generic points,
        # which holds below the ambient dimension only
        _need(is_subabundant(st), path,
              "False cannot pass through drop_conditions on a "
              "superabundant statement")


def _check_drop_zero_factor(node: CertNode, path: str) -> None:
    _child_count(node, path, 1)
    try:
        slot = int(node.side_conditions["slot"])
        child = rules.drop_zero_factor(node.statement, slot)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"bad drop slot: {exc}")
    except rules.RuleError as exc:
        _fail(path, str(exc))
    _need(_same_statement(node.children[0].statement, child), path,
          "child statement does not match the factor-dropped form")


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


def _check_monotone_format(node: CertNode, path: str) -> None:
    _child_count(node, path, 1)
    parent, child = node.statement, node.children[0].statement
    _need(parent.s == child.s, path, "tangent count must be preserved")
    pp = list(zip(parent.format.dims, parent.a))
    cp = list(zip(child.format.dims, child.a))
    _need(len(pp) == len(cp), path, "factor count must be preserved")
    lift = (_grouped_dominance(pp, cp, key_idx=1, cmp_idx=0, parent_at_least=True)
            and is_subabundant(child))
    descend = (_grouped_dominance(pp, cp, key_idx=1, cmp_idx=0, parent_at_least=False)
               and is_superabundant(child))
    _need(lift or descend, path,
          "format move matches neither the subabundant lift nor the "
          "superabundant descent")


def _check_monotone_sa(node: CertNode, path: str) -> None:
    _child_count(node, path, 1)
    parent, child = node.statement, node.children[0].statement
    _need(sorted(parent.format.dims) == sorted(child.format.dims), path,
          "point-count move must stay on the same format")
    pp = list(zip(parent.format.dims, parent.a))
    cp = list(zip(child.format.dims, child.a))
    down = (parent.s <= child.s
            and _grouped_dominance(pp, cp, key_idx=0, cmp_idx=1,
                                   parent_at_least=False)
            and is_subabundant(child))
    up = (parent.s >= child.s
          and _grouped_dominance(pp, cp, key_idx=0, cmp_idx=1,
                                 parent_at_least=True)
          and is_superabundant(child))
    _need(down or up, path,
          "point-count move matches neither monotone direction")


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
    elif node.kind == cert.DROP_CONDITIONS:
        _check_drop_conditions(node, path, verdict)
    elif node.kind == cert.DROP_ZERO_FACTOR:
        _check_drop_zero_factor(node, path)
    elif node.kind == cert.APPEND_ZERO_FACTOR:
        _check_append_zero_factor(node, path)
    elif node.kind == cert.MONOTONE_FORMAT:
        _check_monotone_format(node, path)
    elif node.kind == cert.MONOTONE_SA:
        _check_monotone_sa(node, path)
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
           recheck_oracle: bool = False) -> bool:
    """Check every node of a certificate; True on success.

    Raises VerificationError naming the first failing node.  With
    recheck_oracle, rank witnesses are recomputed from their recorded
    (prime, seed) instead of being taken at face value, once per distinct
    (statement, prime, seed).
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


def is_valid(certificate, recheck_oracle: bool = False) -> bool:
    """Boolean form of verify: False instead of an exception."""
    try:
        return verify(certificate, recheck_oracle=recheck_oracle)
    except (VerificationError, cert.CertificateFormatError, ValueError):
        return False
