"""Independent certificate checking.

The verifier rebuilds every node through its rule and requires the same
node; it never searches.  It checks each node of the DAG once, children
before parents: the rule builds a node from the stored statement, side
conditions, children and their verdicts, and every field must equal the
stored node's, so no node carries a field its kind does not use.  The
rule's verdict is the node's, and the root's must be the certificate's.
The error names the failing node's index in the certificate's node list.
evidence_holds runs an oracle leaf's witness checks on the evidence that
a cache record keeps for an undetermined statement.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Union

from ..ffrank import (PLAN, RankWitness, check_prime, derive_seed,
                      recompute_rank, row_count)
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


def _witness_checks(st: Statement, w: Optional[RankWitness], path: int,
                    certifies: bool = True, earlier=()) -> None:
    """Check a rank witness `w` of statement `st`: that no closed form
    decides st, the witness's fields against st, then its rank, recomputed
    from the witness's prime and seed.  An oracle leaf's witness certifies,
    reaching its target; evidence (a cache record's) falls short of it.
    Each attempt (prime, seed) in `earlier` must recompute to a lower
    rank."""
    _need(w is not None, path, "missing rank witness")
    leaf = rules.closed_leaf(st)
    if leaf is not None:
        how = "contradicts" if leaf[0] is False else "duplicates"
        _fail(path, f"{cert.ORACLE} leaf {how} the {leaf[1].kind} leaf "
                    f"of {st}")
    _need(w.rank <= min(w.rows, w.cols), path,
          f"witness rank {w.rank} exceeds the {w.rows}x{w.cols} matrix")
    _need(w.rows == row_count(st), path,
          f"witness rows {w.rows} != configuration rows {row_count(st)}")
    _need(w.cols == ambient_dim(st.format), path,
          f"witness cols {w.cols} != ambient {ambient_dim(st.format)}")
    _need(w.target == target_dim(st), path,
          f"witness target {w.target} != expected dimension {target_dim(st)}")
    if certifies:
        _need(w.rank == w.target, path,
              f"witness rank {w.rank} does not certify the target {w.target}")
    else:
        _need(w.rank < w.target, path,
              f"witness rank {w.rank} shows no deficit below {w.target}")
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
    for prime, seed in earlier:
        rank = recompute_rank(st, prime, seed).rank
        _need(rank < w.rank, path, f"the earlier attempt at prime {prime} "
                                   f"reads rank {rank}, witness says {w.rank}")


def evidence_holds(w: RankWitness, seed: int) -> bool:
    """True when `w` is an attempt that the oracle's plan (ffrank.PLAN)
    runs for its statement under master seed `seed`, the first of its rank
    (as a fresh oracle keeps it, every earlier attempt of the plan must
    recompute to a lower rank), and it passes an oracle leaf's witness
    checks, its rank recomputed, except that it must fall short of its
    target."""
    key = w.statement.key()
    plan = [(prime, derive_seed(key, prime, seed, attempt))
            for prime, attempt in PLAN]
    if (w.prime, w.seed) not in plan:
        return False
    try:
        _witness_checks(w.statement, w, 0, certifies=False,
                        earlier=plan[:plan.index((w.prime, w.seed))])
    except VerificationError:
        return False
    return True


def _rebuild(node: CertNode, below: list):
    """(verdict, node) as the stored node's rule builds it from the node's
    statement, side conditions, children and their verdicts `below`;
    RuleError when the rule builds no node there."""
    st, sc, kind = node.statement, node.side_conditions, node.kind
    children = tuple(zip(below, node.children))
    if kind in cert.SPLIT_KINDS:
        return rules.split_step(st, rules.SplitChoice.parse(sc), children)
    if kind in (cert.DROP_CONDITIONS, cert.DROP_ZERO_FACTOR):
        if len(children) != 1:
            raise rules.RuleError(
                f"{kind} must have 1 child, found {len(children)}")
        step = rules.drop_step(st, json_int(sc["slot"]), children[0])
        if step is None:
            raise rules.RuleError(f"a drop passes no False up from the "
                                  f"superabundant {st}")
        return step
    if kind == cert.ORACLE:
        return True, CertNode(kind, st, witness=node.witness)
    leaf = rules.closed_leaf(st)
    if leaf is None:
        raise rules.RuleError(f"no closed form decides {st}")
    return leaf


def _json_ints(side_conditions: dict) -> bool:
    """True when every value is a JSON integer or a list of them."""
    todo = list(side_conditions.values())
    while todo:
        value = todo.pop()
        if type(value) is list:
            todo.extend(value)
        elif type(value) is not int:
            return False
    return True


def _show(value) -> str:
    if isinstance(value, tuple):  # children, by statement
        return str([str(c.statement) for c in value])
    return str(value)


def _check_node(node: CertNode, path: int, below: list) -> bool:
    """Check one node whose children concluded `below`; return its verdict."""
    try:
        rebuilt = _rebuild(node, below)
    except rules.RuleError as exc:
        _fail(path, str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        _fail(path, f"malformed {node.kind} side conditions: {exc}")
    verdict, again = rebuilt
    if again != node:
        name = next(f.name for f in dataclasses.fields(node)
                    if getattr(again, f.name) != getattr(node, f.name))
        _fail(path, f"stored {name} {_show(getattr(node, name))}, its rule "
                    f"gives {_show(getattr(again, name))}")
    # 44.0 and true compare equal to 44 and 1
    _need(_json_ints(node.side_conditions), path,
          f"side_conditions {node.side_conditions} hold a number that is "
          f"not a JSON integer")
    if node.kind == cert.ORACLE:
        _witness_checks(node.statement, node.witness, path)
    return verdict


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
    _need(certificate.statement.key() == root.statement.key(),
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
