"""Reduction rules for tangent-span statements.

Each rule maps a statement to one or two child statements together with
arithmetic side conditions.  The rules here are pure bookkeeping: they
validate side conditions and construct children, but never search.  The
falsity catalog (the known-defective configurations) also lives here.

closed_leaf, drop_step and split_step build the certificate nodes, each
as (verdict, CertNode); the verifier rebuilds every stored node through
them.  The search builds its split nodes from split_mode directly.  Each
rule has one child builder: split_children for a split, and drop_child
for both drop kinds, which removes a point factor without conditions or
zeroes the conditions of one that has some.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from ..formats import (
    Format,
    Statement,
    ambient_dim,
    is_subabundant,
    parameter_count,
    target_dim,
    unbalanced_defective_range,
    unbalanced_span_dim,
    is_unbalanced,
    json_int,
)
from . import certificate as cert
from .certificate import CertNode


class RuleError(ValueError):
    """A rule's side conditions are not satisfied."""


def _check_slot(st: Statement, slot: int) -> None:
    if not 0 <= slot < st.format.k:
        raise RuleError(f"slot {slot} out of range for {st}")


# ---------------------------------------------------------------------------
# splits

@dataclass(frozen=True)
class SplitChoice:
    """A way of splitting one factor and distributing points between halves.

    The chosen slot's dimension n splits as n_parts[0] + n_parts[1] + 1.
    Tangent points split as s_parts.  Fiber counts at every other slot
    split as a_parts[0][j] + a_parts[1][j]; the entries of a_parts at the
    chosen slot must be zero (that slot's count is carried whole into both
    children, augmented by the opposite half's tangent count).
    """

    slot: int
    n_parts: tuple
    s_parts: tuple
    a_parts: tuple

    def describe(self) -> dict:
        return {
            "slot": self.slot,
            "n_parts": list(self.n_parts),
            "s_parts": list(self.s_parts),
            "a_parts": [list(self.a_parts[0]), list(self.a_parts[1])],
        }

    @staticmethod
    def parse(side_conditions: dict) -> "SplitChoice":
        """Inverse of describe(); KeyError, TypeError, ValueError or
        IndexError on malformed side conditions."""
        sc = side_conditions
        return SplitChoice(
            slot=json_int(sc["slot"]),
            n_parts=tuple(json_int(x) for x in sc["n_parts"]),
            s_parts=tuple(json_int(x) for x in sc["s_parts"]),
            a_parts=(tuple(json_int(x) for x in sc["a_parts"][0]),
                     tuple(json_int(x) for x in sc["a_parts"][1])),
        )


def split_children(st: Statement, choice: SplitChoice):
    """Construct the two children of a split; validates bookkeeping only."""
    k = st.format.k
    i = choice.slot
    _check_slot(st, i)
    n_i = st.format.dims[i]
    n1, n2 = choice.n_parts
    if n1 < 0 or n2 < 0 or n1 + n2 + 1 != n_i:
        raise RuleError(f"dimension parts {n1}+{n2}+1 != {n_i}")
    s1, s2 = choice.s_parts
    if s1 < 0 or s2 < 0 or s1 + s2 != st.s:
        raise RuleError(f"tangent parts {s1}+{s2} != {st.s}")
    a1, a2 = choice.a_parts
    if len(a1) != k or len(a2) != k:
        raise RuleError("fiber part vectors must have full length")
    if a1[i] != 0 or a2[i] != 0:
        raise RuleError("fiber parts at the split slot must be zero")
    for j in range(k):
        if j == i:
            continue
        if a1[j] < 0 or a2[j] < 0 or a1[j] + a2[j] != st.a[j]:
            raise RuleError(f"fiber parts at slot {j} do not sum to {st.a[j]}")

    dims1 = st.format.dims[:i] + (n1,) + st.format.dims[i + 1:]
    dims2 = st.format.dims[:i] + (n2,) + st.format.dims[i + 1:]
    fa1 = a1[:i] + (st.a[i] + s2,) + a1[i + 1:]
    fa2 = a2[:i] + (st.a[i] + s1,) + a2[i + 1:]
    return Statement(Format(dims1), s1, fa1), Statement(Format(dims2), s2, fa2)


def split_mode(st: Statement, choice: SplitChoice):
    """Classify a split as sub/super/equi and return (mode, child1, child2).

    This is the one abundance check for splits: the search labels its
    split nodes with it and the verifier accepts exactly that label.
    Parameter counts always satisfy L(c1) + L(c2) = L(st) and the two
    child ambients sum to the parent ambient, so requiring both children
    on one side of abundance forces the parent to the same side.
    """
    c1, c2 = split_children(st, choice)
    # parameter count minus ambient: <= 0 subabundant, >= 0 superabundant
    e1 = parameter_count(c1) - ambient_dim(c1.format)
    e2 = parameter_count(c2) - ambient_dim(c2.format)
    if e1 == e2 == 0:
        return cert.EQUI_SPLIT, c1, c2
    if e1 <= 0 and e2 <= 0:
        return cert.SUB_SPLIT, c1, c2
    if e1 >= 0 and e2 >= 0:
        return cert.SUPER_SPLIT, c1, c2
    raise RuleError(f"children of {st} straddle abundance: {c1}, {c2}")


def split_step(st: Statement, choice: SplitChoice,
               children) -> tuple[bool, CertNode]:
    """(True, split node) of `choice` over `children`, a (verdict, node)
    pair per child; RuleError unless they are True proofs of the two
    statements split_mode gives, in its order."""
    mode, c1, c2 = split_mode(st, choice)
    if len(children) != 2:
        raise RuleError(f"{mode} must have 2 children, found {len(children)}")
    (v1, n1), (v2, n2) = children
    for idx, node, want in ((0, n1, c1), (1, n2, c2)):
        if node.statement.key() != want.key():
            raise RuleError(f"child {idx} is {node.statement}, "
                            f"split arithmetic gives {want}")
    if v1 is not True or v2 is not True:
        raise RuleError(f"{mode} needs both children True")
    return True, CertNode(mode, st, side_conditions=choice.describe(),
                          children=(n1, n2))


# ---------------------------------------------------------------------------
# drops

def drop_slot(st: Statement) -> Optional[int]:
    """The point factor a drop takes: the first without conditions, else
    the first with some; None when st has no point factor."""
    points = [j for j, n in enumerate(st.format.dims) if n == 0]
    return min(points, key=lambda j: st.a[j] > 0, default=None)


def drop_child(st: Statement, slot: int) -> Statement:
    """The statement a drop at point factor `slot` leaves: the slot's
    conditions zeroed when it carries some, else the slot removed, which
    tensoring with a one-dimensional space allows; drop_step says what
    either proves."""
    _check_slot(st, slot)
    if st.format.dims[slot] != 0:
        raise RuleError(f"slot {slot} of {st} is not a point factor")
    if st.a[slot]:
        return Statement(st.format, st.s, st.a[:slot] + (0,) + st.a[slot + 1:])
    if st.format.k < 2:
        raise RuleError("cannot drop the only factor")
    dims = st.format.dims[:slot] + st.format.dims[slot + 1:]
    return Statement(Format(dims), st.s, st.a[:slot] + st.a[slot + 1:])


def drop_step(st: Statement, slot: int,
              child: tuple[bool, CertNode]) -> Optional[tuple[bool, CertNode]]:
    """(verdict, drop node) at `slot` over `child`, a (verdict, node) pair
    proving drop_child(st, slot); the child's verdict passes through.

    This is the one place that decides what a drop proves.  Removing a
    point factor without conditions is an equivalence.  The conditions a
    point factor carries are generic points of the Segre variety, and
    below the ambient dimension generic points impose independent
    conditions, so dropping them is an equivalence for a subabundant
    statement.  Above it only the forward direction holds (generic points
    keep adding dimensions until they fill the ambient), so None when a
    False child sits below a superabundant statement: there the drop
    proves nothing.
    """
    verdict, node = child
    want = drop_child(st, slot)
    if node.statement.key() != want.key():
        raise RuleError(f"child is {node.statement}, the drop gives {want}")
    if st.a[slot] == 0:
        kind, conds = cert.DROP_ZERO_FACTOR, {"slot": slot}
    elif verdict is False and not is_subabundant(st):
        return None
    else:
        kind, conds = cert.DROP_CONDITIONS, {"slot": slot, "dropped": st.a[slot]}
    return verdict, CertNode(kind, st, side_conditions=conds, children=(node,))


# ---------------------------------------------------------------------------
# trivially true statements

TRIVIAL_EMPTY = "empty"
TRIVIAL_ONE_TANGENT = "one_tangent"
TRIVIAL_ONE_FIBER_FACTOR = "one_fiber_factor"


def trivial_truth(st: Statement) -> Optional[str]:
    """Reason string when st, with three or more positive factors, is true
    for elementary reasons, else None.  two_factor_dim decides every
    statement with fewer positive factors.

    empty: no points at all, the empty span has dimension 0.
    one_tangent: one tangent space always has the full expected dimension.
    one_fiber_factor: generic fiber spans of a single factor behave like
      generic points of a matrix space; their span is always expected.
    """
    if two_factor_dim(st) is not None:
        return None
    if st.s == 0 and not any(st.a):
        return TRIVIAL_EMPTY
    if st.s == 1 and not any(st.a):
        return TRIVIAL_ONE_TANGENT
    if st.s == 0 and sum(1 for x in st.a if x > 0) == 1:
        return TRIVIAL_ONE_FIBER_FACTOR
    return None


# ---------------------------------------------------------------------------
# two positive factors

def two_factor_dim(st: Statement) -> Optional[int]:
    """Exact affine dimension of the span of st when it has at most two
    positive factors P^m x P^n (any number of P^0 slots), else None.

    Terracini's lemma for two factors: the tangent space at x(x)y is
    x(x)V + U(x)y, a fiber on the P^m slot adds U(x)y' and one on the P^n
    slot adds x'(x)V.  The span is A(x)V + U(x)B with A generic of
    dimension alpha = min(s + a_n, m+1) and B generic of dimension
    beta = min(s + a_m, n+1), so it has dimension
    alpha(n+1) + (m+1)beta - alpha*beta.  A fiber on a P^0 slot is a
    generic point of the Segre variety, which spans the ambient, so each
    of those adds 1 until the ambient (m+1)(n+1) is filled.  A statement
    with one positive factor is the case n = 0.
    """
    # dims descend; empty P^0 slots pad a single factor to three slots
    dims, a = st.format.dims + (0, 0), st.a + (0, 0)
    if dims[2] > 0:
        return None
    m, n = dims[0], dims[1]
    alpha = min(st.s + a[1], m + 1)
    beta = min(st.s + a[0], n + 1)
    span = alpha * (n + 1) + (m + 1) * beta - alpha * beta
    return min(span + sum(a[2:]), (m + 1) * (n + 1))


# ---------------------------------------------------------------------------
# falsity catalog

@dataclass(frozen=True)
class FalsityReason:
    kind: str
    table_id: Optional[str] = None
    data: dict = field(default_factory=dict)


# The four smallest cube-ish formats, ascending, whose false (s; a) tuples
# are all known: those _fibration_false derives, and the rest, listed in
# SMALL_FORMAT_FALSE with entries aligned with the ascending dims shown;
# closed under factor permutations, since a statement has no factor order.
SMALL_FORMAT_DIMS = frozenset({(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)})
SMALL_FORMAT_FALSE = {
    (1, 2, 2): (
        # minimal
        (2, (0, 0, 2)),
        # consequences
        (0, (0, 2, 4)), (0, (1, 1, 4)), (1, (0, 1, 3)), (1, (1, 0, 3)),
    ),
    (2, 2, 2): (
        # minimal
        (2, (0, 0, 4)), (3, (0, 1, 1)), (4, (0, 0, 0)),
        # consequences
        (0, (1, 1, 7)), (0, (0, 2, 7)), (1, (0, 1, 5)),
    ),
}


def _small_false_keys() -> dict:
    keys = {}
    for dims, entries in SMALL_FORMAT_FALSE.items():
        table_id = "small:" + ",".join(str(n) for n in dims)
        for s, a in entries:
            keys[Statement.of(dims, s, a).key()] = table_id
    return keys


_SMALL_FALSE_KEYS = _small_false_keys()


@cache
def defective_family(asc: tuple[int, ...]):
    """(name, lo, hi, span) of the closed-form defective family holding the
    ascending positive dims `asc`, or None; kept per tuple, since a scan
    asks once per row of a format and known_false once per search node.
    Its rows are defective exactly for lo < s < hi, span(s) is their
    affine dimension, and hi is the typical rank.  Families: hull-233
    (P^2 x P^3 x P^3 at s = 5), paired-square (P^1 x P^1 x P^n x P^n at
    s = 2n+1), unbalanced."""
    if asc == (2, 3, 3):
        return "hull-233", 4, 6, lambda s: 44
    if len(asc) == 4 and asc[0] == asc[1] == 1 and asc[2] == asc[3]:
        n = asc[2]
        return "paired-square", 2 * n, 2 * n + 2, lambda s: ambient_dim(asc) - 2
    if len(asc) > 1 and is_unbalanced(asc):
        lo, hi = unbalanced_defective_range(asc)
        return "unbalanced", lo, hi, lambda s: unbalanced_span_dim(asc, s)
    return None


def _family_false(st: Statement) -> Optional[FalsityReason]:
    dims = st.format.dims  # descending
    # two factors are two_factor_dim's
    if any(st.a) or st.format.k < 3 or min(dims) < 1:
        return None
    family = defective_family(dims[::-1])
    if family is None or not family[1] < st.s < family[2]:
        return None
    name, actual = family[0], family[3](st.s)
    if name == "unbalanced":
        return FalsityReason(cert.UNBALANCED_FALSE, None, {
            "d": st.s, "actual_affine_dim": actual, "expected": target_dim(st)})
    if name == "paired-square":
        return FalsityReason(cert.TABLE_FALSE, "family:1,1,n,n",
                             {"n": dims[0], "actual_affine_dim": actual})
    return FalsityReason(cert.TABLE_FALSE, "family:2,3,3",
                         {"actual_affine_dim": actual})


def _fibration_false(st: Statement) -> Optional[FalsityReason]:
    # The configuration sits inside a product fibration whose base is too
    # small; its members are forced to meet, so the span falls short of
    # the parameter count.  That only falsifies statements at or below
    # the ambient dimension.  With a P^0 slot two_factor_dim decides.
    if st.format.k != 3 or min(st.format.dims) < 1 or not is_subabundant(st):
        return None
    n, a, s = st.format.dims, st.a, st.s
    for i in range(3):
        for j in range(3):
            if j == i:
                continue
            l = 3 - i - j
            if a[i] != 0:
                continue
            if not ((s == 1 and a[j] == 0) or (s == 0 and a[j] == 1)):
                continue
            lhs = a[l] + s * n[i] + n[j]
            rhs = (n[i] + 1) * (n[j] + 1)
            if lhs >= rhs:
                return FalsityReason(cert.FIBRATION_FALSE, None, {
                    "roles": [i, j, l], "lhs": lhs, "rhs": rhs,
                })
    return None


def known_false(st: Statement) -> Optional[FalsityReason]:
    """Match st against every falsity source; these are the only ways the
    engine ever concludes False."""
    table_id = _SMALL_FALSE_KEYS.get(st.key())
    if table_id is not None:
        return FalsityReason(cert.TABLE_FALSE, table_id)
    for check in (_family_false, _fibration_false):
        reason = check(st)
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# closed forms

def closed_leaf(st: Statement) -> Optional[tuple[bool, CertNode]]:
    """(verdict, leaf) of the first closed form that decides st: the exact
    two_factor dimension, a falsity source, or a trivial truth; None when
    none does."""
    dim = two_factor_dim(st)
    if dim is not None:
        return dim == target_dim(st), CertNode(
            cert.TWO_FACTOR, st, side_conditions={"actual_affine_dim": dim})
    reason = known_false(st)
    if reason is not None:
        return False, CertNode(reason.kind, st, side_conditions=dict(reason.data),
                               table_id=reason.table_id)
    why = trivial_truth(st)
    if why is not None:
        return True, CertNode(cert.TRIVIAL, st, reason=why)
    return None
