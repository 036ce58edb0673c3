"""Reduction rule bookkeeping: splits, drops, trivial truths, the
two-factor closed form and the falsity catalog."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from segredim.ffrank import terracini_oracle
from segredim.formats import (
    Statement,
    ambient_dim,
    is_subabundant,
    is_superabundant,
    parameter_count,
    parse_statement,
    target_dim,
)
from segredim.induction import certificate as cert
from segredim.induction import rules
from segredim.induction.certificate import CertNode
from segredim.induction.rules import (
    RuleError,
    SplitChoice,
    closed_leaf,
    drop_child,
    known_false,
    split_children,
    trivial_truth,
    two_factor_dim,
)


def T(text):
    return parse_statement(text)


def two_factor_node(st_, dim):
    return CertNode(cert.TWO_FACTOR, st_, side_conditions={"actual_affine_dim": dim})


class TestSplit:
    def test_dimension_bookkeeping_identities(self):
        parent = T("T(3,3,3;6)")
        choice = SplitChoice(0, (1, 1), (3, 3), ((0, 0, 0), (0, 0, 0)))
        c1, c2 = split_children(parent, choice)
        assert c1 == c2
        assert c1.format.dims == (3, 3, 1)
        # the split slot, now the P^1, picks up the other child's tangents
        assert c1.a == (0, 0, 3) and c1.s == 3
        assert parameter_count(c1) + parameter_count(c2) == parameter_count(parent)
        assert (ambient_dim(c1.format) + ambient_dim(c2.format)
                == ambient_dim(parent.format))

    def test_known_reduction_of_seven_tangents(self):
        parent = T("T(3,3,3;7)")
        choice = SplitChoice(0, (1, 1), (4, 3), ((0, 0, 0), (0, 0, 0)))
        c1, c2 = split_children(parent, choice)
        assert {str(c1), str(c2)} == {"T(3,3,1;4;0,0,3)", "T(3,3,1;3;0,0,4)"}

    def test_fiber_conditions_split_on_other_slots_only(self):
        parent = Statement.of((3, 2, 2), 2, (1, 2, 0))
        choice = SplitChoice(0, (1, 1), (1, 1), ((0, 1, 0), (0, 1, 0)))
        c1, c2 = split_children(parent, choice)
        # the split P^3 becomes the last slot, a P^1 that keeps parent's a_0
        # plus the twin's tangent count; the P^2 slots split their counts
        for c in (c1, c2):
            assert c.format.dims == (2, 2, 1)
            assert c.a == (1, 0, 1 + 1)

    def test_bad_arithmetic_rejected(self):
        parent = T("T(3,3,3;6)")
        bad = [
            SplitChoice(0, (1, 2), (3, 3), ((0, 0, 0), (0, 0, 0))),  # 1+2+1 != 3
            SplitChoice(0, (1, 1), (4, 3), ((0, 0, 0), (0, 0, 0))),  # 7 != 6
            SplitChoice(0, (1, 1), (3, 3), ((1, 0, 0), (0, 0, 0))),  # a_0 split
            SplitChoice(3, (1, 1), (3, 3), ((0, 0, 0), (0, 0, 0))),  # no slot 3
        ]
        for choice in bad:
            with pytest.raises(RuleError):
                split_children(parent, choice)

    def test_split_fiber_conditions_conserved(self):
        parent = Statement.of((4, 3, 2), 3, (0, 2, 1))
        choice = SplitChoice(0, (2, 1), (2, 1), ((0, 1, 1), (0, 1, 0)))
        c1, c2 = split_children(parent, choice)
        # the P^3 and the unsplit P^2 keep their slot in both children; the
        # halves of the split P^4 carry the other half's tangent count
        assert (c1.format.dims, c1.a) == ((3, 2, 2), (1, 1, 0 + 1))
        assert (c2.format.dims, c2.a) == ((3, 2, 1), (1, 0, 0 + 2))
        assert c1.a[0] + c2.a[0] == parent.a[1]  # P^3
        assert c1.a[1] + c2.a[1] == parent.a[2]  # the unsplit P^2


class TestDrops:
    def test_drop_zero_factor_removes_slot(self):
        st_ = T("T(3,2,0;4;0,1,0)")
        out = drop_child(st_, 2)
        assert out.format.dims == (3, 2) and out.a == (0, 1)

    def test_drop_zero_factor_needs_empty_slot(self):
        # a point factor with conditions loses them, not the slot
        st_ = T("T(3,2,0;4;0,0,1)")
        assert drop_child(st_, 2).format == st_.format
        # and a positive factor is no point factor
        with pytest.raises(RuleError, match="not a point factor"):
            drop_child(T("T(2,3;1;0,0)"), 0)
        with pytest.raises(RuleError, match="not a point factor"):
            drop_child(st_, 1)

    def test_drop_last_factor_forbidden(self):
        with pytest.raises(RuleError, match="only factor"):
            drop_child(T("T(0;2;0)"), 0)
        # the only factor can still lose its conditions
        assert drop_child(T("T(0;2;3)"), 0).a == (0,)

    def test_drop_conditions_zeroes_the_slot(self):
        # on either side of abundance: drop_step decides what it proves
        for text in ("T(3,3,2,0;5;0,0,0,4)", "T(3,3,0;1;0,0,2)"):
            st_ = T(text)
            out = drop_child(st_, st_.format.k - 1)
            assert out.a == (0,) * st_.format.k and out.format == st_.format
            assert out.s == st_.s
        assert not is_subabundant(T("T(3,3,2,0;5;0,0,0,4)"))
        assert is_subabundant(T("T(3,3,0;1;0,0,2)"))  # 7+2 = 9 <= 16

    def test_slots_out_of_range_rejected(self):
        # a negative slot used to index from the end and pass
        for slot in (-3, -1, 3, 7):
            with pytest.raises(RuleError, match="out of range"):
                drop_child(T("T(0,2,3;4;0,1,0)"), slot)
            with pytest.raises(RuleError, match="out of range"):
                drop_child(T("T(0,3,3;1;2,0,0)"), slot)


class TestTrivial:
    def test_reasons(self):
        assert trivial_truth(T("T(2,3,4;0;0,0,0)")) == "empty"
        assert trivial_truth(T("T(2,3,4;1;0,0,0)")) == "one_tangent"
        assert trivial_truth(T("T(2,3,4;0;0,5,0)")) == "one_fiber_factor"
        assert trivial_truth(T("T(2,3,4;2;0,0,0)")) is None
        assert trivial_truth(T("T(2,3,4;0;1,5,0)")) is None
        assert trivial_truth(T("T(2,3,4;1;0,1,0)")) is None
        # below three positive factors the two_factor leaf decides instead
        for text in ("T(2,3;0;0,0)", "T(5;2;1)", "T(2,3,0;1;0,0,0)",
                     "T(2,3,0;0;0,5,0)"):
            st_ = T(text)
            assert trivial_truth(st_) is None
            assert closed_leaf(st_) == (
                True, two_factor_node(st_, target_dim(st_)))


class TestTwoFactor:
    def test_closed_form_matches_the_oracle(self):
        # at most two positive factors, up to two P^0 slots, fibers anywhere;
        # every oracle outcome must equal the closed form, certified or not
        rng = random.Random(2006)
        seen = {"false": 0, "one_positive": 0, "point_fibers": 0}
        mismatches = []
        for _ in range(600):
            positive = [rng.randint(1, 6) for _ in range(rng.choice((1, 2, 2)))]
            dims = positive + [0] * rng.randint(0, 2)
            a = [rng.randint(0, 4) for _ in dims]
            st_ = Statement.of(dims, rng.randint(0, 5), a)
            dim = two_factor_dim(st_)
            rank = max(w.rank for w in terracini_oracle(st_).attempts)
            if rank != dim:
                mismatches.append((str(st_), dim, rank))
            seen["false"] += dim != target_dim(st_)
            seen["one_positive"] += len(positive) == 1
            seen["point_fibers"] += any(a[len(positive):])
        assert mismatches == []
        assert min(seen.values()) >= 50, seen

    def test_leaf_verdict_and_domain(self):
        for text, verdict, dim in (("T(3,3;0;2,2)", False, 12),
                                   ("T(0,3,3;4;2,0,0)", True, 16)):
            st_ = T(text)
            assert closed_leaf(st_) == (verdict, two_factor_node(st_, dim))
        # the matrix case: rank-s matrices of a 3x3 space span 9 - 1 at s=2
        assert two_factor_dim(T("T(2,2;2)")) == 8
        assert two_factor_dim(T("T(0,0;1;0,0)")) == 1
        for text in ("T(1,1,1;1)", "T(2,3,1,0;2;0,0,0,1)"):
            assert two_factor_dim(T(text)) is None
            leaf = closed_leaf(T(text))
            assert leaf is None or leaf[1].kind != cert.TWO_FACTOR

    def test_catalog_leaves_two_factors_to_the_leaf(self):
        # once unbalanced_false (k = 2) and fibration_false (a P^0 slot)
        for text in ("T(2,2;2)", "T(2,2,0;2;0,0,0)", "T(2,1,0;0;1,1,0)",
                     "T(3,2,0;1;1,0,0)"):
            assert known_false(T(text)) is None, text
            verdict, leaf = closed_leaf(T(text))
            assert (verdict, leaf.kind) == (False, cert.TWO_FACTOR), text


class TestFalsityCatalog:
    def test_small_format_table_sizes(self):
        # per-format lists of what _fibration_false does not derive: of the
        # 2, 5, 13 and 10 false statements once listed, 0, 0, 5 and 6
        sizes = {k: len(v) for k, v in rules.SMALL_FORMAT_FALSE.items()}
        assert sizes == {(1, 2, 2): 5, (2, 2, 2): 6}
        assert rules.SMALL_FORMAT_DIMS == {(1, 1, 1), (1, 1, 2), (1, 2, 2),
                                           (2, 2, 2)}
        for dims, entries in rules.SMALL_FORMAT_FALSE.items():
            for s, a in entries:
                c = Statement.of(dims, s, a)
                assert rules._fibration_false(c) is None, c

    def test_listed_cases_fire(self):
        # each false statement has one source: the table, or the
        # fibration rule for the entries it derives
        cases = {
            "T(1,1,1;0;0,1,3)": "fibration_false",
            "T(1,1,1;1;0,0,2)": "fibration_false",
            "T(1,1,2;0;1,5,0)": "fibration_false",
            "T(1,1,2;1;0,3,0)": "fibration_false",
            "T(1,2,2;2;0,0,2)": "table_false",
            "T(1,2,2;1;5,0,0)": "fibration_false",
            "T(1,2,2;0;7,0,1)": "fibration_false",
            "T(2,2,2;4;0,0,0)": "table_false",
            "T(2,2,2;3;0,1,1)": "table_false",
            "T(2,2,2;0;0,1,7)": "fibration_false",
            "T(2,2,2;1;0,1,5)": "table_false",
        }
        for text, kind in cases.items():
            reason = known_false(T(text))
            assert reason is not None and reason.kind == kind, text

    def test_catalog_is_permutation_invariant(self):
        assert known_false(T("T(2,1,1;0;3,1,0)")) is not None  # (1,1,2;0;0,1,3)
        assert known_false(T("T(2,1,2;0;4,0,1)")) is not None  # (1,2,2;0;0,1,4)

    def test_family_entries(self):
        r = known_false(T("T(2,3,3;5)"))
        assert r.table_id == "family:2,3,3"
        assert r.data["actual_affine_dim"] == 44
        for n in (1, 2, 3, 5):
            stmt = Statement.of((1, 1, n, n), 2 * n + 1)
            r = known_false(stmt)
            assert r is not None and r.table_id == "family:1,1,n,n", n
            assert r.data["actual_affine_dim"] == ambient_dim(stmt.format) - 2

    def test_unbalanced_range(self):
        r = known_false(T("T(1,2,5;4)"))
        assert r.kind == "unbalanced_false"
        assert r.data["actual_affine_dim"] == 4 * (6 + 6 - 4)
        assert known_false(T("T(1,2,5;3)")) is None  # below the range
        assert known_false(T("T(1,2,5;6)")) is None  # typical rank: fills
        assert known_false(T("T(1,1,8;3)")) is not None
        # fiber conditions disable the plain-secant range rule
        assert known_false(T("T(1,2,5;4;1,0,0)")) is None or \
            known_false(T("T(1,2,5;4;1,0,0)")).kind != "unbalanced_false"

    def test_fibration_rule(self):
        r = known_false(T("T(1,1,3;1;0,0,2)"))
        assert r is not None and r.kind == "fibration_false"
        # the same shape with enough room is not caught
        assert known_false(T("T(1,1,3;1;0,0,1)")) is None

    def test_fibration_restricted_to_subabundant(self):
        # same inequality fires, but the statement is superabundant and
        # in fact true (the oracle certifies rank 8 elsewhere)
        st_ = T("T(1,1,1;1;0,0,3)")
        assert is_superabundant(st_)
        assert known_false(st_) is None

    def test_unlisted_small_cases_are_clean(self):
        for text in ["T(2,2,2;3;0,0,1)", "T(1,1,1;1;0,0,1)", "T(1,2,2;1;4,0,0)",
                     "T(2,2,2;5;0,0,0)", "T(1,1,2;2;0,0,0)"]:
            assert known_false(T(text)) is None, text


@st.composite
def random_split(draw):
    k = draw(st.integers(2, 4))
    dims = [draw(st.integers(1, 5)) for _ in range(k)]
    a = [draw(st.integers(0, 3)) for _ in range(k)]
    # in the parent's slot order, which construction sorts descending
    dims, a = map(list, zip(*sorted(zip(dims, a), reverse=True)))
    slot = draw(st.integers(0, k - 1))
    n = dims[slot]
    n1 = draw(st.integers(0, n - 1))
    s = draw(st.integers(0, 6))
    s1 = draw(st.integers(0, s))
    a1 = [draw(st.integers(0, a[j])) if j != slot else 0 for j in range(k)]
    a_parts = (
        tuple(a1[j] if j != slot else 0 for j in range(k)),
        tuple(a[j] - a1[j] if j != slot else 0 for j in range(k)),
    )
    parent = Statement.of(tuple(dims), s, tuple(a))
    assert (parent.format.dims, parent.a) == (tuple(dims), tuple(a))
    choice = SplitChoice(slot, (n1, n - 1 - n1), (s1, s - s1), a_parts)
    return parent, choice


class TestSplitProperties:
    @given(random_split())
    @settings(max_examples=200, deadline=None)
    def test_parameter_and_ambient_additivity(self, case):
        parent, choice = case
        c1, c2 = split_children(parent, choice)
        assert parameter_count(c1) + parameter_count(c2) == parameter_count(parent)
        assert (ambient_dim(c1.format) + ambient_dim(c2.format)
                == ambient_dim(parent.format))

    @given(random_split())
    @settings(max_examples=200, deadline=None)
    def test_equiabundant_parents_with_equi_children_stay_exact(self, case):
        parent, choice = case
        c1, c2 = split_children(parent, choice)
        if parameter_count(parent) == ambient_dim(parent.format):
            if parameter_count(c1) == ambient_dim(c1.format):
                # additivity forces the twin onto the same boundary
                assert parameter_count(c2) == ambient_dim(c2.format)
