"""Format and statement arithmetic, the slot order of a statement, and the
text grammar."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from segredim.formats import (
    Abundance,
    Format,
    ParseError,
    Statement,
    abundance,
    ambient_dim,
    expected_fill_count,
    expected_secant_dim,
    is_balanced,
    is_numerically_perfect,
    is_subabundant,
    is_superabundant,
    is_unbalanced,
    parameter_count,
    parse_format,
    parse_statement,
    target_dim,
    unbalanced_defective_range,
    unbalanced_span_dim,
    unbalanced_typical_rank,
)


dims_strategy = st.lists(st.integers(0, 9), min_size=1, max_size=6)
small_dims = st.lists(st.integers(0, 5), min_size=1, max_size=5)


def statement_strategy():
    return small_dims.flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(0, 8),
            st.lists(st.integers(0, 4), min_size=len(d), max_size=len(d)),
        )
    ).map(lambda t: Statement.of(t[0], t[1], t[2]))


class TestArithmetic:
    def test_ambient_is_product_of_sizes(self):
        assert ambient_dim((2, 3, 3)) == 48
        assert ambient_dim((1, 1, 1, 1)) == 16
        assert ambient_dim((4, 4, 7)) == 200
        assert ambient_dim((0, 0)) == 1

    def test_parameter_count_tangents_and_fibers(self):
        st_ = Statement.of((2, 3, 3), 5, (0, 0, 0))
        assert parameter_count(st_) == 5 * 9
        st_ = Statement.of((1, 1, 1), 1, (0, 0, 3))
        assert parameter_count(st_) == 4 + 3 * 2
        st_ = Statement.of((3, 3, 3), 0, (1, 2, 0))
        assert parameter_count(st_) == 4 + 8

    def test_target_is_min_of_parameters_and_ambient(self):
        assert target_dim(Statement.of((3, 3, 3), 6)) == 60
        assert target_dim(Statement.of((3, 3, 3), 7)) == 64  # capped
        assert target_dim(Statement.of((1, 1, 1), 1, (0, 0, 3))) == 8

    def test_expected_secant_dim_pairs(self):
        assert expected_secant_dim((3, 3, 3), 6) == (60, 59)
        assert expected_secant_dim((5, 5, 5), 13) == (208, 207)
        assert expected_secant_dim((4, 4, 7), 12) == (192, 191)
        assert expected_secant_dim((4, 4, 7), 13) == (200, 199)
        with pytest.raises(ValueError):
            expected_secant_dim((2, 2, 2), 0)

    def test_fill_count_is_ceiling(self):
        assert expected_fill_count((2, 2, 2)) == 4  # 27/7
        assert expected_fill_count((3, 3, 3)) == 7  # 64/10
        assert expected_fill_count((2, 3, 3)) == 6  # 48/9
        assert expected_fill_count((1, 1, 1, 1)) == 4  # 16/5

    def test_abundance_trichotomy(self):
        assert abundance(Statement.of((3, 3, 3), 6)) is Abundance.SUBABUNDANT
        assert abundance(Statement.of((3, 3, 3), 7)) is Abundance.SUPERABUNDANT
        # 9 * (1+8) = 81 = 3^4
        assert abundance(Statement.of((2, 2, 2, 2), 9)) is Abundance.EQUIABUNDANT
        eq = Statement.of((2, 2, 2, 2), 9)
        assert is_subabundant(eq) and is_superabundant(eq)

    @given(statement_strategy())
    def test_target_never_exceeds_ambient(self, s):
        assert target_dim(s) <= ambient_dim(s.format)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_ambient_at_least_first_secant_span(self, dims):
        # prod(1+n) >= 1 + sum(n), the first secant always fits
        assert ambient_dim(dims) >= 1 + sum(dims)


class TestBalance:
    def test_balance_examples(self):
        assert is_balanced((2, 2, 2))
        assert is_balanced((3, 3, 3))
        assert is_balanced((2, 3, 3))
        assert is_unbalanced((1, 1, 3))
        assert is_unbalanced((1, 2, 5))
        assert is_unbalanced((2, 2, 6))
        assert is_unbalanced((2, 2))  # square matrices count

    def test_balanced_and_unbalanced_partition(self):
        # integers: n_max <= B or n_max >= B + 1
        for dims in [(1, 1, 2), (2, 2, 5), (1, 4, 4), (3, 3, 9), (2, 2, 2, 2)]:
            assert is_balanced(dims) != is_unbalanced(dims)

    def test_defective_range_endpoints(self):
        assert unbalanced_defective_range((1, 1, 3)) == (2, 4)
        assert unbalanced_defective_range((1, 2, 5)) == (3, 6)
        assert unbalanced_defective_range((2, 2, 6)) == (5, 7)
        with pytest.raises(ValueError):
            unbalanced_defective_range((2, 2, 2))

    def test_span_dim_formula(self):
        # d * (prod_rest + n_max + 1 - d)
        assert unbalanced_span_dim((1, 1, 3), 3) == 3 * (4 + 4 - 3)
        assert unbalanced_span_dim((1, 2, 5), 4) == 4 * (6 + 6 - 4)
        assert unbalanced_span_dim((1, 2, 5), 5) == 5 * (6 + 6 - 5)
        with pytest.raises(ValueError):
            unbalanced_span_dim((1, 1, 3), 4)  # outside the open range

    def test_typical_rank_formula(self):
        assert unbalanced_typical_rank((1, 1, 3)) == 4
        assert unbalanced_typical_rank((1, 2, 5)) == 6
        assert unbalanced_typical_rank((2, 2, 6)) == 7
        assert unbalanced_typical_rank((1, 1, 8)) == 4

    def test_numerically_perfect(self):
        assert is_numerically_perfect((2, 2, 2, 2))  # 81 / 9
        assert is_numerically_perfect((1, 2, 5))  # 36 / 9
        assert not is_numerically_perfect((2, 3, 3))  # 48 / 9
        assert not is_numerically_perfect((3, 3, 3))  # 64 / 10


class TestCanonical:
    """Construction sorts the (n_i, a_i) pairs into descending order: a
    statement has no factor order."""

    def test_sorts_by_dimension_then_conditions(self):
        s = Statement.of((1, 3, 2), 2, (5, 0, 1))
        assert s.format.dims == (3, 2, 1)
        assert s.a == (0, 1, 5)

    def test_equal_dims_order_by_fiber_count(self):
        s = Statement.of((2, 2, 2), 1, (0, 2, 1))
        assert s.a == (2, 1, 0)

    @given(statement_strategy())
    def test_canonical_idempotent(self, s):
        # fields already in order are kept as they are
        assert Statement(s.format, s.s, s.a) == s

    @given(statement_strategy(), st.randoms(use_true_random=False))
    def test_permutation_invariants(self, s, rnd):
        order = list(range(s.format.k))
        rnd.shuffle(order)
        permuted = Statement.of(
            tuple(s.format.dims[i] for i in order),
            s.s,
            tuple(s.a[i] for i in order),
        )
        assert permuted == s and permuted.key() == s.key()
        assert ambient_dim(permuted.format) == ambient_dim(s.format)
        assert parameter_count(permuted) == parameter_count(s)
        assert target_dim(permuted) == target_dim(s)
        assert abundance(permuted) == abundance(s)


class TestStoredForms:
    """key() is kept on the instance after the first call; what is kept
    never shows in the statement's value."""

    def test_canonical_statement_is_its_own_canonical_form(self):
        c = Statement.of((3, 2, 1), 2, (0, 1, 5))
        assert c.canonical() is c
        # a permuted input builds the same fields, not an ordered variant
        permuted = Statement.of((1, 3, 2), 2, (5, 0, 1))
        assert permuted == c and hash(permuted) == hash(c)
        assert (permuted.format, permuted.a) == (c.format, c.a)

    def test_repeated_calls_return_the_same_object(self):
        s = Statement.of((1, 3, 2), 2, (5, 0, 1))
        assert s.canonical() is s
        assert s.key() is s.key()
        assert s.key() == str(s) == "T(3,2,1;2;0,1,5)"

    @given(statement_strategy())
    def test_filled_statement_behaves_like_a_fresh_one(self, s):
        fresh = Statement(s.format, s.s, s.a)
        filled = Statement(s.format, s.s, s.a)
        filled.key()
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) and str(filled) == str(fresh)
        assert dataclasses.replace(filled) == fresh
        bumped = dataclasses.replace(filled, s=filled.s + 1)
        assert bumped == dataclasses.replace(fresh, s=fresh.s + 1)
        assert bumped.key() == Statement(s.format, s.s + 1, s.a).key()
        assert pickle.loads(pickle.dumps(filled)).key() == fresh.key()


class TestIntegerArguments:
    """Format.of and Statement.of take integers only: int() used to
    truncate 2.9 to 2 and answer for a format nobody asked about."""

    def test_floats_are_rejected(self):
        for bad in [lambda: Format.of((2.9, 3, 3)),
                    lambda: Statement.of((2.9, 3, 3), 5, (0, 0, 0)),
                    lambda: Statement.of((2, 3, 3), 5.5),
                    lambda: Statement.of((2, 3, 3), 5, (0.7, 0, 0)),
                    lambda: Statement.of((2.9, 3, 3), 5.5, (0.7, 0, 0))]:
            with pytest.raises(TypeError):
                bad()

    def test_python_and_numpy_integers_pass(self):
        dims = np.array([2, 3, 3], dtype=np.int64)
        st_ = Statement.of(dims, np.int32(5), [np.int64(1), 0, 0])
        assert st_ == Statement.of((2, 3, 3), 5, (1, 0, 0))
        assert all(type(x) is int for x in st_.format.dims + st_.a + (st_.s,))
        assert Format.of(dims) == Format((2, 3, 3))

    def test_bools_are_rejected(self):
        # a bool is an int to isinstance; this statement used to prove
        # under the key T(2,2,2;True;0,False,0)
        for bad in [lambda: Format((2, True, 2)),
                    lambda: Statement(Format((2, 2, 2)), True, (0, 0, 0)),
                    lambda: Statement(Format((2, 2, 2)), 1, (0, False, 0))]:
            with pytest.raises(ValueError, match="non-negative integer"):
                bad()
        # the constructors' normalising forms turn a bool into its int
        st_ = Statement.of((2, 2, 2), True, (0, False, 0))
        assert st_.key() == Statement.of((2, 2, 2), 1).key()
        assert Format.of((2, True)).dims == (2, 1)


class TestGrammar:
    def test_parse_format_variants(self):
        assert parse_format("2,3,3").dims == (2, 3, 3)
        assert parse_format("2x3x3").dims == (2, 3, 3)
        assert parse_format("2 x 3 x 3").dims == (2, 3, 3)
        assert parse_format("3^4").dims == (3, 3, 3, 3)
        assert parse_format("1^2,3").dims == (1, 1, 3)

    def test_parse_statement_full_and_short(self):
        s = parse_statement("T(2,2,2;3;1,1,0)")
        assert (s.format.dims, s.s, s.a) == ((2, 2, 2), 3, (1, 1, 0))
        assert parse_statement("T(2,2,2;3;0,1,1)") == s
        s = parse_statement("T(3,3,3;7)")
        assert (s.s, s.a) == (7, (0, 0, 0))
        s = parse_statement("T(2^3; 4; 0^3)")
        assert (s.format.dims, s.s, s.a) == ((2, 2, 2), 4, (0, 0, 0))

    def test_statement_round_trip(self):
        for text in ["T(2,2,2;3;1,1,0)", "T(3,3,3;7;0,0,0)", "T(1;0;0)"]:
            assert str(parse_statement(text)) == text
        # a text in another slot order reads back in the statement's order
        assert str(parse_statement("T(1,3,2;2;5,0,1)")) == "T(3,2,1;2;0,1,5)"

    @given(statement_strategy())
    def test_round_trip_any_statement(self, s):
        assert parse_statement(str(s)) == s

    def test_parse_errors(self):
        for bad in ["", "T()", "T(2,2,2)", "T(2,2,2;)", "2,,3", "T(2,2,2;1;0,0)",
                    "T(2,2,2;-1)", "a,b", "T(2,2,2;1;0,0,0,0)"]:
            with pytest.raises(ParseError):
                parse_statement(bad) if bad.startswith("T") else parse_format(bad)

    def test_mismatched_fiber_length_rejected(self):
        with pytest.raises((ParseError, ValueError)):
            Statement.of((2, 2), 1, (0, 0, 0))
