"""Cross-module invariants checked with hypothesis and small sweeps."""

import random

from hypothesis import given, settings, strategies as st

from segredim.ffrank import FieldConfig, row_count, terracini_oracle
from segredim.formats import (
    Statement,
    ambient_dim,
    expected_fill_count,
    is_unbalanced,
    parameter_count,
    unbalanced_defective_range,
    unbalanced_span_dim,
    unbalanced_typical_rank,
)
from segredim.induction import ProofEngine, prove


small_dims = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)


@given(small_dims, st.integers(1, 6))
def test_fill_count_minimality(dims, s):
    ambient = ambient_dim(dims)
    per = 1 + sum(dims)
    fill = expected_fill_count(dims)
    assert fill * per >= ambient
    assert (fill - 1) * per < ambient


@given(small_dims, st.integers(0, 5), st.data())
def test_permutation_invariance_of_counts(dims, s, data):
    a = tuple(data.draw(st.integers(0, 2)) for _ in dims)
    stmt = Statement.of(dims, s, a)
    order = data.draw(st.permutations(range(len(dims))))
    permuted = Statement.of(tuple(dims[i] for i in order), s,
                            tuple(a[i] for i in order))
    assert parameter_count(stmt) == parameter_count(permuted)
    assert ambient_dim(stmt.format) == ambient_dim(permuted.format)
    assert row_count(stmt) == row_count(permuted)
    # construction sorts the slots: one statement, one key, whatever the order
    assert stmt == permuted and hash(stmt) == hash(permuted)
    assert stmt.key() == permuted.key()
    pairs = list(zip(permuted.format.dims, permuted.a))
    assert pairs == sorted(zip(dims, a), reverse=True)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(2, 30))
def test_unbalanced_bracket_is_consistent(n1, n2, big):
    dims = (n1, n2, big)
    if not is_unbalanced(dims):
        return
    lo, hi = unbalanced_defective_range(dims)
    # The open interval may be empty (point factors can push hi down to lo).
    assert lo <= hi
    assert unbalanced_typical_rank(dims) == hi
    rest = (n1 + 1) * (n2 + 1)
    for d in range(lo + 1, hi):
        span = unbalanced_span_dim(dims, d)
        assert span == d * (rest + big + 1 - d)
        # Strictly short of both the parameter count and the ambient space.
        assert span < min(parameter_count(Statement.of(dims, d)),
                          ambient_dim(dims))


def test_unbalanced_span_matches_oracle_on_sample():
    # Closed-form dimension of deficient unbalanced secants against the
    # modular oracle, on a random subsample of small formats.
    rng = random.Random(20240817)
    cases = []
    for n1 in range(0, 3):
        for n2 in range(n1, 3):
            for big in range(2, 12):
                dims = tuple(sorted((n1, n2, big)))
                if not is_unbalanced(dims) or ambient_dim(dims) > 600:
                    continue
                lo, hi = unbalanced_defective_range(dims)
                for d in range(lo + 1, hi):
                    cases.append((dims, d))
    assert cases, "sample construction went wrong"
    for dims, d in rng.sample(cases, min(12, len(cases))):
        stmt = Statement.of(dims, d)
        result = terracini_oracle(stmt, FieldConfig(force=True))
        assert not result.certified
        assert result.witness.rank == unbalanced_span_dim(dims, d)


def test_append_zero_factor_preserves_oracle_rank():
    # A fresh point factor with matching conditions leaves the span
    # dimension unchanged relative to the new ambient space.
    for text in ["T(1,1,1;2)", "T(1,2,2;3)", "T(2,2,2;3)"]:
        base = prove(text)
        assert base.status is True
        from segredim.formats import parse_statement

        stmt = parse_statement(text)
        grown = Statement.of(stmt.format.dims + (0,), stmt.s, stmt.a + (1,))
        assert ambient_dim(grown.format) == ambient_dim(stmt.format)
        assert prove(grown).status is True


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=3, max_size=4).map(tuple),
       st.integers(1, 4))
def test_prover_never_contradicts_oracle(dims, s):
    stmt = Statement.of(dims, s)
    verdict = ProofEngine().prove(stmt)
    if verdict.status is None:
        return
    result = terracini_oracle(stmt, FieldConfig(force=True))
    if verdict.status is True:
        assert result.certified
    else:
        # A modular rank can only undershoot the true dimension, so a
        # certified fill would contradict a False verdict outright.
        assert not result.certified
