"""Each attempt's first points on the coordinate frame, and their unit rows
projected out.

recompute_rank puts tangent point t on e_t in every factor with n_t >= t
(_specialize), builds the matrix at those points, removes its unit rows
with their columns (_project) and adds the columns removed to the rank of
the rest.  The tests check that this is the rank of the whole matrix at
the same points, that it is the rank at the points as drawn, and that the
projection keeps the rest in the build's own buffer.
"""
import itertools
import random

import numpy as np
import pytest

from segredim.ffrank import (
    DEFAULT_PRIME,
    FALLBACK_PRIME,
    _CHUNK,
    _LEAF_COLS,
    _project,
    _residues,
    _specialize,
    _unit_head,
    build_terracini_matrix,
    derive_seed,
    rank_mod_p,
    recompute_rank,
    sample_points,
    terracini_oracle,
)
from segredim.formats import Statement, ambient_dim, parameter_count, parse_statement

PRIMES = [DEFAULT_PRIME, FALLBACK_PRIME]


def frame_sweep(count: int, seed: int) -> list[Statement]:
    # k = 1 to 5, dims 0 to 5, fibers 0 to 3, s up to 10; small matrices
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, 5)
        dims = tuple(rng.randint(0, 5) for _ in range(k))
        a = tuple(rng.choice([0, 0, 0, 1, 2, 3]) for _ in range(k))
        st = Statement.of(dims, rng.randint(0, 10), a)
        if parameter_count(st) * ambient_dim(st.format) <= 40_000:
            out.append(st)
    return out


SWEEP = frame_sweep(360, seed=28)


def attempt(i: int, st: Statement) -> tuple[int, int]:
    p = PRIMES[i % 2]
    return p, derive_seed(st.key(), p, 0, 0)


def specialized(st: Statement, p: int, seed: int):
    pts = sample_points(st, p, seed)
    _specialize(pts)
    return pts


def test_specialize_puts_the_first_points_on_the_frame():
    st = parse_statement("T(2,0,4;5;1,0,2)")
    p, seed = DEFAULT_PRIME, 9
    drawn, pts = sample_points(st, p, seed), specialized(st, p, seed)
    for x, y, n in zip(drawn.tangent, pts.tangent, st.format.dims):
        on = min(st.s, n + 1)
        assert y[:on].tolist() == np.eye(on, n + 1, dtype=np.int64).tolist()
        assert np.array_equal(y[on:], x[on:])  # the rest as drawn
    assert pts.tangent[1][1:].all()  # P^0 scalars of points t > 0 kept
    for xs, ys in zip(drawn.fibers, pts.fibers):
        assert all(np.array_equal(x, y) for x, y in zip(xs, ys))


def test_projected_rank_is_the_rank_of_the_whole_matrix():
    # recompute_rank against rank_mod_p of the unprojected matrix at the
    # same specialized points
    kinds = set()
    for i, st in enumerate(SWEEP):
        p, seed = attempt(i, st)
        whole = build_terracini_matrix(st, specialized(st, p, seed))
        want = rank_mod_p(whole, p)
        assert recompute_rank(st, p, seed).rank == want, st
        removed, rest = _project(whole.copy(), _unit_head(st))
        pos = [n for n in st.format.dims if n]
        kinds |= {
            ("P0", 0 in st.format.dims),
            ("s below every n_i + 1", 0 < st.s < min(pos, default=0) + 1),
            ("two-factor overlap",
             len(pos) == 2 and len(whole) - len(rest) > removed),
            ("rest on the blocked path", rest.shape[1] > _LEAF_COLS),
        }
    assert {kind for kind, seen in kinds if seen} == {
        "P0", "s below every n_i + 1", "two-factor overlap",
        "rest on the blocked path"}
    assert {st.format.k for st in SWEEP} == {1, 2, 3, 4, 5}


def test_specialized_points_lose_no_generality():
    # the rank at the frame equals the rank at the points as drawn
    deficient = 0
    for i, st in enumerate(SWEEP):
        p, seed = attempt(i, st)
        drawn = rank_mod_p(build_terracini_matrix(st, sample_points(st, p, seed)), p)
        assert recompute_rank(st, p, seed).rank == drawn, st
        deficient += drawn < min(parameter_count(st), ambient_dim(st.format))
    assert deficient > 0


@pytest.mark.parametrize("text", ["T(1,2,3;4;0,1,2)", "T(0,2,5,3;6;1,0,0,2)",
                                  "T(4,1;3;2,0)", "T(2,3,3;5)"])
def test_permuted_statement_gives_the_same_witness(text):
    st = parse_statement(text)
    p = DEFAULT_PRIME
    seed = derive_seed(st.key(), p, 0, 0)
    want = recompute_rank(st, p, seed)
    k = st.format.k
    for order in itertools.permutations(range(k)):
        perm = Statement.of([st.format.dims[i] for i in order], st.s,
                            [st.a[i] for i in order])
        assert recompute_rank(perm, p, seed) == want, perm
    assert terracini_oracle(st).witness == terracini_oracle(perm).witness


def project(rows: list[list[int]], head: int) -> tuple[int, list[list[int]]]:
    m = np.array(rows, dtype=np.float64)
    removed, rest = _project(m, head)
    assert rest.flags.c_contiguous and np.shares_memory(rest, m)
    return removed, rest.astype(np.int64).tolist()


def test_two_unit_rows_on_one_column():
    # both rows go with their one column, which counts once
    m = [[0, 5, 0, 0],
         [0, 3, 0, 0],
         [1, 2, 3, 4]]
    assert project(m, 2) == (1, [[1, 3, 4]])
    assert rank_mod_p(np.array(m), DEFAULT_PRIME) == 1 + 1


def test_row_unit_only_after_a_first_removal():
    m = [[0, 7, 0, 0],
         [0, 2, 9, 0],
         [4, 5, 6, 8],
         [1, 1, 1, 1]]
    assert project(m, 2) == (2, [[4, 8], [1, 1]])
    assert rank_mod_p(np.array(m), DEFAULT_PRIME) == 2 + 2


def test_zero_row_counts_nothing():
    m = [[0, 0, 0],
         [0, 0, 4],
         [1, 2, 3],
         [2, 4, 0]]
    assert project(m, 2) == (1, [[1, 2], [2, 4]])
    assert rank_mod_p(np.array(m), DEFAULT_PRIME) == 1 + 1


def test_rows_past_the_head_and_rows_of_two_entries_stay():
    m = [[3, 0, 4],
         [0, 0, 0],
         [0, 6, 0]]
    assert project(m, 1) == (0, m)
    assert project(m, 2) == (0, [[3, 0, 4], [0, 6, 0]])
    assert project(m, 3) == (1, [[3, 4]])


def test_compaction_across_chunks_matches_fancy_indexing():
    # more kept rows than one chunk, columns removed throughout: each chunk
    # lands before the rows it has yet to read
    rng = np.random.default_rng(5)
    rows, cols, head = 2 * _CHUNK + 77, 300, 120
    m = rng.integers(1, DEFAULT_PRIME, size=(rows, cols)).astype(np.float64)
    unit = rng.choice(head, size=90, replace=False)
    at = rng.choice(cols, size=90)  # some columns twice
    m[unit] = 0
    m[unit, at] = 5
    keep_rows = [i for i in range(rows) if i not in set(unit)]
    keep_cols = [c for c in range(cols) if c not in set(at)]
    want = m[np.ix_(keep_rows, keep_cols)]
    removed, rest = _project(m, head)
    assert removed == len(set(at.tolist()))
    assert np.array_equal(rest, want) and np.shares_memory(rest, m)


def float_chunks(p: int, bad) -> np.ndarray:
    # one chunk of residues, one with `bad` in it
    rng = np.random.default_rng(2)
    a = rng.integers(0, p, size=(2 * _CHUNK, 40)).astype(np.float64)
    a[_CHUNK + 3, 7] = bad
    return a


@pytest.mark.parametrize("bad", [-5.0, -3.0 * DEFAULT_PRIME, DEFAULT_PRIME,
                                 DEFAULT_PRIME + 8.0, 2.0 ** 60])
def test_residues_of_entries_outside_zero_to_p(bad):
    # a chunk in [0, p) is kept as is, any other goes through fmod, both
    # into an int64 and a float64 buffer and in place
    p = DEFAULT_PRIME
    a = float_chunks(p, bad)
    want = np.fmod(a, p)
    same = a.copy()
    for src, out in ((a, np.empty(a.shape, np.int64)), (a, np.empty(a.shape)),
                     (same, same)):
        _residues(src, p, out)
        assert np.array_equal(out, want), (out.dtype, out is src)
    ints = np.fmod(a, p).astype(np.int64)
    assert rank_mod_p(a, p) == rank_mod_p(ints, p)
    assert rank_mod_p(a.copy(), p, overwrite=True) == rank_mod_p(ints, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5, 7.25])
@pytest.mark.parametrize("cols", [40, _LEAF_COLS + 8])
def test_non_integral_entries_refused_on_both_paths(bad, cols):
    # nan and inf fail the range test; 0.5 passes it and fails integrality
    a = np.zeros((2 * _CHUNK, cols))
    a[_CHUNK + 3, 7] = bad
    for overwrite in (False, True):
        with pytest.raises(ValueError, match="non-integral"):
            rank_mod_p(a.copy(), DEFAULT_PRIME, overwrite=overwrite)
