"""The oracle's one-buffer path computes what the copying path computed.

The references below are the sampler, the matrix build and the blocked
kernel as they were before the oracle drew each attempt's points with one
generator call, built one float64 array slot by slot for all points at once
and reduced it in place: the sampler draws each vector with its own call,
the build stacks int64 blocks of all row_count generators, point by point,
and the kernel reduces a float64 copy of its input with full-height
trailing updates, factoring each panel in one pass of the per-column loop
where the live kernel takes it in sub-panels.  The loop reads its input
transposed, so the references hand it transposed views.  The live build
keeps one basis of each tangent space out of those generators, and the
per-column loop is checked against a pure-Python elimination.  Points and
ranks, and so every witness and certificate, must not move, so the tests
compare exact values.
"""
import random
import tracemalloc
from typing import Iterable

import numpy as np
import pytest

from segredim.ffrank import (
    DEFAULT_PRIME,
    FALLBACK_PRIME,
    MAX_PRIME,
    PointSet,
    _CHUNK,
    _EXACT,
    _LEAF_COLS,
    _PANEL,
    _SUB,
    PLAN,
    _cut,
    _eliminate,
    _factor,
    _head_pattern,
    _reduce,
    _solve_unit_lower,
    _specialize,
    FieldConfig,
    _draw_points,
    build_terracini_matrix,
    derive_seed,
    is_prime,
    rank_mod_p,
    recompute_rank,
    row_count,
    sample_points,
    terracini_oracle,
)
from segredim.formats import Statement, ambient_dim, parameter_count, parse_statement

PRIMES = [DEFAULT_PRIME, FALLBACK_PRIME]


def ref_draw_vector(rng: np.random.Generator, length: int, p: int) -> np.ndarray:
    while True:
        v = rng.integers(0, p, size=length, dtype=np.int64)
        if v.any():
            return v


def ref_sample_points(st: Statement, prime: int, seed: int) -> PointSet:
    rng = np.random.default_rng(np.random.PCG64(derive_seed(st.key(), prime, seed, 0)))

    def draw_point() -> tuple[np.ndarray, ...]:
        return tuple(ref_draw_vector(rng, n + 1, prime) for n in st.format.dims)

    tangent = tuple(draw_point() for _ in range(st.s))
    fibers = tuple(tuple(draw_point() for _ in range(x)) for x in st.a)
    return PointSet(prime=prime, seed=seed, tangent=tangent, fibers=fibers)


def per_point(pts: PointSet) -> PointSet:
    """The references' layout, each point a tuple of its k vectors, from
    the live one of one (count, n_j + 1) array per slot."""
    return PointSet(prime=pts.prime, seed=pts.seed, tangent=tuple(zip(*pts.tangent)),
                    fibers=tuple(tuple(zip(*xs)) for xs in pts.fibers))


def same_points(a: PointSet, b: PointSet) -> bool:
    def flat(pts):
        points = list(pts.tangent) + [q for f in pts.fibers for q in f]
        return [len(pts.tangent)] + [len(f) for f in pts.fibers], [
            v.tolist() for q in points for v in q]
    return (a.prime, a.seed, flat(a)) == (b.prime, b.seed, flat(b))


def ref_chain_outer(vectors: Iterable[np.ndarray], p: int) -> np.ndarray:
    out = np.ones(1, dtype=np.int64)
    for v in vectors:
        out = (out[:, None] * v[None, :]) % p
        out = out.reshape(-1)
    return out


def ref_slot_block(vectors: tuple[np.ndarray, ...], slot: int, p: int) -> np.ndarray:
    # rows b = tensor with the slot vector replaced by the b-th basis vector
    left = ref_chain_outer(vectors[:slot], p)
    right = ref_chain_outer(vectors[slot + 1 :], p)
    m = len(vectors[slot])
    lr = (left[:, None] * right[None, :]) % p
    out = np.zeros((m, left.size, m, right.size), dtype=np.int64)
    idx = np.arange(m)
    out[idx, :, idx, :] = lr
    return out.reshape(m, left.size * m * right.size)


def ref_build_terracini_matrix(st: Statement, pts) -> np.ndarray:
    p = pts.prime
    k = st.format.k
    blocks: list[np.ndarray] = []
    for point in pts.tangent:
        for j in range(k):
            blocks.append(ref_slot_block(point, j, p))
    for i in range(k):
        for point in pts.fibers[i]:
            blocks.append(ref_slot_block(point, i, p))
    cols = ambient_dim(st.format)
    if not blocks:
        return np.zeros((0, cols), dtype=np.int64)
    return np.vstack(blocks)


def kept_rows(st: Statement, pts) -> list[int]:
    """Rows of ref_build_terracini_matrix that the live build keeps: each
    tangent point's slot-0 block whole, each slot block j >= 1 without the
    row at the first nonzero coordinate of x_j, and every fiber row."""
    keep: list[int] = []
    top = 0
    for point in pts.tangent:
        for j, v in enumerate(point):
            drop = top + int(np.flatnonzero(v)[0]) if j else -1
            keep += [i for i in range(top, top + len(v)) if i != drop]
            top += len(v)
    return keep + list(range(top, row_count(st)))


def ref_blocked_rank(matrix: np.ndarray, p: int) -> int:
    rows, cols = matrix.shape
    f = np.empty((rows, cols), dtype=np.float64)
    np.remainder(matrix, p, out=f)
    step = (p - 1) ** 2  # growth of a trailing entry per unit of inner dimension
    bound = p - 1  # largest magnitude a trailing entry can have
    top = 0
    for c in range(0, cols, _PANEL):
        e = min(c + _PANEL, cols)
        panel = f[top:, c:e].astype(np.int64) % p
        r, pivots, inverses, swaps = _eliminate(panel.T, p)  # reduces panel
        top += r
        if top == rows or e == cols:
            break
        if r == 0:
            continue
        t = f[top - r :, e:]
        if swaps:
            order = np.arange(len(t))
            for i, j in swaps:
                order[i], order[j] = order[j], order[i]
            moved = np.flatnonzero(order != np.arange(len(t)))
            t[moved] = t[order[moved]]
        # Multipliers against the unscaled pivot rows: column k scaled by the
        # k-th pivot inverse, so the triangle to solve has a unit diagonal.
        lower = (panel[:, pivots] * np.array(inverses) % p).astype(np.float64)
        pivot_rows, rest = t[:r], t[r:]
        _reduce(pivot_rows, p)
        _solve_unit_lower(lower[:r], pivot_rows, p)
        if bound + r * step > _EXACT:
            _reduce(rest, p)
            bound = p - 1
        rest -= lower[r:] @ pivot_rows
        bound += r * step
    return top


def ref_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    if not 2 <= p < MAX_PRIME:
        raise ValueError(
            f"modulus {p} outside [2, {MAX_PRIME}), where rank_mod_p is exact")
    a = np.asarray(matrix, dtype=np.int64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    if cols <= _LEAF_COLS:
        return _eliminate((a % p).T, p)[0]
    return ref_blocked_rank(a, p)


def random_statement(rng: random.Random) -> Statement:
    # ambient dimensions from 8 to 600: both sides of _LEAF_COLS
    k = rng.choice([3, 3, 4])
    while True:
        dims = tuple(rng.randint(1, 9 if k == 3 else 5) for _ in range(k))
        cols = int(np.prod([n + 1 for n in dims]))
        if 8 <= cols <= 600:
            break
    a = tuple(rng.choice([0, 0, 0, 1, 2]) for _ in range(k))
    return Statement.of(dims, rng.randint(1, 2 + cols // (sum(dims) + 1)), a)


def statement_sweep(count: int, seed: int) -> list[Statement]:
    rng = random.Random(seed)
    return [random_statement(rng) for _ in range(count)]


# k = 1 to 5, P^0 factors (in slot 0 and later), fibers, s = 0
EDGE_STATEMENTS = [parse_statement(text) for text in [
    "T(4;3)", "T(3;0;2)", "T(0,0;1)", "T(2,3;2;1,0)", "T(0,3,3;4)",
    "T(3,0,3;4;1,0,1)", "T(3,3,0;2;0,0,3)", "T(2,2,2;0;1,2,0)", "T(2,2,2;4)",
    "T(1,1,1,1;3)", "T(1,0,2,1;3;0,1,0,1)", "T(1,1,1,1,1;6)",
    "T(1,1,1,1,2;5;1,0,0,0,1)", "T(0,1,0,1,1;2)", "T(2,2,2,2,2;11)",
]]


def sampling_statement(rng: random.Random) -> Statement:
    # k = 1 to 5, P^0 slots anywhere, s = 0 with and without fibers
    k = rng.randint(1, 5)
    dims = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(k))
    a = tuple(rng.choice([0, 0, 1, 2]) for _ in range(k))
    return Statement.of(dims, rng.choice([0, 0, 1, 2, 3, 5, 8]), a)


def test_bulk_sampler_and_build_match_the_per_vector_references():
    # one generator call per attempt draws the numbers of one call per
    # vector; the build of all points at once writes the same bytes
    rng = random.Random(16)
    sweep = EDGE_STATEMENTS + [sampling_statement(rng) for _ in range(1000)]
    kinds = set()
    for i, st in enumerate(sweep):
        p, seed = PRIMES[i % 2], rng.randrange(1 << 32)
        pts = sample_points(st, p, seed)
        old = per_point(pts)
        assert same_points(old, ref_sample_points(st, p, seed)), st
        ref = ref_build_terracini_matrix(st, old)[kept_rows(st, old)]
        assert build_terracini_matrix(st, pts).tobytes() == (
            ref.astype(np.float64).tobytes()), st
        kinds |= {("P0", 0 in st.format.dims), ("s=0", st.s == 0),
                  ("fibers only", st.s == 0 and sum(st.a) > 0)}
    assert kinds == {(kind, flag) for kind in ("P0", "s=0", "fibers only")
                     for flag in (False, True)}


class Stream:
    """Stands in for np.random.Generator: integers() hands out the next
    numbers of one fixed stream, as a bit generator does across calls."""

    def __init__(self, numbers: list[int]):
        self.numbers, self.pos = numbers, 0

    def integers(self, low, high, size, dtype):
        out = np.array(self.numbers[self.pos : self.pos + size], dtype=dtype)
        assert len(out) == size, "stream too short"
        self.pos += size
        return out


def test_zero_vector_is_drawn_again_as_by_the_reference(monkeypatch):
    # slots (2, 1, 0) of lengths 3, 2, 1 and four points: the first vector
    # comes out zero, the second point's P^0 vector twice in a row, and the
    # last vector of the last point once, past the numbers the first call
    # drew
    st = parse_statement("T(2,1,0;2;0,1,1)")
    draws = [[0, 0, 0], [1, 2, 3], [4, 5], [6],
             [7, 8, 9], [10, 11], [0], [0], [12],
             [13, 14, 15], [16, 17], [18],
             [19, 20, 21], [22, 23], [0], [24]]
    numbers = [x for d in draws for x in d]
    streams: list[Stream] = []

    def stream(_bitgen):
        streams.append(Stream(numbers))
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", stream)
    live = per_point(sample_points(st, DEFAULT_PRIME, 5))
    ref = ref_sample_points(st, DEFAULT_PRIME, 5)
    assert same_points(live, ref)
    assert streams[0].pos == streams[1].pos == len(numbers)
    assert live.tangent[0][0].tolist() == [1, 2, 3]
    assert live.tangent[1][2].tolist() == [12]
    assert live.fibers[2][0][2].tolist() == [24]


def test_draw_points_shape_and_empty_draw():
    rng = np.random.default_rng(3)
    drawn = _draw_points(rng, (3, 1, 2), 4, DEFAULT_PRIME)
    assert drawn.shape == (4, 6) and drawn.dtype == np.int64
    assert _draw_points(rng, (3, 1), 0, DEFAULT_PRIME).shape == (0, 4)


@pytest.mark.parametrize("text", ["T(5,5,5,5;61)", "T(7,7,3;20;0,2,3)",
                                  "T(15,7,1;8;3,5,9)"])
def test_build_allocates_no_matrix_sized_temporary(text):
    # each slot is written for all points at once; what that takes beside
    # the matrix is a few percent of it here
    st = parse_statement(text)
    pts = sample_points(st, DEFAULT_PRIME, 3)
    matrix_bytes = parameter_count(st) * ambient_dim(st.format) * 8
    tracemalloc.start()
    try:
        out = build_terracini_matrix(st, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == matrix_bytes
    assert peak < matrix_bytes * 9 // 8


def test_build_matches_reference_entrywise():
    for i, st in enumerate(EDGE_STATEMENTS + statement_sweep(60, seed=1)):
        p = PRIMES[i % 2]
        pts = sample_points(st, p, 1000 + i)
        new = build_terracini_matrix(st, pts)
        pts = per_point(pts)
        old = ref_build_terracini_matrix(st, pts)
        assert new.dtype == np.float64, st
        assert old.shape == (row_count(st), ambient_dim(st.format))
        assert new.shape == (parameter_count(st), ambient_dim(st.format))
        assert np.array_equal(new, old[kept_rows(st, pts)]), st


def test_build_spans_what_reference_spans():
    # equal spans: rank(new) = rank(reference) = rank(both stacked)
    seen = set()
    for i, st in enumerate(EDGE_STATEMENTS + statement_sweep(30, seed=5)):
        p = PRIMES[i % 2]
        pts = sample_points(st, p, 300 + i)
        new = build_terracini_matrix(st, pts)
        old = ref_build_terracini_matrix(st, per_point(pts))
        rank = rank_mod_p(new, p)
        assert rank == ref_rank_mod_p(old, p), st
        assert rank == rank_mod_p(np.vstack([new, old]), p), st
        seen.add((st.format.k, rank == len(new)))
    assert {k for k, _ in seen} == {1, 2, 3, 4, 5}
    assert {full for _, full in seen} == {False, True}


def test_build_drops_first_nonzero_coordinate():
    # slot vectors that start with zeros: the row to drop is not row 0
    p = DEFAULT_PRIME
    st = parse_statement("T(3,2,2;2;1,0,0)")
    v = lambda *xs: np.array(xs, dtype=np.int64)
    none = tuple(np.zeros((0, n + 1), dtype=np.int64) for n in st.format.dims)
    pts = PointSet(prime=p, seed=0, tangent=(
        v((0, 0, 5, 7), (0, 8, 0, 1)), v((0, 4, 9), (6, 2, 5)), v((0, 3, 1), (0, 0, 2)),
    ), fibers=((v((0, 1, 0, 4)), v((1, 2, 3)), v((5, 0, 6))), none, none))
    new = build_terracini_matrix(st, pts)
    pts = per_point(pts)
    old = ref_build_terracini_matrix(st, pts)
    keep = kept_rows(st, pts)
    assert [i for i in range(len(old)) if i not in keep] == [5, 8, 14, 19]
    assert new.shape == (parameter_count(st), ambient_dim(st.format)) == (20, 36)
    assert np.array_equal(new, old[keep])
    assert rank_mod_p(new, p) == rank_mod_p(old, p) == 20


def py_eliminate(a: list[list[int]], p: int):
    """The per-column loop in exact Python ints: the first nonzero residue
    at or below the current row is the pivot, its row is swapped up and
    scaled to 1 from the pivot on, and each row below keeps its multiplier
    in the pivot column."""
    a = [[x % p for x in row] for row in a]
    rows, cols = len(a), len(a[0])
    rank, pivots, inverses, swaps = 0, [], [], []
    for c in range(cols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            swaps.append((rank, piv))
        inv = pow(a[rank][c], p - 2, p)
        a[rank][c:] = [x * inv % p for x in a[rank][c:]]
        for i in range(rank + 1, rows):
            m = a[i][c]
            a[i][c + 1 :] = [(x - m * y) % p
                             for x, y in zip(a[i][c + 1 :], a[rank][c + 1 :])]
        pivots.append(c)
        inverses.append(inv)
        rank += 1
    return rank, pivots, inverses, swaps, a


def tricky_panel(rng: np.random.Generator, rows: int, cols: int, p: int) -> np.ndarray:
    """Residues of magnitude below p, some negative: the top rows are zero
    in the first columns, so the first pivots sit below the top row; one
    column is zero, one is a combination of two earlier ones, and some rows
    are combinations of others, so the rank can fall short of both sides."""
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    a[: min(8, rows - 1), : min(4, cols)] = 0
    if cols > 6:
        a[:, 5] = 0
        a[:, 6] = (3 * a[:, 1] + 5 * a[:, 2]) % p
    for _ in range(int(rng.integers(0, rows))):
        i, j, t = rng.integers(0, rows, size=3)
        a[t] = (a[i] + 2 * a[j]) % p
    a -= p * (rng.random(a.shape) < 0.3) * (a != 0)
    return a


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 1_073_741_827])
def test_eliminate_matches_python_elimination(p):
    rng = np.random.default_rng(p % 997)
    if p > MAX_PRIME:
        # 64 updates of (p-1)^2 could leave int64, so the loop refuses the
        # prime rather than overflow silently; 7 columns still fit, exactly
        a = tricky_panel(rng, 2 * _PANEL, _PANEL, p)
        with pytest.raises(AssertionError):
            _eliminate(a.T, p)
        narrow = a[:, :7].copy()
        want = py_eliminate(narrow.tolist(), p)
        assert _eliminate(narrow.T, p) == want[:4]
        assert (narrow % p).tolist() == want[4]
        return
    seen = set()
    shapes = [(int(rng.integers(1, 90)), int(rng.integers(1, 50))) for _ in range(10)]
    shapes += [(int(rng.integers(_PANEL, 3 * _PANEL)), _PANEL) for _ in range(6)]
    for rows, cols in shapes:
        a = tricky_panel(rng, rows, cols, p)
        want = py_eliminate(a.tolist(), p)
        got = a.copy()
        assert _eliminate(got.T, p) == want[:4]
        assert (got % p).tolist() == want[4]
        rank, pivots, _, swaps, _ = want
        seen.add((cols == _PANEL, bool(swaps), rank < min(rows, cols),
                  len(pivots) < min(rows, cols)))
    assert {s[0] for s in seen} == {False, True}
    assert all(any(s[i] for s in seen) for i in (1, 2, 3))


@pytest.mark.parametrize("p", [97, DEFAULT_PRIME, FALLBACK_PRIME])
def test_panel_step_matches_the_single_loop(p):
    # the sub-panel step returns what one pass of the loop over the whole
    # panel returns, and leaves the same residues at and below each
    # column's first row not yet holding a pivot: the pivots and
    # multipliers, and zeros under the columns without a pivot
    rng = np.random.default_rng(p % 991)
    seen = set()
    shapes = [(int(rng.integers(1, 3 * _PANEL)), int(rng.integers(1, _PANEL + 1)))
              for _ in range(12)]
    shapes += [(int(rng.integers(_PANEL, 3 * _PANEL)), _PANEL) for _ in range(6)]
    shapes += [(40, _PANEL), (_PANEL, 2 * _SUB + 5), (3, _PANEL)]
    for rows, cols in shapes:
        a = tricky_panel(rng, rows, cols, p)
        want = a.T.copy()
        loop = _eliminate(want, p)
        got = a.T.astype(np.float64)
        assert _factor(got, p, (_SUB,)) == loop, (rows, cols)
        rank, pivots, _, swaps = loop
        for c in range(cols):
            done = sum(q < c for q in pivots)
            assert (got[c, done:] % p).tolist() == (want[c, done:] % p).tolist()
        seen.add((cols > _SUB, any(i >= _SUB for i, _ in swaps),
                  rank == rows < cols))
    assert all(any(s[i] for s in seen) for i in range(3))


@pytest.mark.parametrize("p", [97, DEFAULT_PRIME, FALLBACK_PRIME,
                               next(q for q in range(MAX_PRIME - 1, 0, -1)
                                    if is_prime(q))])
def test_solve_unit_lower_matches_forward_substitution(p):
    # the product of log2(r) factors, applied in one GEMM, gives L^-1 y mod
    # p for reduced entries of either sign, whatever sits on and above the
    # diagonal of `lower`, up to the _PANEL rows that MAX_PRIME is set for
    rng = np.random.default_rng(p % 977)
    for r in (1, 2, 5, 16, 17, 39, _PANEL):
        lower = rng.integers(-(p // 2), p // 2 + 1, size=(r, r)).astype(np.float64)
        y = rng.integers(-(p // 2), p // 2 + 1, size=(r, 40)).astype(np.float64)
        want = [[int(v) % p for v in row] for row in y]
        for i in range(r):
            for j in range(i):
                m = int(lower[i, j])
                want[i] = [(a - m * b) % p for a, b in zip(want[i], want[j])]
        got = y.copy()
        _solve_unit_lower(lower, got, p)
        assert np.abs(got).max() <= p // 2 + 1
        assert (got.astype(np.int64) % p).tolist() == want, r


def late_swap_matrix(rng: np.random.Generator, rows: int, cols: int, p: int):
    """A matrix 2-4 panels wide whose first two panels have rank t, off the
    sub-panel grid, held by its first t rows; rows t to t+7 are zero up to
    the first columns of the third panel, so that panel takes its first
    pivots from row t+8 on.  Column 70 is zero, and entries are residues of
    magnitude below p, some negative, as tricky_panel's."""
    t = 2 * _PANEL - 21
    x = rng.integers(0, p, size=(rows, t), dtype=np.int64)
    x[t : t + 8] = 0
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    a[:, : 2 * _PANEL] = x @ rng.integers(0, p, size=(t, 2 * _PANEL)) % p
    a[t : t + 8, 2 * _PANEL : 2 * _PANEL + 5] = 0
    a[:, 70] = 0
    a -= p * (rng.random(a.shape) < 0.3) * (a != 0)
    return a, t


@pytest.mark.parametrize("p", [97, DEFAULT_PRIME, FALLBACK_PRIME])
@pytest.mark.parametrize("row_major", [True, False])
def test_two_level_factor_matches_the_single_loop(p, row_major):
    # _factor at both widths, as rank_mod_p calls it, returns what one
    # pass of the loop over the whole matrix returns, and leaves the same
    # residues at and below each column's first row not yet holding a
    # pivot.  A is handed over as rank_mod_p hands it (the transpose of a
    # row-major array) and as a transposed copy.
    rng = np.random.default_rng(p % 983)
    seen = set()
    shapes = [(2 * _PANEL + 40, 2 * _PANEL + 9), (3 * _PANEL + 20, 3 * _PANEL + 30),
              (3 * _PANEL - 8, 4 * _PANEL), (2 * _PANEL + 30, 4 * _PANEL)]
    for rows, cols in shapes:
        a, t = late_swap_matrix(rng, rows, cols, p)
        want = a.T.copy()
        loop = _eliminate(want, p)
        got = a.astype(np.float64).T if row_major else a.T.astype(np.float64)
        assert _factor(got, p, (_PANEL, _SUB)) == loop, (rows, cols)
        rank, pivots, _, swaps = loop
        for c in range(cols):
            done = sum(q < c for q in pivots)
            assert (got[c, done:] % p).tolist() == (want[c, done:] % p).tolist()
        assert 70 not in pivots and sum(q < 2 * _PANEL for q in pivots) == t
        seen.add((rank == rows, (t, t + 8) in swaps))
    assert seen == {(False, True), (True, True)}


def test_statement_ranks_match_reference():
    seen = set()
    for i, st in enumerate(statement_sweep(80, seed=2)):
        p = PRIMES[i % 2]
        old = ref_build_terracini_matrix(st, per_point(sample_points(st, p, 7 + i)))
        mat = build_terracini_matrix(st, sample_points(st, p, 7 + i))
        want = ref_rank_mod_p(old, p)
        assert rank_mod_p(mat, p, overwrite=True) == want, st
        rows, cols = old.shape
        seen.add((cols > _LEAF_COLS, want == min(rows, cols)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_ranks_match_reference(p):
    # random matrices, of full rank or of rank at most 100, with entries
    # outside [0, p) in their lower half; on both paths, across row chunks
    rng = np.random.default_rng(p % 1000)
    seen = set()
    for _ in range(24):
        rows = int(rng.integers(1, 2 * _CHUNK + 150))
        cols = int(rng.choice([int(rng.integers(1, _LEAF_COLS + 1)),
                               int(rng.integers(_LEAF_COLS + 1, 450))]))
        if rng.random() < 0.5:
            mat = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        else:  # exact in int64: inner * p^2 < 2^63
            inner = int(rng.integers(1, min(rows, cols, 100) + 1))
            x = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
            y = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
            mat = x @ y % p
        mat[rows // 2:] -= p * rng.integers(-3, 4, size=(rows - rows // 2, cols))
        want = ref_rank_mod_p(mat, p)
        assert rank_mod_p(mat, p) == want
        assert rank_mod_p(mat.astype(np.float64), p, overwrite=True) == want
        seen.add((cols > _LEAF_COLS, want == min(rows, cols)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("text, rank", [
    ("T(3,3,3,3,3;64)", 1024), ("T(5,5,5,5;61)", 1281), ("T(1,1,15,15;31)", 1022)])
def test_large_oracle_matrices_match_the_one_level_kernel(text, rank, p):
    # the matrices of the oracle bench's statements at each prime of the
    # plan, as its runs at seed 0 build them
    st = parse_statement(text)
    pts = sample_points(st, p, derive_seed(st.key(), p, 0, 0))
    mat = build_terracini_matrix(st, pts)
    assert ref_blocked_rank(mat, p) == rank
    assert rank_mod_p(mat, p, overwrite=True) == rank


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("cols", [_LEAF_COLS, _LEAF_COLS + 70])
def test_argument_unchanged_without_overwrite(dtype, cols):
    rng = np.random.default_rng(cols)
    mat = rng.integers(-3 * DEFAULT_PRIME, 3 * DEFAULT_PRIME,
                       size=(2 * _CHUNK + 30, cols)).astype(dtype)
    before = mat.copy()
    assert rank_mod_p(mat, DEFAULT_PRIME) == ref_rank_mod_p(before, DEFAULT_PRIME)
    assert np.array_equal(mat, before)


@pytest.mark.parametrize("text", [
    "T(2,2,2;4)",        # leaf path, deficient at both primes
    "T(3,3,3,3;19)",     # blocked path, full rank
    "T(1,1,7,7;15)",     # blocked path, deficient at both primes
])
def test_recompute_reproduces_oracle_witness(text):
    res = terracini_oracle(parse_statement(text), FieldConfig(force=True))
    for w in res.attempts:
        assert recompute_rank(w.statement, w.prime, w.seed) == w


def oracle_peak(st: Statement) -> tuple[int, int, object]:
    """The tracemalloc peak of a forced oracle call on st, the bytes of the
    float64 matrix its first attempt hands the kernel, and its result.
    numpy.random is imported on first use, so a small call goes first."""
    terracini_oracle(parse_statement("T(1,1,1;2)"))
    p = PLAN[0][0]
    pts = sample_points(st, p, derive_seed(st.key(), p, 0, PLAN[0][1]))
    _specialize(pts)
    rows, cols = _cut(_head_pattern(st, pts), parameter_count(st))
    tracemalloc.start()
    try:
        res = terracini_oracle(st, FieldConfig(force=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(rows) * len(cols) * 8, res


def test_oracle_holds_one_matrix_copy():
    # clock-free: the copying path peaked at 3.0x the float64 matrix here,
    # and building the full matrix at 1.7x the kept one; the matrix the
    # kernel gets has the kept shape
    peak, kept_bytes, res = oracle_peak(parse_statement("T(1,1,15,15;31)"))
    assert len(res.attempts) == 2  # deficient: the fallback prime ran too
    assert peak < 1.25 * kept_bytes


@pytest.mark.parametrize("text, shape", [("T(10,10,10;43)", (992, 990)),
                                         ("T(5,5,5,5;61)", (1155, 1170))])
def test_oracle_peak_is_the_kept_matrix_and_bounded_temporaries(text, shape):
    # clock-free: building the full matrix and projecting it in place
    # peaked at 18.0 and 17.6 MiB; the kept matrix is 7.49 and 10.31 MiB,
    # and the build's buffer and the kernel's temporaries of at most _CHUNK
    # or _PANEL rows took 1.1-1.3 MiB beside it
    peak, kept_bytes, res = oracle_peak(parse_statement(text))
    assert res.certified
    assert kept_bytes == shape[0] * shape[1] * 8
    assert peak < kept_bytes + 2 * 2**20
