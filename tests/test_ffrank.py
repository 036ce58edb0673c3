"""Modular rank computation against an independent reference, plus the
frozen dimension values the rest of the suite leans on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segredim import ffrank
from segredim.ffrank import (
    DEFAULT_PRIME,
    FALLBACK_PRIME,
    MAX_CELLS,
    MAX_PRIME,
    _CHUNK,
    _LEAF_COLS,
    _PANEL,
    _SUB,
    _factor,
    INCONCLUSIVE_NOTE,
    FieldConfig,
    PLAN,
    OracleBudgetError,
    RankWitness,
    build_terracini_matrix,
    check_prime,
    derive_seed,
    is_prime,
    rank_mod_p,
    recompute_rank,
    row_count,
    sample_points,
    terracini_oracle,
)
from segredim.formats import Statement, ambient_dim, parameter_count, target_dim


def reference_rank(mat: np.ndarray, p: int) -> int:
    """Row reduction with exact Python ints; slow but obviously correct."""
    rows = [[int(x) % p for x in row] for row in mat]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if rows[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] % p != 0:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestRankModP:
    @given(
        st.integers(1, 12), st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([5, 97, 1_000_003]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_on_random_matrices(self, n, m, seed, p):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, p, size=(n, m), dtype=np.int64)
        assert rank_mod_p(mat, p) == reference_rank(mat, p)

    def test_rank_deficient_constructions(self):
        p = 1_000_003
        rng = np.random.default_rng(7)
        a = rng.integers(0, p, size=(4, 9), dtype=np.int64)
        stacked = np.vstack([a, (2 * a) % p, np.zeros((3, 9), dtype=np.int64)])
        assert rank_mod_p(stacked, p) == reference_rank(stacked, p) == 4

    def test_identity_and_zero(self):
        assert rank_mod_p(np.eye(5, dtype=np.int64), 97) == 5
        assert rank_mod_p(np.zeros((3, 4), dtype=np.int64), 97) == 0

    def test_large_prime_entries_near_modulus(self):
        # stresses the delayed-reduction batching
        p = FALLBACK_PRIME
        rng = np.random.default_rng(11)
        mat = rng.integers(p - 5, p, size=(20, 20), dtype=np.int64)
        assert rank_mod_p(mat, p) == reference_rank(mat, p)

    def test_non_integral_float_refused(self):
        # an int64 cast would truncate it to 0: a silent rank 0
        with pytest.raises(ValueError, match="non-integral"):
            rank_mod_p(np.array([[0.5]]), 97)

    def test_non_finite_float_refused(self):
        # an int64 cast would turn nan into some integer, with only a warning
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                rank_mod_p(np.array([[1.0, bad]]), 97)
        wide = np.ones((3, _LEAF_COLS + 1))
        wide[2, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rank_mod_p(wide, 97)

    def test_integer_dtype_past_int64_refused(self):
        # 97 * 2^57 > 2^63 is 0 mod 97, but would wrap to a nonzero int64
        big = np.array([[97 << 57]], dtype=np.uint64)
        with pytest.raises(ValueError, match="uint64"):
            rank_mod_p(big, 97)
        assert rank_mod_p(big.astype(np.float64), 97) == 0  # exact in float
        assert rank_mod_p(np.array([[3]], dtype=np.uint32), 97) == 1

    def test_only_matrices_accepted(self):
        for shape in [(4,), (2, 2, 2), ()]:
            with pytest.raises(ValueError, match="2-D"):
                rank_mod_p(np.ones(shape, dtype=np.int64), 97)

    def test_primes_are_prime(self):
        assert is_prime(DEFAULT_PRIME)
        assert is_prime(FALLBACK_PRIME)
        assert not is_prime(1_000_000)


LARGEST_PRIME = next(q for q in range(MAX_PRIME - 1, 0, -1) if is_prime(q))
KERNEL_PRIMES = [5, 97, DEFAULT_PRIME, FALLBACK_PRIME, LARGEST_PRIME]


def staircase(rows: int, cols: int, steps: int, p: int, seed: int) -> np.ndarray:
    """X @ Y mod p where the columns of panel j only involve the first
    (j+1)*steps rows of Y, so each panel adds up to `steps` pivots."""
    rng = np.random.default_rng(seed)
    k = steps * -(-cols // _PANEL)
    y = rng.integers(0, p, size=(k, cols), dtype=np.int64)
    for c in range(0, cols, _PANEL):
        y[(c // _PANEL + 1) * steps:, c:c + _PANEL] = 0
    x = rng.integers(0, p, size=(rows, k), dtype=np.int64)
    return x @ y % p  # exact: k * p^2 < 2^63 here


def factor_first_panel(mat: np.ndarray, p: int):
    """_factor at sub-panel width on the first panel of mat, as the outer
    level hands a block over: transposed, in float64, reduced."""
    pt = np.ascontiguousarray(mat[:, :_PANEL].T % p, dtype=np.float64)
    return _factor(pt, p, (_SUB,))


class TestBlockedKernel:
    """Shapes past _LEAF_COLS columns take the panel-by-panel path."""

    def test_exactness_bound(self):
        # the argument in ffrank: one full-width update of a reduced entry
        # stays within 2^52 for every admissible prime
        assert _PANEL * (MAX_PRIME - 2) ** 2 + (MAX_PRIME - 2) <= 2 ** 52
        assert DEFAULT_PRIME < FALLBACK_PRIME < LARGEST_PRIME < MAX_PRIME
        # a sub-panel's GEMM is one of those updates, over fewer terms
        assert _SUB <= _PANEL

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_pivots_spread_over_panels(self, p):
        # wider than a leaf, taller than a panel: 22 new pivots in each
        # panel, duplicated rows and zero columns inside panels
        mat = staircase(80, _LEAF_COLS + 9, 22, p, seed=p % 1000)
        mat[70:] = mat[:10]
        mat[:, 5:9] = 0
        mat[:, _PANEL + 3] = 0
        want = reference_rank(mat, p)
        assert want == 70  # the distinct rows
        assert rank_mod_p(mat, p) == want

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_wide_and_tall(self, p):
        rng = np.random.default_rng(p % 1000)
        wide = rng.integers(0, p, size=(40, _LEAF_COLS + 50), dtype=np.int64)
        assert rank_mod_p(wide, p) == reference_rank(wide, p)  # rank < panel
        tall = staircase(_LEAF_COLS + 8, _LEAF_COLS + 1, 18, p, seed=p % 997)
        assert rank_mod_p(tall, p) == reference_rank(tall, p)
        # below the first panel's pivots: two full row chunks and a partial one
        taller = staircase(2 * _CHUNK + 100, _LEAF_COLS + 1, 18, p, seed=p % 991)
        assert rank_mod_p(taller, p) == reference_rank(taller, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_sub_panel_without_pivot(self, p):
        # rank 70 of 80 rows; in every panel the second sub-panel is a
        # combination of the first, nonzero but with no pivot left, and the
        # third and fourth sub-panels still find theirs
        rng = np.random.default_rng(p % 1000 + 1)
        cols = _LEAF_COLS + 9
        x = rng.integers(0, p, size=(80, 70), dtype=np.int64)
        mat = x @ rng.integers(0, p, size=(70, cols), dtype=np.int64) % p
        for c in range(0, cols - 2 * _SUB, _PANEL):
            mix = rng.integers(0, p, size=(_SUB, _SUB), dtype=np.int64)
            mat[:, c + _SUB : c + 2 * _SUB] = mat[:, c : c + _SUB] @ mix % p
        assert factor_first_panel(mat, p)[1] == (
            list(range(_SUB)) + list(range(2 * _SUB, _PANEL)))
        want = reference_rank(mat, p)
        assert want == 70
        assert rank_mod_p(mat, p) == want

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_late_sub_panel_swaps_carry_earlier_multipliers(self, p):
        # rows 32-39 are combinations of rows 0-31 within the first panel,
        # so once its first two sub-panels have their 32 pivots, the third
        # takes its pivot rows from row 40 on; each swap must move the
        # multipliers the first two sub-panels left in the rows it swaps
        rng = np.random.default_rng(p % 1000 + 2)
        x = rng.integers(0, p, size=(90, 75), dtype=np.int64)
        mat = x @ rng.integers(0, p, size=(75, _LEAF_COLS + 9), dtype=np.int64) % p
        mix = rng.integers(0, p, size=(8, 2 * _SUB), dtype=np.int64)
        mat[2 * _SUB : 2 * _SUB + 8, :_PANEL] = mix @ mat[: 2 * _SUB, :_PANEL] % p
        swaps = factor_first_panel(mat, p)[3]
        assert any(i >= 2 * _SUB and j >= 2 * _SUB + 8 for i, j in swaps)
        assert rank_mod_p(mat, p) == reference_rank(mat, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_rank_reaches_row_count_mid_panel(self, p):
        # full row rank, reached inside the third sub-panel of the first
        # panel and inside the second sub-panel of the second
        rng = np.random.default_rng(p % 1000 + 3)
        for rows in (2 * _SUB + 8, _PANEL + _SUB + 8):
            mat = rng.integers(0, p, size=(rows, _LEAF_COLS + 9), dtype=np.int64)
            assert rank_mod_p(mat, p) == reference_rank(mat, p) == rows

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("steps", [21, 37])
    def test_staircase_steps_off_the_sub_panel_grid(self, p, steps):
        # each panel adds `steps` pivots, which end inside a sub-panel
        mat = staircase(90, _LEAF_COLS + 9, steps, p, seed=p % 1000 + steps)
        assert steps % _SUB
        assert rank_mod_p(mat, p) == reference_rank(mat, p)

    def test_worst_case_accumulation_at_largest_prime(self):
        # Ten panels of pivot rows [0 .. I .. 0 | b] above two rows
        # [m m .. m | c], with m and b just below p/2, the largest
        # magnitude a reduced residue keeps.  Each panel adds _PANEL
        # products near p^2/4 to c, so left unreduced c would pass 2^53 by
        # the ninth panel.  c makes the exact result 0 mod p, so a rounded
        # update would show as one more pivot.
        p = LARGEST_PRIME
        panels = 10
        n = panels * _PANEL
        rng = np.random.default_rng(3)
        m = rng.integers(p // 2 - 1024, p // 2, size=_PANEL)
        b = rng.integers(p // 2 - 1024, p // 2, size=_PANEL)
        mat = np.zeros((n + 2, n + 3), dtype=np.int64)
        for j in range(panels):
            block = slice(j * _PANEL, (j + 1) * _PANEL)
            mat[block, block] = np.eye(_PANEL, dtype=np.int64)
            mat[block, n:] = b[:, None]
            mat[n:, block] = m
        step = sum(int(x) * int(y) for x, y in zip(m, b))
        c = panels * step % p
        mat[n:, n:] = c
        assert any(float(c - j * step) != c - j * step for j in range(panels))
        assert reference_rank(mat, p) == n
        assert rank_mod_p(mat, p) == n
        near = rng.integers(p - 3, p, size=(70, _LEAF_COLS + 30), dtype=np.int64)
        assert rank_mod_p(near, p) == reference_rank(near, p)
        # The [m m .. m | c] rows repeated, so that they fill two row chunks
        # and part of a third below the pivots of every panel: each chunk's
        # reduction must happen, or its rows round and add a pivot.
        repeats = (2 * _CHUNK + 88) // 2
        tall = np.vstack([mat[:n]] + [mat[n:]] * repeats)
        assert rank_mod_p(tall, p) == n

    def test_each_block_is_factored_reduced(self, monkeypatch):
        # The premise of the exactness argument: every block reaches its
        # factorisation with entries of magnitude at most p-1, at both
        # widths, also once the trailing columns have taken the updates
        # of several panels of pivots.
        p = LARGEST_PRIME
        rng = np.random.default_rng(4)
        mat = rng.integers(0, p, size=(4 * _PANEL + 10, 5 * _PANEL + 3), dtype=np.int64)
        widths = []

        def reduced(real):
            def call(at, q, *rest):
                assert np.abs(at).max() <= q - 1
                widths.append(rest[0][0] if rest else 1)
                return real(at, q, *rest)
            return call

        monkeypatch.setattr(ffrank, "_factor", reduced(ffrank._factor))
        monkeypatch.setattr(ffrank, "_eliminate", reduced(ffrank._eliminate))
        assert rank_mod_p(mat, p) == len(mat)
        assert set(widths) == {_PANEL, _SUB, 1}
        assert widths.count(1) == -(-len(mat) // _SUB)  # 16 pivots each

    def test_inexact_modulus_refused(self):
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), MAX_PRIME + 1)


class TestTerraciniMatrix:
    def test_shape_matches_row_count_and_ambient(self):
        s = Statement.of((2, 3, 3), 5)
        pts = sample_points(s, DEFAULT_PRIME, 1234)
        mat = build_terracini_matrix(s, pts)
        assert mat.shape == (parameter_count(s), ambient_dim(s.format))
        # one basis of 1 + sum n_j rows per tangent point, not the
        # 5 * (3 + 4 + 4) generators row_count counts
        assert mat.shape == (5 * (1 + 2 + 3 + 3), 48)
        assert row_count(s) == 5 * (3 + 4 + 4)

    def test_fiber_rows_counted(self):
        s = Statement.of((1, 1, 1), 1, (0, 0, 3))
        pts = sample_points(s, DEFAULT_PRIME, 99)
        mat = build_terracini_matrix(s, pts)
        assert mat.shape == (parameter_count(s), 8)
        assert parameter_count(s) == (1 + 1 + 1 + 1) + 3 * 2
        assert row_count(s) == (2 + 2 + 2) + 3 * 2

    def test_deterministic_given_seed(self):
        s = Statement.of((2, 2, 2), 4)
        a = build_terracini_matrix(s, sample_points(s, DEFAULT_PRIME, 5))
        b = build_terracini_matrix(s, sample_points(s, DEFAULT_PRIME, 5))
        c = build_terracini_matrix(s, sample_points(s, DEFAULT_PRIME, 6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestOracle:
    def test_certifies_known_full_rank_dimensions(self):
        from segredim.formats import parse_statement
        for text, affine in [
            ("T(3,3,3;6)", 60), ("T(3,3,3;7)", 64),
            ("T(5,5,5;13)", 208), ("T(5,5,5;14)", 216),
            ("T(4,4,7;12)", 192), ("T(4,4,7;13)", 200),
        ]:
            res = terracini_oracle(parse_statement(text))
            assert res.certified, text
            assert res.witness.rank == res.witness.target == affine, text

    def test_reports_deficit_without_certifying(self):
        res = terracini_oracle(Statement.of((2, 3, 3), 5))
        assert not res.certified
        assert res.witness.rank == 44 and res.witness.target == 45
        res = terracini_oracle(Statement.of((2, 2, 2), 4))
        assert not res.certified
        assert res.witness.rank == 26 and res.witness.target == 27

    def test_deficit_retries_both_primes(self):
        res = terracini_oracle(Statement.of((1, 1, 1, 1), 3))
        assert not res.certified
        assert res.witness.rank == 14  # ambient 16, expected 15
        assert len(res.attempts) == len(PLAN)  # the main prime, then fallback
        assert all(w.rank < w.target for w in res.attempts)
        assert len({w.seed for w in res.attempts}) == 2  # fresh points each

    def test_default_plan_is_one_attempt_per_prime(self):
        assert PLAN == ((DEFAULT_PRIME, 0), (FALLBACK_PRIME, 0))
        res = terracini_oracle(Statement.of((1, 1, 1, 1), 3))
        assert [w.prime for w in res.attempts] == [DEFAULT_PRIME, FALLBACK_PRIME]
        assert all(w.rank == 14 for w in res.attempts)

    def test_plan_primes_are_admissible_and_distinct(self):
        # what FieldConfig checked of its prime when the prime was settable:
        # admissible for the exact kernel, and a fallback that does not
        # re-run the first attempt
        for prime, _ in PLAN:
            assert check_prime(prime) == prime
        assert len({prime for prime, _ in PLAN}) == len(PLAN)

    def test_inconclusive_note_states_the_bound(self):
        # T(1,1,1,1;3): target 15, k = 4, so r(k-1)/p = 45/1000003
        res = terracini_oracle(Statement.of((1, 1, 1, 1), 3))
        assert res.note.startswith(INCONCLUSIVE_NOTE)
        assert res.note.endswith(
            "probability <= r(k-1)/p = 45/1000003 (0.0045%)")
        certified = terracini_oracle(Statement.of((2, 2, 2), 3))
        assert certified.certified and certified.note is None

    def test_fiber_statement_true_where_plain_intuition_fails(self):
        # the three-fiber configuration on the cube format spans everything
        res = terracini_oracle(Statement.of((1, 1, 1), 1, (0, 0, 3)))
        assert res.certified and res.witness.rank == 8

    def test_determinism_and_permutation_share_points(self):
        a = terracini_oracle(Statement.of((2, 3, 3), 4))
        b = terracini_oracle(Statement.of((3, 2, 3), 4))
        assert a.certified and b.certified
        assert a.witness.seed == b.witness.seed
        assert a.witness.rank == b.witness.rank

    def test_budget_error_and_force(self):
        big = Statement.of((9, 9, 9), 50)  # 50*30=1500 rows x 1000 cols
        assert 1500 * 1000 > MAX_CELLS
        with pytest.raises(OracleBudgetError):
            terracini_oracle(big, FieldConfig())
        res = terracini_oracle(big, FieldConfig(force=True))
        assert (res.witness.rows, res.witness.cols) == (1500, 1000)
        assert res.certified and res.witness.rank == 1000
        small = Statement.of((2, 2, 2), 4)
        cfg = FieldConfig(force=True)
        assert terracini_oracle(small, cfg).witness.rank == 26

    def test_recompute_matches_witness(self):
        res = terracini_oracle(Statement.of((2, 2, 3), 4))
        w = res.witness
        redo = recompute_rank(w.statement, w.prime, w.seed)
        assert redo.rank == w.rank

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed("T(2,2,2;4;0,0,0)", DEFAULT_PRIME, 0, i)
                 for i in range(4)}
        assert len(seeds) == 4

    def test_overflowing_prime_refused(self):
        # 4294967311 once overflowed int64 and reported rank 48 of a
        # 55x48 matrix whose true rank is at most 45; a witness may still
        # name it, so the checks of that prime stay
        with pytest.raises(ValueError, match="too large"):
            check_prime(4294967311)
        with pytest.raises(ValueError, match="outside"):
            recompute_rank(Statement.of((2, 3, 3), 5), 4294967311, 0)

    def test_witness_json_round_trip(self):
        res = terracini_oracle(Statement.of((2, 2, 2), 4))
        w = res.witness
        again = RankWitness.from_json(w.to_json())
        assert again == w
