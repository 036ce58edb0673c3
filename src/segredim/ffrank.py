"""Exact rank certification over a large prime field.

Builds the tangent-plus-fiber span matrix of a statement at random points with
coordinates in F_p and row-reduces it exactly. The matrix holds one basis of
each tangent space (Terracini's lemma: 1 + sum n_i rows per point) and every
fiber row, so it has parameter_count rows. A full-rank outcome certifies
the statement (a nonzero minor mod p is a nonzero integer minor, so the generic
characteristic-zero rank is at least the observed one); a rank deficit is
evidence only and is never treated as a disproof.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .formats import (Statement, ambient_dim, json_int, parameter_count,
                      parse_statement, target_dim)

# Exactness of rank_mod_p.  float64 holds every integer of magnitude at most
# 2^53.  The kernel keeps each float64 entry it stores at magnitude at most
# _EXACT = 2^52, so that reducing it (_reduce) is itself exact.  Every GEMM
# multiplies residues of magnitude at most p-1 over an inner dimension of at
# most _PANEL, so each partial sum, in any order, is an integer of magnitude
# at most _PANEL*(p-1)^2.  A prime p < MAX_PRIME satisfies
# _PANEL*(p-1)^2 + (p-1) <= _EXACT: a freshly reduced entry can always take one
# more update.  Inside a panel the GEMMs run over _SUB <= _PANEL terms, and
# the ones a column takes before it is reduced again sum to fewer than
# _PANEL terms, so the same bound covers them.  The int64 loop multiplies
# two residues below p, far inside int64.
_PANEL = 64
_SUB = 16
_EXACT = 1 << 52
MAX_PRIME = math.isqrt(_EXACT // _PANEL)
# Matrices up to this many columns run the int64 loop whole: below it the
# blocked path's extra step per pivot (forward substitution) costs more than
# the loop's full-width updates save.  Measured on the scan grid's Terracini
# matrices, 2-core x86-64 with OpenBLAS: the crossover was at about 160-190
# columns with one loop pass per panel, and at about 140-170 with the
# sub-panels, within the noise of a matrix of a few ms.  192 is kept: one of
# the 269 leaf matrices of the baseline scan has more than 160 columns.
_LEAF_COLS = 3 * _PANEL
_SOLVE_BASE = 16
# Rows per chunk of the blocked path's trailing update and of the input's
# first reduction, so that no temporary is as tall as the matrix.
_CHUNK = 256

DEFAULT_PRIME = 1_000_003
FALLBACK_PRIME = 4_194_301
# The oracle's attempts, in order: (prime, attempt index).  Each entry of the
# Terracini matrix is a product of k-1 point coordinates, so an r x r minor
# has degree at most r(k-1) in them, and by Schwartz-Zippel a statement of
# full rank r reads deficient at one random attempt with probability at most
# r(k-1)/p: under 0.3 % even for T(10,10,10;43) at DEFAULT_PRIME.  A miss
# loses a certificate and never forges one, so one attempt at DEFAULT_PRIME
# and one at FALLBACK_PRIME are the whole plan.  Only a verdict needs the
# guard: the search runs the whole plan for its root and the first attempt
# only for each split subgoal (ProofEngine.oracle).
PLAN = ((DEFAULT_PRIME, 0), (FALLBACK_PRIME, 0))
MAX_CELLS = 200_000  # the oracle's one budget; FieldConfig.force overrides it

INCONCLUSIVE_NOTE = (
    "rank deficit at random points over F_p is evidence of defectivity, not a proof; "
    "only a full-rank outcome certifies"
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Return p if it is an admissible modulus, a prime in (2^16, MAX_PRIME);
    raise ValueError otherwise."""
    if p <= 1 << 16:
        raise ValueError(f"prime {p} too small, need > 2^16")
    if p >= MAX_PRIME:
        raise ValueError(
            f"prime {p} too large: rank_mod_p is exact only below {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


class OracleBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class FieldConfig:
    """The oracle's settings; config.RunConfig adds the search's.  The
    primes of its attempts are fixed (PLAN)."""

    seed: int = 0
    force: bool = False
    fallback_prime: ClassVar[int] = FALLBACK_PRIME

    def __post_init__(self) -> None:
        # checked here: a string seed would key the cache apart from its int
        for name, kind in (("seed", int), ("force", bool)):
            value = getattr(self, name)
            if type(value) is not kind:  # so a bool is no int
                raise ValueError(
                    f"{name} must be of type {kind.__name__}, got {value!r}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Random points backing one rank attempt, in the statement's own factor
    order: tangent[j] holds the slot-j vectors of the tangent points, one
    per row, an array of shape (s, n_j + 1), and fibers[i][j] those of the
    fiber points of factor i, of shape (a_i, n_j + 1)."""

    prime: int
    seed: int
    tangent: tuple[np.ndarray, ...]
    fibers: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class RankWitness:
    statement: Statement
    prime: int
    seed: int
    rows: int
    cols: int
    rank: int
    target: int

    def to_json(self) -> dict:
        return {
            "statement": str(self.statement.canonical()),
            "prime": self.prime,
            "seed": self.seed,
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "target": self.target,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RankWitness":
        return cls(
            statement=parse_statement(data["statement"]),
            prime=json_int(data["prime"]),
            seed=json_int(data["seed"]),
            rows=json_int(data["rows"]),
            cols=json_int(data["cols"]),
            rank=json_int(data["rank"]),
            target=json_int(data["target"]),
        )


@dataclass(frozen=True)
class OracleResult:
    certified: bool
    witness: RankWitness  # the certifying attempt, or the best one seen
    attempts: tuple[RankWitness, ...]

    @property
    def note(self) -> str | None:
        """None when certified; otherwise INCONCLUSIVE_NOTE plus the chance
        r(k-1)/p that the best witness's attempt misses a full rank r."""
        if self.certified:
            return None
        w = self.witness
        miss = w.target * (w.statement.format.k - 1)
        return (f"{INCONCLUSIVE_NOTE}; a full-rank statement reads deficient "
                f"at one attempt with probability <= r(k-1)/p = "
                f"{miss}/{w.prime} ({100 * miss / w.prime:.2g}%)")


def derive_seed(statement_key: str, prime: int, seed: int, attempt: int) -> int:
    h = hashlib.blake2b(
        f"{statement_key}|{prime}|{seed}|{attempt}".encode(), digest_size=8
    )
    return int.from_bytes(h.digest(), "big")


def _draw_points(rng: np.random.Generator, lengths: tuple[int, ...], count: int,
                 p: int) -> np.ndarray:
    """`count` points of one vector per entry of `lengths`, as one array of
    shape (count, sum(lengths)) whose row t holds point t's vectors side by
    side.  The numbers are those of one rng.integers call per vector, in
    row-major order, with a vector that comes out zero drawn again at once:
    one call draws them all, and each zero vector is cut from the stream,
    which one more call of its length then extends at the end."""
    width = sum(lengths)
    starts = np.cumsum((0,) + lengths[:-1])
    flat = rng.integers(0, p, size=count * width, dtype=np.int64)
    while True:
        drawn = flat.reshape(count, width)
        zero = ~np.logical_or.reduceat(drawn != 0, starts, axis=1)
        if not zero.any():
            return drawn
        t, j = divmod(int(zero.argmax()), len(lengths))  # the first in draw order
        at = t * width + starts[j]
        flat = np.concatenate((flat[:at], flat[at + lengths[j] :],
                               rng.integers(0, p, size=lengths[j], dtype=np.int64)))


def sample_points(st: Statement, prime: int, seed: int) -> PointSet:
    """Deterministic given (canonical form of st, prime, seed); statements that
    agree up to factor permutation get the same points, permuted to match.
    Every vector is nonzero.  Draw order: the s tangent points, then the
    fiber points of each canonical slot; each point's vectors in canonical
    slot order.  The PointSet's arrays are views of the one drawn array."""
    order = st.canonical_order()  # canonical slot j -> original factor order[j]
    canon = st.canonical()
    rng = np.random.default_rng(np.random.PCG64(derive_seed(st.key(), prime, seed, 0)))
    lengths = tuple(n + 1 for n in canon.format.dims)
    drawn = _draw_points(rng, lengths, st.s + sum(canon.a), prime)
    cols = list(accumulate(lengths, initial=0))  # canonical slot j: cols[j]:cols[j+1]
    rows = list(accumulate(canon.a, initial=st.s))  # its fibers: rows[j]:rows[j+1]
    slot_of = sorted(range(len(order)), key=order.__getitem__)  # factor i -> its slot
    slots = [drawn[:, cols[j] : cols[j + 1]] for j in slot_of]
    return PointSet(prime=prime, seed=seed, tangent=tuple(x[: st.s] for x in slots),
                    fibers=tuple(tuple(x[rows[j] : rows[j + 1]] for x in slots)
                                 for j in slot_of))


def _outer_rows(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # row t: a[t] (x) b[t] mod p, flattened with a's index slowest
    return (a[:, :, None] * b[:, None, :] % p).reshape(len(a), -1)


def _write_slot(out: np.ndarray, rows: np.ndarray, basis: np.ndarray,
                xs: tuple[np.ndarray, ...], slot: int, p: int) -> None:
    """Write row rows[t, r] of the zeroed `out`: point t's tensor with its
    vector at `slot` replaced by basis vector basis[t, r].  The points are
    given as in a PointSet, one array per slot whose row t is point t's
    vector; the row's nonzero entries are the product of point t's vectors
    before the slot (left) times that of those after it (right)."""
    left = right = np.ones((len(xs[slot]), 1), dtype=np.int64)
    for x in xs[:slot]:
        left = _outer_rows(left, x, p)
    for x in xs[slot + 1 :]:
        right = _outer_rows(right, x, p)
    view = out.reshape(len(out), left.shape[1], xs[slot].shape[1], right.shape[1])
    view[rows, :, basis, :] = (left[:, :, None] * right[:, None, :] % p)[:, None]


def row_count(st: Statement) -> int:
    """Generators of the configuration: n_j + 1 per factor slot of each
    tangent point, and n_i + 1 per fiber point.  The unit of the oracle's
    budget (MAX_CELLS, the search's cell budget), of its refusal message and
    of RankWitness.rows; the matrix itself keeps parameter_count of them."""
    d = st.format.dims
    return st.s * sum(n + 1 for n in d) + sum(x * (n + 1) for x, n in zip(st.a, d))


def oracle_cells(st: Statement, force: bool) -> int:
    """The cells row_count(st) x ambient_dim of st's oracle call, the unit
    of the oracle's budget; past MAX_CELLS, OracleBudgetError unless force."""
    rows, cols = row_count(st), ambient_dim(st.format)
    if rows * cols > MAX_CELLS and not force:
        raise OracleBudgetError(
            f"matrix {rows}x{cols} exceeds {MAX_CELLS} cells; pass force to override"
        )
    return rows * cols


def build_terracini_matrix(st: Statement, pts: PointSet) -> np.ndarray:
    """Rows: per tangent point x = x_0 (x) ... (x) x_{k-1}, the whole slot-0
    block, then each slot block j >= 1 without its row at the first nonzero
    coordinate b of x_j; then the fiber blocks per factor, whole.  Columns:
    multi-indices in row-major order, first factor slowest.  The shape is
    (parameter_count(st), ambient_dim(st.format)).

    The span is that of all row_count(st) generators, exactly, at every
    sample: the rows of block j weighted by x_j sum to x, which the slot-0
    block spans, so the dropped row is x_j[b]^-1 times a combination of rows
    kept (x_j[b] is a unit mod p).  A P^0 slot j >= 1 adds no row.

    Returns float64 residues in [0, p), not int64: each slot is written
    for all tangent points at once, and each factor's fiber rows at once,
    straight into one zeroed array (exact since p < MAX_PRIME < 2^53),
    which rank_mod_p(..., overwrite=True) then reduces in place."""
    p = pts.prime
    dims = st.format.dims
    out = np.zeros((parameter_count(st), ambient_dim(st.format)), dtype=np.float64)
    # each slot is written for all tangent points at once: point t's rows
    # start at t * width, and its block for slot j at `top` past that
    width = 1 + sum(dims)
    count = len(pts.tangent[0])
    if count:
        starts = np.arange(count)[:, None] * width
        top = 0
        for j, x in enumerate(pts.tangent):
            basis = np.arange(dims[j] + (j == 0))
            rows = starts + top + basis
            if j:
                # skip each point's first nonzero coordinate b: row r is
                # basis vector r below b and r + 1 from b on
                basis = basis + (basis >= (x != 0).argmax(axis=1)[:, None])
            _write_slot(out, rows, basis, pts.tangent, j, p)
            top += rows.shape[1]
    top = count * width
    for i, xs in enumerate(pts.fibers):
        count, m = xs[i].shape
        if count:
            rows = top + np.arange(count * m).reshape(count, m)
            _write_slot(out, rows, np.arange(m), xs, i, p)
            top += count * m
    return out


def _eliminate(
    at: np.ndarray, p: int
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """Row-reduce A = at.T by the per-column loop, on int64 residues of
    magnitude at most p-1 stored transposed: row c of `at` is column c of
    A, so each step reads its pivot column and writes its multipliers as
    one contiguous row.  Only the pivot row and multipliers are reduced each
    step.  A trailing entry takes one update of magnitude at most (p-1)^2
    per pivot, and there are at most min(at.shape) pivots, which the
    assertion keeps inside int64 (for p < MAX_PRIME and the at most
    _LEAF_COLS of the leaf path or _SUB of a sub-panel, with room to spare).

    Each pivot column is reduced once: its residues give the pivot row (the
    first nonzero one), the pivot's inverse and the multipliers.

    Leaves A as LAPACK's getrf does, in `at` transposed: each pivot row is
    scaled to 1 at its pivot, and below each pivot sits the multiplier that
    cleared that entry.  Returns the rank, the pivot columns, the inverses
    of the pivots before scaling, and the row swaps in the order made."""
    cols, rows = at.shape
    assert (p - 1) + min(cols, rows) * (p - 1) ** 2 < 1 << 63, (p, at.shape)
    rank = 0
    pivots: list[int] = []
    inverses: list[int] = []
    swaps: list[tuple[int, int]] = []
    for c in range(cols):
        if rank == rows:
            break
        col = at[c, rank:] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        piv = int(nz[0])
        if piv:
            at[:, [rank, rank + piv]] = at[:, [rank + piv, rank]]
            col[[0, piv]] = col[[piv, 0]]
            swaps.append((rank, rank + piv))
        inv = pow(int(col[0]), p - 2, p)
        at[c:, rank] = at[c:, rank] % p * inv % p
        below = col[1:]
        if below.size:
            at[c + 1 :, rank + 1 :] -= at[c + 1 :, rank, None] * below[None, :]
            at[c, rank + 1 :] = below
        pivots.append(c)
        inverses.append(inv)
        rank += 1
    return rank, pivots, inverses, swaps


def _reduce(x: np.ndarray, p: int) -> None:
    """Replace each entry of x (integers of magnitude at most _EXACT) in place
    by a congruent one of magnitude at most p-1.  The quotient estimate is
    off by less than 1/p, so the remainder lies within p/2 + 1 of zero.
    np.fmod would do the same at a cost that grows with the bit length of
    x/p, many times slower on large entries.  The input's one reduction
    (_residues) does use np.fmod: an input entry can exceed _EXACT, where
    this estimate is no longer exact, and the oracle's entries are residues
    below p, on which fmod costs one cheap pass."""
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q


def _solve_unit_lower(lower: np.ndarray, y: np.ndarray, p: int) -> None:
    """Overwrite the rows of y by L^-1 y mod p, where L is the unit lower
    triangle of `lower` (its entries on and above the diagonal are ignored)
    and y is reduced.  Halving turns most of the work into GEMMs."""
    r = len(y)
    if r <= _SOLVE_BASE:
        for i in range(1, r):
            y[i] -= lower[i, :i] @ y[:i]
            _reduce(y[i], p)
        return
    h = r // 2
    _solve_unit_lower(lower[:h, :h], y[:h], p)
    y[h:] -= lower[h:, :h] @ y[:h]
    _reduce(y[h:], p)
    _solve_unit_lower(lower[h:, h:], y[h:], p)


def _swap_rows(x: np.ndarray, swaps: list[tuple[int, int]]) -> None:
    """Apply the row swaps, in order, to x (any view), moving each row
    that ends up elsewhere once."""
    order = np.arange(len(x))
    for i, j in swaps:
        order[i], order[j] = order[j], order[i]
    moved = np.flatnonzero(order != np.arange(len(x)))
    x[moved] = x[order[moved]]


def _factor_panel(
    pt: np.ndarray, p: int
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """What _eliminate(pt) returns, and the multipliers it leaves, for a
    panel stored transposed in float64 (row c of pt is panel column c) with
    entries of magnitude at most p-1, found in sub-panels of _SUB columns.
    Each sub-panel is reduced, copied to int64 and row-reduced by
    _eliminate; its row swaps also reach the panel's columns to its right
    and the multipliers the sub-panels before it stored.  Its pivot rows
    are then solved in the columns to its right, and the rows below them
    get the Schur-complement update of those columns as one float64 GEMM of
    inner dimension at most _SUB.  The updates a column takes before its
    own sub-panel reduces it run over fewer than _PANEL pivots in all, so
    it stays within _EXACT.  Right of each sub-panel the pivot rows keep
    their unsolved entries, not the rows of U that _eliminate leaves there:
    the blocked path reads only the multipliers."""
    width, rows = pt.shape
    rank = 0
    pivots: list[int] = []
    inverses: list[int] = []
    swaps: list[tuple[int, int]] = []
    for s in range(0, width, _SUB):
        if rank == rows:
            break
        e = min(s + _SUB, width)
        _reduce(pt[s:e, rank:], p)
        sub = pt[s:e, rank:].astype(np.int64)
        r, piv, inv, sw = _eliminate(sub, p)
        if sw:
            _swap_rows(pt[:, rank:].T, sw)
        pt[s:e, rank:] = sub
        piv = [s + c for c in piv]
        pivots += piv
        inverses += inv
        swaps += [(rank + i, rank + j) for i, j in sw]
        if r and e < width and rank + r < rows:
            # the sub-panel's multipliers against its unscaled pivot rows,
            # transposed, as in _blocked_rank
            lower = pt[piv, rank:]
            lower *= np.array(inv, dtype=np.float64)[:, None]
            _reduce(lower, p)
            upper = pt[e:, rank : rank + r].T.copy()
            _reduce(upper, p)
            _solve_unit_lower(lower[:, :r].T, upper, p)
            pt[e:, rank + r :] -= upper.T @ lower[:, r:]
        rank += r
    return rank, pivots, inverses, swaps


def _blocked_rank(f: np.ndarray, p: int) -> int:
    """Rank by column panels of width _PANEL, overwriting f, a float64 array
    of integers of magnitude at most p-1.  Each panel is copied once,
    transposed, and _factor_panel finds its pivots; the rows left below
    them get the Schur-complement update of the columns to the right as
    float64 GEMMs over chunks of _CHUNK rows, and the panel's columns are
    then dropped.  The trailing block is reduced, in the same chunks, only
    when the next update could take it past _EXACT."""
    rows, cols = f.shape
    step = (p - 1) ** 2  # growth of a trailing entry per unit of inner dimension
    bound = p - 1  # largest magnitude a trailing entry can have
    top = 0
    for c in range(0, cols, _PANEL):
        e = min(c + _PANEL, cols)
        panel = np.ascontiguousarray(f[top:, c:e].T)
        _reduce(panel, p)
        r, pivots, inverses, swaps = _factor_panel(panel, p)
        top += r
        if top == rows or e == cols:
            break
        if r == 0:
            continue
        t = f[top - r :, e:]
        if swaps:
            _swap_rows(t, swaps)
        # Multipliers against the unscaled pivot rows, transposed: row k
        # scaled by the k-th pivot inverse, so the triangle to solve has a
        # unit diagonal.
        lower = panel[pivots]
        lower *= np.array(inverses, dtype=np.float64)[:, None]
        _reduce(lower, p)
        pivot_rows = t[:r]
        _reduce(pivot_rows, p)
        _solve_unit_lower(lower[:, :r].T, pivot_rows, p)
        reduce = bound + r * step > _EXACT
        for i in range(r, len(t), _CHUNK):
            rest = t[i : i + _CHUNK]
            if reduce:
                _reduce(rest, p)
            rest -= lower[:, i : i + _CHUNK].T @ pivot_rows
        bound = (p - 1 if reduce else bound) + r * step
    return top


def _residues(a: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write into out (int64 or float64, the shape of a; it may be a itself)
    integers congruent to the entries of a, of magnitude at most p-1, in
    chunks of _CHUNK rows so that no temporary is as tall as a.  A float
    entry that is not a finite integer raises ValueError: np.fmod is exact at
    any magnitude, keeps the sign of its argument, and turns inf and nan into
    nan, which the integrality test rejects."""
    for i in range(0, len(a), _CHUNK):
        chunk, dest = a[i : i + _CHUNK], out[i : i + _CHUNK]
        if a.dtype.kind != "f":
            np.remainder(chunk, p, out=dest, dtype=np.int64)
            continue
        with np.errstate(invalid="ignore"):
            r = np.fmod(chunk, p, dtype=np.float64,
                        out=dest if dest.dtype == np.float64 else None)
        if not np.array_equal(r, np.rint(r)):
            raise ValueError("rank_mod_p needs integer entries, got a "
                             "non-finite or non-integral float")
        if r is not dest:
            dest[...] = r


def rank_mod_p(matrix: np.ndarray, p: int, *, overwrite: bool = False) -> int:
    """Exact rank of an integer matrix over F_p, for a prime p < MAX_PRIME.

    The matrix is 2-D, of an integer dtype that casts safely to int64, or of
    a float dtype whose entries are finite integers; anything else raises
    ValueError.  A matrix of at most _LEAF_COLS columns is row-reduced whole
    by the int64 loop, which reads its int64 copy as the transpose (the
    rank is the same); a wider one goes through _blocked_rank.

    The matrix is left unchanged unless overwrite is true, which lets a
    C-contiguous, writeable float64 matrix serve as the blocked path's
    working buffer (its contents are then undefined): the oracle's one copy."""
    if not 2 <= p < MAX_PRIME:
        raise ValueError(
            f"modulus {p} outside [2, {MAX_PRIME}), where rank_mod_p is exact")
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"rank_mod_p needs a 2-D matrix, got {a.ndim}-D")
    if not np.can_cast(a.dtype, np.int64 if a.dtype.kind in "biu" else np.float64,
                       "safe"):
        raise ValueError(
            f"rank_mod_p needs integers representable in int64, got {a.dtype}")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    if cols <= _LEAF_COLS:
        leaf = np.empty((rows, cols), dtype=np.int64)
        _residues(a, p, leaf)
        return _eliminate(leaf, p)[0]  # rank(A^T) = rank(A)
    in_place = (overwrite and a.dtype == np.float64
                and a.flags.c_contiguous and a.flags.writeable)
    f = a if in_place else np.empty((rows, cols), dtype=np.float64)
    _residues(a, p, f)
    return _blocked_rank(f, p)


def terracini_oracle(st: Statement, cfg: FieldConfig | None = None, *,
                     stop: int | None = None) -> OracleResult:
    """CertifiedTrue when some attempt reaches rank == target_dim; otherwise
    Inconclusive with the best witness.  The attempts follow PLAN, one at
    DEFAULT_PRIME and then one at FALLBACK_PRIME; the first that certifies
    ends it.  `stop` runs only the plan's first `stop` attempts.  Past
    MAX_CELLS cells it raises OracleBudgetError unless cfg.force
    (oracle_cells).  Each attempt is one recompute_rank call, whose seed
    depends only on the canonical statement, its prime, cfg.seed and its
    attempt index.  In the package, only ProofEngine.oracle calls it."""
    cfg = cfg or FieldConfig()
    oracle_cells(st, cfg.force)
    attempts = []
    for prime, attempt in PLAN[:stop]:
        w = recompute_rank(st, prime, derive_seed(st.key(), prime, cfg.seed, attempt))
        attempts.append(w)
        if w.rank == w.target:
            return OracleResult(True, w, tuple(attempts))
    # the best witness: the first attempt of the highest rank
    return OracleResult(False, max(attempts, key=lambda w: w.rank), tuple(attempts))


def recompute_rank(st: Statement, prime: int, seed: int) -> RankWitness:
    """One attempt from (prime, seed): terracini_oracle runs each of its
    plan through it, and verifiers re-run a recorded one."""
    pts = sample_points(st, prime, seed)
    # no name keeps the matrix: it is freed before the next attempt builds
    rank = rank_mod_p(build_terracini_matrix(st, pts), prime, overwrite=True)
    return RankWitness(st.canonical(), prime, seed, row_count(st),
                       ambient_dim(st.format), rank, target_dim(st))
