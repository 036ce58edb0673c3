"""Exact rank certification over a large prime field.

Builds the tangent-plus-fiber span matrix of a statement at random points with
coordinates in F_p and row-reduces it exactly. The matrix holds one basis of
each tangent space (Terracini's lemma: 1 + sum n_i rows per point) and every
fiber row, so it has parameter_count rows. A full-rank outcome certifies
the statement (a nonzero minor mod p is a nonzero integer minor, so the generic
characteristic-zero rank is at least the observed one); a rank deficit is
evidence only and is never treated as a disproof.

Each attempt first puts its first tangent points on the coordinate frame
(_specialize): point t takes the basis vector e_t in every factor with
n_i >= t, as GL(V_0) x ... x GL(V_{k-1}) moves n_i + 1 generic points of
factor i.  A tangent row at such a point is then a unit vector, and the
attempt projects it out with its column (_project) before the kernel sees
the rest: the rank is the number of columns so removed plus the rank of
what is left.
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
# _EXACT = 2^52, so that reducing it (_reduce) is itself exact.  Its one
# blocked elimination, _factor, runs at two widths: blocks of _PANEL columns,
# each factored in blocks of _SUB.  At either width it reduces each block
# before factoring it, and the multipliers and pivot rows before they meet in
# a GEMM, so every GEMM multiplies residues of magnitude at most p-1 and adds
# at most (p-1)^2 per pivot to an entry, over an inner dimension of at most
# _PANEL.  A prime p < MAX_PRIME satisfies _PANEL*(p-1)^2 + (p-1) <= _EXACT,
# so a freshly reduced entry can always take one more update; _factor counts
# the pivots a trailing entry has taken since it was last reduced and reduces
# it first when the next update could take it past _EXACT.  That one rule
# covers both widths (inside a _PANEL-wide block it never fires).  The int64
# loop multiplies two residues below p, far inside int64.
_PANEL = 64
_SUB = 16
_EXACT = 1 << 52
MAX_PRIME = math.isqrt(_EXACT // _PANEL)
# Matrices up to this many columns run the int64 loop whole: below it the
# blocked path's extra step per pivot (forward substitution) costs more than
# the loop's full-width updates save.  Measured on the scan grid's Terracini
# matrices, 2-core x86-64 with OpenBLAS: the crossover was at about 160-190
# columns with one loop pass per panel, and at about 140-170 with the
# sub-panels, within the noise of a matrix of a few ms.  192 is kept: of the
# 336 rank calls of the bench scan (scan --k 3 --max-n 10 --max-r 60), 325
# are leaves, one of them wider than 160 columns; the other 11 are 210-400
# columns wide.
_LEAF_COLS = 3 * _PANEL
_SOLVE_BASE = 16
# Rows per chunk of the blocked path's trailing update, of the input's first
# reduction and of _project's compaction, so that no temporary is as tall as
# the matrix.
_CHUNK = 256

DEFAULT_PRIME = 1_000_003
FALLBACK_PRIME = 4_194_301
# The oracle's attempts, in order: (prime, attempt index).  Each entry of the
# Terracini matrix is a product of k-1 point coordinates, so an r x r minor
# has degree at most r(k-1) in them, and by Schwartz-Zippel a statement of
# full rank r reads deficient at one random attempt with probability at most
# r(k-1)/p: under 0.3 % even for T(10,10,10;43) at DEFAULT_PRIME.  The bound
# survives _specialize.  The group action keeps the rank of a point set and
# moves a generic one onto the frame, so some r x r minor is still a nonzero
# polynomial in the coordinates left random, of degree at most r(k-1) in
# them; and any point set gives a lower bound, so a full rank still
# certifies.  A miss loses a certificate and never forges one, so one
# attempt at DEFAULT_PRIME and one at FALLBACK_PRIME are the whole plan.
# Only a verdict needs the guard: the search runs the whole plan for its
# root and the first attempt only for each split subgoal (ProofEngine.oracle).
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
    _LEAF_COLS of the leaf path or _SUB of _factor's narrow blocks, with
    room to spare).

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
        nz = col.nonzero()[0]
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


def _factor(
    at: np.ndarray, p: int, widths: tuple[int, ...]
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """What _eliminate(at) returns, and the multipliers it leaves, for
    A = at.T stored transposed in float64 (row c of `at` is column c of A)
    with entries of magnitude at most p-1, found in blocks of widths[0]
    columns.  Each block is copied contiguously, reduced and factored by
    _factor(block, p, widths[1:]), or by _eliminate on an int64 copy once
    no widths are left.  Its row swaps reach every column of A, so they
    also move the multipliers the blocks before it left, and its own
    multipliers are written back.  Its pivot rows are then solved in the
    columns to its right, and the rows below them get the Schur-complement
    update of those columns as float64 GEMMs over chunks of _CHUNK rows;
    the trailing columns are reduced first, in the same chunks, only when
    the update could take them past _EXACT.  Right of each block the pivot
    rows hold their rows of U unscaled (L^-1 times their entries), not the
    scaled ones that _eliminate leaves there: only the multipliers are
    read."""
    cols, rows = at.shape
    width, inner = widths[0], widths[1:]
    step = (p - 1) ** 2  # growth of a trailing entry per unit of inner dimension
    bound = p - 1  # largest magnitude a trailing entry can have
    row_major = at.strides[0] < at.strides[1]  # A's rows are contiguous
    rank = 0
    pivots: list[int] = []
    inverses: list[int] = []
    swaps: list[tuple[int, int]] = []
    for c in range(0, cols, width):
        if rank == rows:
            break
        e = min(c + width, cols)
        block = at[c:e, rank:].copy()
        _reduce(block, p)
        if inner:
            r, piv, inv, sw = _factor(block, p, inner)
        else:
            block = block.astype(np.int64)
            r, piv, inv, sw = _eliminate(block, p)
        if sw:
            _swap_rows(at[:, rank:].T, sw)
        at[c:e, rank:] = block
        pivots += [c + q for q in piv]
        inverses += inv
        swaps += [(rank + i, rank + j) for i, j in sw]
        if r and e < cols and rank + r < rows:
            # Multipliers against the unscaled pivot rows, transposed: row k
            # scaled by the k-th pivot inverse, so the triangle to solve has
            # a unit diagonal.
            lower = block[piv].astype(np.float64, copy=False)
            lower *= np.array(inv, dtype=np.float64)[:, None]
            _reduce(lower, p)
            upper = at[e:, rank : rank + r].T  # the pivot rows right of the block
            _reduce(upper, p)
            _solve_unit_lower(lower[:, :r].T, upper, p)
            reduce = bound + r * step > _EXACT
            for i in range(r, rows - rank, _CHUNK):
                rest = at[e:, rank + i : rank + i + _CHUNK]
                if reduce:
                    _reduce(rest, p)
                chunk = lower[:, i : i + _CHUNK]
                # the product in the layout of the entries it updates
                rest -= (chunk.T @ upper).T if row_major else upper.T @ chunk
            bound = (p - 1 if reduce else bound) + r * step
        rank += r
    return rank, pivots, inverses, swaps


def _residues(a: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write into out (int64 or float64, the shape of a; it may be a itself)
    integers congruent to the entries of a, of magnitude at most p-1, in
    chunks of _CHUNK rows so that no temporary is as tall as a.  A float
    chunk already in [0, p), as the oracle's matrices are, is kept as it is;
    any other goes through np.fmod, which is exact at any magnitude, keeps
    the sign of its argument, and turns inf and nan into nan.  A float entry
    that is not a finite integer raises ValueError: the integrality test
    rejects nan and fractions either way."""
    for i in range(0, len(a), _CHUNK):
        chunk, dest = a[i : i + _CHUNK], out[i : i + _CHUNK]
        if a.dtype.kind != "f":
            np.remainder(chunk, p, out=dest, dtype=np.int64)
            continue
        if chunk.min() >= 0 and chunk.max() < p:  # false for inf and nan
            r = dest if out is a else chunk  # already residues: no fmod
        else:
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
    rank is the same); a wider one by _factor, in blocks of _PANEL columns
    and those in blocks of _SUB.

    The matrix is left unchanged unless overwrite is true, which lets a
    C-contiguous, writeable float64 matrix serve as _factor's
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
    return _factor(f.T, p, (_PANEL, _SUB))[0]


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


def _specialize(pts: PointSet) -> None:
    """Put the first tangent points on the coordinate frame, in place:
    point t takes e_t in each factor with t <= n_i.  Every other coordinate
    keeps its draw, the P^0 factor's scalar of a point t > 0 among them."""
    for x in pts.tangent:
        on = min(x.shape)
        x[:on] = np.eye(on, x.shape[1], dtype=x.dtype)


def _unit_head(st: Statement) -> int:
    """How many leading rows of the matrix built at specialized points
    _project examines: those of the tangent points off the frame in at
    most one positive factor.  A point t on the frame has only unit rows;
    one off it in factor i alone, unit rows in its block of slot i, and
    rows in its other blocks that removals can leave unit.  A later point
    is off the frame in two positive factors, so each of its rows keeps a
    random vector.  Each tangent point has 1 + sum n_i rows, and the fiber
    rows come after them."""
    pos = sorted(n for n in st.format.dims if n)
    points = st.s if len(pos) < 2 else min(st.s, pos[1] + 1)
    return points * (1 + sum(pos))


def _project(out: np.ndarray, head: int) -> tuple[int, np.ndarray]:
    """Remove each unit row (one nonzero entry) among the first `head` rows
    of `out` with its column, and again while rows there become unit as
    columns go, with the rows there that are left zero.  Returns the number
    of columns removed, which adds to the rank of what is left, and what is
    left: a C-contiguous view of out's own buffer, into which the kept rows
    and columns are compacted in chunks of _CHUNK rows.  Chunk i goes to the
    buffer's entries before those of its kept rows, and kept rows are read
    in order, so no chunk overwrites a row still to be read."""
    rows, cols = out.shape
    nonzero = out[:head] != 0
    count = nonzero.sum(axis=1)
    gone = np.zeros(cols, dtype=bool)
    live = np.ones(len(nonzero), dtype=bool)
    while True:
        unit = np.flatnonzero(live & (count == 1))
        if not unit.size:
            break
        cut = np.zeros(cols, dtype=bool)  # two unit rows can share one
        cut[(nonzero[unit] & ~gone).argmax(axis=1)] = True
        gone |= cut
        live[unit] = False
        count -= nonzero[:, cut].sum(axis=1)
    live &= count > 0
    removed = int(gone.sum())
    if live.all() and not removed:
        return 0, out
    keep = np.concatenate((np.flatnonzero(live), np.arange(len(live), rows)))
    kept = np.flatnonzero(~gone)
    flat = out.reshape(-1)
    width = len(kept)
    for i in range(0, len(keep), _CHUNK):
        chunk = out[np.ix_(keep[i : i + _CHUNK], kept)]
        flat[i * width : i * width + chunk.size] = chunk.reshape(-1)
    return removed, flat[: len(keep) * width].reshape(len(keep), width)


def recompute_rank(st: Statement, prime: int, seed: int) -> RankWitness:
    """One attempt from (prime, seed): terracini_oracle runs each of its
    plan through it, and verifiers re-run a recorded one.  The points are
    those sample_points draws, with the first on the frame (_specialize),
    and the rank that of build_terracini_matrix at them: the unit rows it
    projects out (_project) plus rank_mod_p of the rest."""
    pts = sample_points(st, prime, seed)
    _specialize(pts)
    # no name outlives the call: the matrix is freed before the next
    # attempt builds
    removed, rest = _project(build_terracini_matrix(st, pts), _unit_head(st))
    rank = removed + rank_mod_p(rest, prime, overwrite=True)
    return RankWitness(st.canonical(), prime, seed, row_count(st),
                       ambient_dim(st.format), rank, target_dim(st))
