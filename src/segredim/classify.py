"""Per-format reports built on the catalog, the prover, and the oracle.

Secant rows are resolved cheapest-first: closed-form catalog facts, then a
proof search, then a direct modular rank computation.  Every entry point
takes one ProofEngine, whose RunConfig holds the run's settings: the
search's node budget, the oracle's field settings and the cache digest.
A rank deficit observed by the oracle is reported as Evidence-Defective,
never as proven Defective; only catalog families and falsity certificates
promote a row to Defective, and only catalog families carry exact
defective dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional, Union

from .ffrank import OracleBudgetError, terracini_oracle
from .formats import (
    Format,
    FormatLike,
    Statement,
    ambient_dim,
    expected_fill_count,
    expected_secant_dim,
)
from .induction import CertNode, ProofEngine
from .induction.rules import SMALL_FORMAT_DIMS, defective_family, known_false

NONDEFECTIVE = "NonDefective"
DEFECTIVE = "Defective"
EVIDENCE_DEFECTIVE = "Evidence-Defective"
UNKNOWN = "Unknown"

# extra secants to sweep past the expected fill count before giving up
_CAP_MARGIN = 6


class CatalogConsistencyError(RuntimeError):
    """A computed value contradicts a catalog cross-check entry."""


@dataclass(frozen=True)
class ProfileRow:
    """One secant index of a format.

    expected/lower/upper are affine cone dimensions.  lower is certified
    (catalog rule, proof certificate, or modular rank, which only ever
    underestimates); upper is a proven upper bound.  defect is set when the
    dimension is known exactly.  proof is the root node of the row's
    certificate, or the root digest a cache record holds; cert_ref hashes
    it only when read.
    """

    s: int
    expected: int
    lower: Optional[int]
    upper: Optional[int]
    status: str
    defect: Optional[int] = None
    source: str = ""
    proof: Union[CertNode, str, None] = field(default=None, repr=False,
                                               compare=False)
    note: Optional[str] = None

    @property
    def cert_ref(self) -> Optional[str]:
        return _cert_ref(self.proof)

    def record(self, fmt: Format) -> dict:
        out = {
            "format": str(fmt),
            "s": self.s,
            "expected": self.expected,
            "lower": self.lower,
            "upper": self.upper,
            "status": self.status,
            "cert_ref": self.cert_ref,
        }
        if self.note:
            out["note"] = self.note
        return out


def _cert_ref(proof: Union[CertNode, str, None]) -> Optional[str]:
    """First 12 hex digits of a proof's root digest (a Merkle hash of the
    whole certificate); `proof` is the root node or that digest."""
    if proof is None:
        return None
    return (proof if isinstance(proof, str) else proof.digest)[:12]


@dataclass(frozen=True)
class SecantProfile:
    format: Format
    rows: tuple[ProfileRow, ...]
    typical_rank: Optional[int]
    typical_rank_status: str  # "certified" | "unknown"
    notes: tuple[str, ...] = ()

    @property
    def ambient(self) -> int:
        return ambient_dim(self.format)

    def row(self, s: int) -> ProfileRow:
        for r in self.rows:
            if r.s == s:
                return r
        raise KeyError(f"no row for s={s}")

    def records(self) -> list[dict]:
        return [r.record(self.format) for r in self.rows]


@dataclass(frozen=True)
class PowerBounds:
    """Secant windows for the k-th power of one projective factor.

    For s up to nondefective_max the secant variety has the expected
    dimension; from fill_min on it fills the ambient space.  The *_direct
    flags mark (n, k) pairs whose window endpoints were confirmed by direct
    rank computation instead of the inductive argument; the windows
    themselves hold for every pair.
    """

    n: int
    k: int
    s_k: int
    delta_k: int
    nondefective_max: int
    fill_min: int
    nondef_direct: bool
    fill_direct: bool


_NONDEF_DIRECT = frozenset({(4, 4), (7, 4)})
_FILL_DIRECT = frozenset({
    (1, 5), (1, 6), (1, 7), (2, 4), (3, 4), (3, 5), (4, 4), (7, 4),
})


def tensor_power_bounds(n: int, k: int) -> PowerBounds:
    if k < 3:
        raise ValueError(f"power bounds need k >= 3, got {k}")
    if n < 1:
        raise ValueError(f"power bounds need n >= 1, got {n}")
    s_k = (n + 1) ** k // (n * k + 1)
    delta = s_k % (n + 1)
    return PowerBounds(
        n=n,
        k=k,
        s_k=s_k,
        delta_k=delta,
        nondefective_max=s_k - delta,
        fill_min=s_k - delta + n + 1,
        nondef_direct=(n, k) in _NONDEF_DIRECT,
        fill_direct=(n, k) in _FILL_DIRECT,
    )


# --- catalog rows ---------------------------------------------------------


def _positive_dims(fmt: Format) -> tuple[int, ...]:
    # point factors never change secant dimensions
    return tuple(sorted(n for n in fmt.dims if n > 0))


def _nd(s: int, affine: int, rule: str, note: Optional[str] = None) -> ProfileRow:
    return ProfileRow(s, affine, affine, affine, NONDEFECTIVE, 0,
                      "catalog:" + rule, None, note)


def _exact(s: int, affine: int, actual: int, rule: str) -> ProfileRow:
    return ProfileRow(s, affine, actual, actual, DEFECTIVE, affine - actual,
                      "catalog:" + rule)


def _catalog_row(fmt: Format, s: int) -> Optional[ProfileRow]:
    """Closed-form resolution of one secant row, or None if the catalog is
    silent.  Defective rows without exact catalog dimensions come back with
    lower=None; the caller measures them."""
    affine, _ = expected_secant_dim(fmt, s)
    pos = _positive_dims(fmt)
    k = len(pos)
    if k <= 1:
        # a point, or a single projective space: every secant fills
        return _nd(s, affine, "single-factor")
    if s == 1:
        # the first secant is the cone over the variety itself
        return _nd(s, affine, "first-secant")
    if pos in SMALL_FORMAT_DIMS:
        plain = Statement.of(pos, s, (0,) * k)
        if known_false(plain) is None:
            return _nd(s, affine, "small-format")
        return ProfileRow(s, affine, None, affine - 1, DEFECTIVE, None,
                          "catalog:small-format")
    if k >= 3 and s <= 2:
        return _nd(s, affine, "two-secants")
    family = defective_family(pos)
    if family is not None:
        name, lo, hi, span = family
        low, bad = ("-low", "-range") if name == "unbalanced" else ("", "")
        if s <= lo:
            return _nd(s, affine, name + low)
        if s < hi:
            return _exact(s, affine, span(s), name + bad)
        # hi is the typical rank, so everything from here on fills
        return _nd(s, affine, name + "-fill")
    # every format outside the families is balanced
    if s <= pos[-1]:
        return _nd(s, affine, "balanced-low")
    if k >= 3 and len(set(pos)) == 1:
        pb = tensor_power_bounds(pos[0], k)
        if s <= pb.nondefective_max:
            note = "window endpoint checked directly" if pb.nondef_direct else None
            return _nd(s, affine, "power-window", note)
        if s >= pb.fill_min:
            note = "window endpoint checked directly" if pb.fill_direct else None
            return _nd(s, affine, "power-window-fill", note)
    return None


def _settle(st: Statement, engine: ProofEngine, cache):
    """Settle a canonical statement the catalog leaves open: the cache,
    then the engine's proof search, then its oracle.

    Returns (verdict, proof, oracle).  A cache hit gives verdict and the
    record's root digest as proof, a certificate gives verdict and its
    root node, unhashed; otherwise verdict is None and oracle is the
    engine's oracle outcome (an OracleResult or OracleBudgetError), which
    the search's last leaf usually asked for already.  Records are keyed
    by the digest of the engine's config, the one that produces them.
    """
    digest = engine.config.digest()
    hit = cache.get(st, digest) if cache is not None else None
    if hit is not None:
        return hit.verdict, hit.cert_sha256, None
    v = engine.prove(st)
    if v.status is not None:
        if cache is not None:
            cache.put(st, v.status, v.certificate, digest)
        return v.status, v.certificate.root, None
    return None, None, engine.oracle(st)


def _measure(fmt: Format, s: int, row: ProfileRow,
             engine: ProofEngine) -> ProfileRow:
    """Fill in the oracle-measured dimension of a proven-defective row."""
    st = Statement.of(fmt, s, (0,) * fmt.k)
    try:
        res = terracini_oracle(st, engine.config)
    except OracleBudgetError:
        return row
    best = res.witness.rank
    defect = row.expected - best if best == row.upper else None
    return ProfileRow(row.s, row.expected, best, row.upper, DEFECTIVE, defect,
                      row.source, row.proof, row.note)


def resolve_secant(fmt: FormatLike, s: int,
                   engine: Optional[ProofEngine] = None,
                   cache=None) -> ProfileRow:
    """Resolve one secant row: catalog, then proof search, then oracle."""
    f = Format.of(fmt)
    engine = engine or ProofEngine()
    affine, _ = expected_secant_dim(f, s)

    row = _catalog_row(f, s)
    if row is not None:
        if row.status == DEFECTIVE and row.lower is None:
            return _measure(f, s, row, engine)
        return row

    st = Statement.of(f, s, (0,) * f.k).canonical()
    verdict, proof, oracle = _settle(st, engine, cache)
    if verdict is True:
        return ProfileRow(s, affine, affine, affine, NONDEFECTIVE, 0,
                          "induction", proof)
    if verdict is False:
        row = ProfileRow(s, affine, None, affine - 1, DEFECTIVE, None,
                         "induction", proof)
        return _measure(f, s, row, engine)
    if isinstance(oracle, OracleBudgetError):
        return ProfileRow(s, affine, None, affine, UNKNOWN, None, "oracle",
                          None, str(oracle))
    if oracle.certified:
        return ProfileRow(s, affine, affine, affine, NONDEFECTIVE, 0, "oracle")
    return ProfileRow(s, affine, oracle.witness.rank, affine,
                      EVIDENCE_DEFECTIVE, None, "oracle", None, oracle.note)


# --- profiles -------------------------------------------------------------


def _family_notes(fmt: Format) -> tuple[str, ...]:
    pos = _positive_dims(fmt)
    notes = []
    if (len(pos) == 3 and pos[0] == 2 and pos[1] == pos[2] >= 4
            and pos[1] % 2 == 0):
        notes.append(
            "format (2,n,n) with n even is a known defective family; "
            "defective dimensions here are oracle evidence only")
    return tuple(notes)


def secant_profile(fmt: FormatLike, max_s: Optional[int] = None,
                   engine: Optional[ProofEngine] = None,
                   cache=None) -> SecantProfile:
    """Sweep s = 1, 2, ... resolving each row, stopping at certified fill.

    The typical rank is the least s whose row certifies the full ambient
    dimension.  If the sweep hits its cap without a certified fill the rank
    is reported unknown.
    """
    f = Format.of(fmt)
    engine = engine or ProofEngine()
    P = ambient_dim(f)
    cap = max_s if max_s is not None else expected_fill_count(f) + _CAP_MARGIN
    rows: list[ProfileRow] = []
    rank: Optional[int] = None
    for s in range(1, cap + 1):
        row = resolve_secant(f, s, engine, cache)
        rows.append(row)
        if row.status == NONDEFECTIVE and row.lower == P:
            rank = s
            break
    return SecantProfile(
        format=f,
        rows=tuple(rows),
        typical_rank=rank,
        typical_rank_status="certified" if rank is not None else "unknown",
        notes=_family_notes(f),
    )


def render_profile(profile: SecantProfile) -> str:
    f = profile.format
    out = [f"format ({f})  ambient affine {profile.ambient}"]
    out.append(f"  {'s':>3} {'expected':>9} {'lower':>6} {'upper':>6}  status")
    for r in profile.rows:
        status = r.status
        if r.status == DEFECTIVE and r.defect is not None:
            status = f"Defective({r.defect})"
        lo = "?" if r.lower is None else r.lower
        hi = "?" if r.upper is None else r.upper
        line = f"  {r.s:>3} {r.expected:>9} {lo:>6} {hi:>6}  {status} [{r.source}]"
        if r.note:
            line += f"  ({r.note})"
        out.append(line)
    if profile.typical_rank is not None:
        out.append(f"typical rank: {profile.typical_rank} (certified)")
    else:
        out.append("typical rank: unknown within sweep cap")
    for note in profile.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


# --- typical rank ---------------------------------------------------------


@dataclass(frozen=True)
class TypicalRank:
    value: Optional[int]
    status: str  # "catalog" | "certified" | "unknown"
    source: str = ""


_RANK_CROSS_CHECKS = {
    (2, 2, 2): 5,
    (2, 2, 2, 2, 2): 23,
    (3, 3, 3, 3): 20,
}


def typical_rank(fmt: FormatLike, engine: Optional[ProofEngine] = None,
                 cache=None) -> TypicalRank:
    """Least s whose secant variety fills the ambient space."""
    f = Format.of(fmt)
    pos = _positive_dims(f)
    k = len(pos)
    family = defective_family(pos)
    if k <= 1:
        result = TypicalRank(1, "catalog", "single-factor")
    elif family is not None:
        name, _, hi, _ = family
        result = TypicalRank(hi, "catalog", name)
    else:
        profile = secant_profile(f, engine=engine, cache=cache)
        if profile.typical_rank is not None:
            result = TypicalRank(profile.typical_rank, "certified", "profile")
        else:
            result = TypicalRank(None, "unknown", "profile")
    want = _RANK_CROSS_CHECKS.get(pos)
    if want is not None and result.value is not None and result.value != want:
        raise CatalogConsistencyError(
            f"typical rank of ({f}) computed as {result.value}, "
            f"catalog says {want}")
    return result


# --- perfection -----------------------------------------------------------

PERFECT = "Perfect"
NOT_PERFECT = "NotPerfect"
NOT_NUMERICALLY_PERFECT = "NotNumericallyPerfect"


@dataclass(frozen=True)
class PerfectCheck:
    status: str
    fill_count: Optional[int] = None
    statement: Optional[Statement] = None
    source: str = ""
    cert_ref: Optional[str] = None
    note: Optional[str] = None


def _odd_power_family(pos: tuple[int, ...]) -> bool:
    # one factor of dimension k, plus k+1 factors of an odd dimension n
    from collections import Counter
    counts = Counter(pos)
    if len(counts) == 1:
        n = pos[0]
        return n % 2 == 1 and len(pos) == n + 1
    if len(counts) != 2:
        return False
    (d1, c1), (d2, c2) = sorted(counts.items(), key=lambda kv: kv[1])
    if c1 != 1:
        return False
    n, k = d2, d1
    return c2 == k + 1 and n % 2 == 1


def perfect_check(fmt: FormatLike, engine: Optional[ProofEngine] = None,
                  cache=None) -> PerfectCheck:
    """Does some secant variety hit the ambient dimension exactly?

    Requires the numerical identity (1 + sum n) | prod(n + 1), then a proof
    that the equiabundant statement is true.  Two closed families short cut
    the proof; otherwise it goes catalog, search, oracle, like any row.
    """
    f = Format.of(fmt)
    pos = _positive_dims(f)
    P = ambient_dim(f)
    w = 1 + sum(pos)
    if P % w != 0:
        return PerfectCheck(NOT_NUMERICALLY_PERFECT,
                            note=f"{P} is not a multiple of {w}")
    s_star = P // w
    k = len(pos)
    if k <= 1:
        return PerfectCheck(PERFECT, s_star, source="catalog:single-factor")
    st = Statement.of(pos, s_star, (0,) * k).canonical()
    if k >= 3 and len(set(pos)) == 1:
        pb = tensor_power_bounds(pos[0], k)
        if pb.delta_k == 0:
            return PerfectCheck(PERFECT, s_star, st, "catalog:power-window")
    if k >= 3 and _odd_power_family(pos):
        return PerfectCheck(PERFECT, s_star, st, "catalog:odd-power-family")

    verdict, proof, oracle = _settle(st, engine or ProofEngine(), cache)
    if verdict is not None:
        return PerfectCheck(PERFECT if verdict else NOT_PERFECT, s_star, st,
                            "induction", _cert_ref(proof))
    if isinstance(oracle, OracleBudgetError):
        return PerfectCheck(UNKNOWN, s_star, st, "oracle", note=str(oracle))
    if oracle.certified:
        return PerfectCheck(PERFECT, s_star, st, "oracle")
    return PerfectCheck(
        UNKNOWN, s_star, st, "oracle",
        note=f"rank deficit observed ({oracle.witness.rank} < "
             f"{oracle.witness.target}); not a proof of imperfection")


# --- defective scan -------------------------------------------------------


@dataclass(frozen=True)
class ScanHit:
    format: Format
    s: int
    expected: int
    lower: Optional[int]
    upper: Optional[int]
    status: str

    def record(self) -> dict:
        return {
            "format": str(self.format),
            "s": self.s,
            "expected": self.expected,
            "lower": self.lower,
            "upper": self.upper,
            "status": self.status,
            "cert_ref": None,
        }


@dataclass(frozen=True)
class ScanReport:
    k_max: int
    n_max: int
    r_max: int
    hits: tuple[ScanHit, ...]

    def by_secant(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for h in self.hits:
            out.setdefault(h.s, []).append(tuple(sorted(h.format.dims)))
        for v in out.values():
            v.sort()
        return out

    def records(self) -> list[dict]:
        return [h.record() for h in self.hits]


def defective_scan(k_max: int, n_max: int, r_max: int,
                   engine: Optional[ProofEngine] = None,
                   cache=None,
                   k_min: int = 3) -> ScanReport:
    """Resolve every secant up to r_max on the grid of formats with k_min
    <= k <= k_max factors and dimensions in 1..n_max; report every row that
    is not certified nondefective.  One engine memoizes across the grid.

    Each format is proved from its critical row crit = min(P // (1 + sum n),
    r_max), the largest scanned s that is still subabundant.  If the
    crit-th secant is nondefective, its crit general tangent spaces are
    independent, so any fewer of them are too (Terracini's lemma): every
    row below crit is nondefective.  So crit is resolved first; if it is
    NonDefective, the rows below it get no search, oracle or cache
    record, and a catalog row below it that is not NonDefective raises
    CatalogConsistencyError.  Otherwise the rows below crit are resolved
    one by one.  No row below crit can fill, so rows from crit on are
    then resolved in order until one fills.
    With a cache, only the rows the scan proved are recorded.  `classify`
    (secant_profile) and `dim` (resolve_secant) still prove every row they
    print, since their output carries each row's cert_ref.
    """
    engine = engine or ProofEngine()
    hits: list[ScanHit] = []
    for k in range(k_min, k_max + 1):
        for dims in combinations_with_replacement(range(1, n_max + 1), k):
            f = Format.of(dims)
            P = ambient_dim(f)
            crit = min(P // (1 + sum(dims)), r_max)
            crit_row = resolve_secant(f, crit, engine, cache)
            start = 1
            if crit_row.status == NONDEFECTIVE:
                for s in range(1, crit):
                    cat = _catalog_row(f, s)
                    if cat is not None and cat.status != NONDEFECTIVE:
                        raise CatalogConsistencyError(
                            f"({f}) s={s} reads {cat.status} below its "
                            f"nondefective critical row s={crit}")
                start = crit  # every row below follows from crit
            for s in range(start, r_max + 1):
                row = (crit_row if s == crit
                       else resolve_secant(f, s, engine, cache))
                if row.status != NONDEFECTIVE:
                    hits.append(ScanHit(f, s, row.expected, row.lower,
                                        row.upper, row.status))
                elif row.lower == P:
                    break  # fills from here on
    return ScanReport(k_max, n_max, r_max, tuple(hits))


def render_scan(report: ScanReport) -> str:
    out = [f"defective scan: k<={report.k_max} n<={report.n_max} "
           f"s<={report.r_max}  ({len(report.hits)} hits)"]
    for h in report.hits:
        status = h.status
        lo = "?" if h.lower is None else h.lower
        out.append(f"  ({h.format}) s={h.s}: expected {h.expected}, "
                   f"certified {lo}, {status}")
    return "\n".join(out)
