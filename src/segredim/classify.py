"""Per-format reports built on the catalog, the prover, and the oracle.

Secant rows are resolved cheapest-first: the falsity catalog, then a
proof search, then a direct modular rank computation.  The catalog holds
only defective rows; every row it does not claim is settled by the
search, or by the oracle when the search gives up (_settle), and every
NonDefective row carries the certificate that settled it.  A row's
source names the layer that decided it.  Every entry point takes one
ProofEngine, whose RunConfig holds the run's settings: the search's node
budget, the oracle's field settings and the cache digest.  A rank deficit
observed by the oracle is reported as Evidence-Defective, never as proven
Defective; only catalog families and falsity certificates promote a row
to Defective, and only catalog families carry exact defective
dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations_with_replacement
from typing import Optional, Union

# unused here (ProofEngine.oracle is its one caller), but perfbench/spans.py
# wraps terracini_oracle under this module's name
from .ffrank import (OracleBudgetError, OracleResult, RankWitness,
                     terracini_oracle)
from .formats import (
    Format,
    FormatLike,
    Statement,
    ambient_dim,
    expected_fill_count,
    expected_secant_dim,
)
from .induction import CertNode, ProofEngine
from .induction import certificate as cert
from .induction.rules import SMALL_FORMAT_DIMS, defective_family, known_false
from .induction.verify import evidence_holds

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
        """First 12 hex digits of the proof's root digest (a Merkle hash
        of the whole certificate)."""
        proof = self.proof
        if proof is None:
            return None
        return (proof if isinstance(proof, str) else proof.digest)[:12]

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

    def records(self) -> list[dict]:
        return [r.record(self.format) for r in self.rows]


@dataclass(frozen=True)
class PowerBounds:
    """Secant windows for the k-th power of one projective factor.

    The source paper's generalisation of Catalisano-Geramita-Gimigliano:
    for s up to nondefective_max the secant variety has the expected
    dimension, and from fill_min on it fills the ambient space.  This is
    the statement of the theorem, not a verdict source: the search
    certifies every row it names (see the tests).
    """

    n: int
    k: int
    s_k: int
    delta_k: int
    nondefective_max: int
    fill_min: int


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
    )


# --- catalog rows ---------------------------------------------------------


@cache
def _positive_dims(fmt: Format) -> tuple[int, ...]:
    # point factors never change secant dimensions; kept per format, since a
    # scan asks once per row
    return tuple(sorted(n for n in fmt.dims if n > 0))


def _exact(s: int, affine: int, actual: int, rule: str) -> ProfileRow:
    return ProfileRow(s, affine, actual, actual, DEFECTIVE, affine - actual,
                      "catalog:" + rule)


def _catalog_row(fmt: Format, s: int) -> Optional[ProfileRow]:
    """The catalog's defective row at s, or None for every other row, which
    the search settles.  A small-format False entry comes back with
    lower=None, and the caller measures it; a defective_family row with
    lo < s < hi carries its exact span(s)."""
    pos = _positive_dims(fmt)
    if pos in SMALL_FORMAT_DIMS:
        if known_false(Statement.of(pos, s, (0,) * len(pos))) is None:
            return None
        affine, _ = expected_secant_dim(fmt, s)
        return ProfileRow(s, affine, None, affine - 1, DEFECTIVE, None,
                          "catalog:small-format")
    family = defective_family(pos)
    if family is None or not family[1] < s < family[2]:
        return None
    name, _, _, span = family
    bad = "-range" if name == "unbalanced" else ""
    return _exact(s, expected_secant_dim(fmt, s)[0], span(s), name + bad)


def _settle(st: Statement, engine: ProofEngine, cache) -> ProfileRow:
    """The row of a statement the catalog leaves open: the cache, then
    the engine's proof search, then its oracle.

    The source is read off what decided the row: `cache` for a decided
    cache record, whose root digest is then the proof; `oracle` for a
    one-node oracle certificate and for an undetermined row; `induction`
    for any other certificate.  A certificate's root node is kept
    unhashed.  A False row is Defective with no lower bound, which
    resolve_secant measures.

    A search that ends undetermined leaves the row to the engine's oracle
    outcome.  Only the reasons node_budget and no_rule can make that a
    fresh oracle run; after any other, the search's root leaf ran the
    whole plan and its kept outcome is read back.  On the bench scan grid
    (k<=3, n<=10, s<=60) no search stops at either, and this call
    certifies none of the 411 rows settled here.  A certified outcome is
    the one-node oracle certificate the root leaf also writes, and the
    cache records it like any other decided row.  Otherwise the row is
    Evidence-Defective, with the best rank and the oracle's note, or
    Unknown after a refusal, and the cache records the search's reason
    with the best witness, or with none after a refusal.  Records are
    keyed by the digest of the engine's config.  Under the same digest
    such a record is served as is, with no search, once it holds up
    (_served); one that does not is a miss, and its row is settled afresh.
    """
    s = st.s
    affine, _ = expected_secant_dim(st.format, s)

    def decided(verdict: bool, proof: Union[CertNode, str]) -> ProfileRow:
        source = ("cache" if isinstance(proof, str) else
                  "oracle" if proof.kind == cert.ORACLE else "induction")
        if verdict:
            return ProfileRow(s, affine, affine, affine, NONDEFECTIVE, 0,
                              source, proof)
        return ProfileRow(s, affine, None, affine - 1, DEFECTIVE, None,
                          source, proof)

    digest = engine.config.digest()
    hit = cache.get(st, digest) if cache is not None else None
    oracle = None
    if hit is not None:
        if hit.verdict is not None:
            return decided(hit.verdict, hit.cert_sha256)
        oracle = _served(hit.witness, st, engine)
        if oracle is None:
            cache.discard(st, digest)
    if oracle is None:
        v = engine.prove(st)
        verdict, proof = v.status, v.certificate
        if verdict is None:
            oracle = engine.oracle(st)
            if isinstance(oracle, OracleResult) and oracle.certified:
                verdict, proof = True, cert.Certificate(
                    st, True, CertNode(cert.ORACLE, st, witness=oracle.witness))
        if verdict is not None:
            if cache is not None:
                cache.put(st, verdict, proof, digest)
            return decided(verdict, proof.root)
        if cache is not None:
            witness = (oracle.witness if isinstance(oracle, OracleResult)
                       else None)
            cache.put(st, None, None, digest, reason=v.reason, witness=witness)
    if isinstance(oracle, OracleBudgetError):
        return ProfileRow(s, affine, None, affine, UNKNOWN, None, "oracle",
                          None, str(oracle))
    return ProfileRow(s, affine, oracle.witness.rank, affine,
                      EVIDENCE_DEFECTIVE, None, "oracle", None, oracle.note)


def _served(witness: Optional[RankWitness], st: Statement,
            engine: ProofEngine) -> Union[OracleResult, OracleBudgetError,
                                          None]:
    """The oracle outcome an undetermined record of `st` stands for, or
    None when the record does not hold up.  No witness stands for the
    refusal that engine.oracle answers by size alone, without a matrix.  A
    witness must be an attempt of the engine's plan on a matrix the oracle
    accepts, the first of its rank, as a fresh oracle keeps it, and it is
    rechecked, its rank recomputed (evidence_holds)."""
    refused = engine.cell_budget(st) is None
    if witness is None:
        return engine.oracle(st) if refused else None
    if refused or not evidence_holds(witness, engine.config.seed):
        return None
    return OracleResult(False, witness, (witness,))


def _measure(fmt: Format, row: ProfileRow,
             engine: ProofEngine) -> ProfileRow:
    """Fill in the oracle-measured dimension of a proven-defective row.  A
    certified rank above the row's upper bound refutes the falsity claim
    behind it, and raises CatalogConsistencyError."""
    res = engine.oracle(Statement.of(fmt, row.s, (0,) * fmt.k))
    if isinstance(res, OracleBudgetError):
        return row
    best = res.witness.rank
    if best > row.upper:
        raise CatalogConsistencyError(
            f"({fmt}) s={row.s} certifies rank {best}, above the upper "
            f"bound {row.upper} that {row.source} claims")
    defect = row.expected - best if best == row.upper else None
    return ProfileRow(row.s, row.expected, best, row.upper, DEFECTIVE, defect,
                      row.source, row.proof, row.note)


def resolve_secant(fmt: FormatLike, s: int,
                   engine: Optional[ProofEngine] = None,
                   cache=None) -> ProfileRow:
    """Resolve one secant row: the catalog, else _settle.  A Defective row
    with no lower bound, from the small-format catalog or a False
    certificate, then gets the dimension the oracle measures."""
    f = Format.of(fmt)
    engine = engine or ProofEngine()
    row = _catalog_row(f, s) or _settle(
        Statement.of(f, s, (0,) * f.k), engine, cache)
    if row.status == DEFECTIVE and row.lower is None:
        return _measure(f, row, engine)
    return row


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
    is reported unknown.  Without max_s the cap is a margin past the
    expected fill count, and at least a defective family's typical rank.
    """
    f = Format.of(fmt)
    engine = engine or ProofEngine()
    P = ambient_dim(f)
    cap = max_s
    if cap is None:
        family = defective_family(_positive_dims(f))
        cap = max(expected_fill_count(f) + _CAP_MARGIN,
                  family[2] if family is not None else 0)
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
    status: str  # "certified" (read off the profile's filling row) | "unknown"
    source: str = "profile"


_RANK_CROSS_CHECKS = {
    (2, 2, 2): 5,
    (2, 2, 2, 2, 2): 23,
    (3, 3, 3, 3): 20,
}


def typical_rank(fmt: FormatLike, engine: Optional[ProofEngine] = None,
                 cache=None) -> TypicalRank:
    """Least s whose secant variety fills the ambient space: the secant
    profile's certified typical rank, or unknown if its sweep found none."""
    f = Format.of(fmt)
    profile = secant_profile(f, engine=engine, cache=cache)
    result = TypicalRank(profile.typical_rank, profile.typical_rank_status)
    want = _RANK_CROSS_CHECKS.get(_positive_dims(f))
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


def perfect_check(fmt: FormatLike, engine: Optional[ProofEngine] = None,
                  cache=None) -> PerfectCheck:
    """Does some secant variety hit the ambient dimension exactly?

    Requires the numerical identity (1 + sum n) | prod(n + 1), then a proof
    that the equiabundant statement is true: catalog, search, oracle, like
    any row.  A format with at most one positive factor is Perfect without
    a certificate, since it has no statement to prove.
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
    st = Statement.of(pos, s_star, (0,) * k)
    row = _settle(st, engine or ProofEngine(), cache)
    status = {NONDEFECTIVE: PERFECT, DEFECTIVE: NOT_PERFECT}.get(row.status,
                                                                  UNKNOWN)
    return PerfectCheck(status, s_star, st, row.source, row.cert_ref,
                        row.note)


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
    r_max), the largest scanned s that is still subabundant.  If a secant
    below the ambient is nondefective, its general tangent spaces are
    independent, so any fewer of them are too (Terracini's lemma): every
    row below it is nondefective.  So crit is resolved first, and while
    the row just resolved is not NonDefective the walk goes down one row;
    the rows below the first NonDefective row it meets, the floor, get no
    search, oracle or cache record, and a catalog row among them (the
    catalog holds only defective rows) raises CatalogConsistencyError.
    No row below crit can fill, so rows from the floor on are then listed
    in ascending s, and those above crit resolved in order until one fills.
    With a cache, the rows the scan settles are recorded, undetermined
    ones with their reason and best witness, and served on a resumed scan
    after one witness recheck (see _settle); the rows below the floor are
    not.  `classify` (secant_profile) and `dim` (resolve_secant) still
    prove every row they print, since their output carries each row's
    cert_ref.
    """
    engine = engine or ProofEngine()
    hits: list[ScanHit] = []
    for k in range(k_min, k_max + 1):
        for dims in combinations_with_replacement(range(1, n_max + 1), k):
            f = Format.of(dims)
            P = ambient_dim(f)
            crit = min(P // (1 + sum(dims)), r_max)
            walked = {crit: resolve_secant(f, crit, engine, cache)}
            floor = crit
            while floor > 1 and walked[floor].status != NONDEFECTIVE:
                floor -= 1
                walked[floor] = resolve_secant(f, floor, engine, cache)
            for s in range(1, floor):  # every row here follows from floor
                cat = _catalog_row(f, s)
                if cat is not None:
                    raise CatalogConsistencyError(
                        f"({f}) s={s} reads {cat.status} below its "
                        f"nondefective row s={floor}")
            for s in range(floor, r_max + 1):
                row = (walked[s] if s in walked
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
