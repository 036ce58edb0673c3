"""The one defective-family table, `rules.defective_family`, against the
readers it replaced, against the search and against the oracle.

The reference functions below are the per-reader family code that the
table replaced: the catalog rows of `classify._catalog_row`, the family
and unbalanced falsity leaves of `rules.known_false`, and the catalog
branches of `classify.typical_rank`.  The catalog now keeps only its
defective rows: on a grid of formats, secant rows and fiber vectors, it
must give the reference's defective rows and falsity leaves field by
field, and every row and typical rank the reference takes from a
theorem must be certified by the search instead.
"""
import json
import re
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from segredim import classify
from segredim.config import RunConfig
from segredim.ffrank import terracini_oracle
from segredim.formats import (
    Format,
    Statement,
    ambient_dim,
    expected_fill_count,
    expected_secant_dim,
    is_balanced,
    is_unbalanced,
    target_dim,
    unbalanced_defective_range,
    unbalanced_span_dim,
    unbalanced_typical_rank,
)
from segredim.induction import ProofEngine
from segredim.induction import certificate as cert
from segredim.induction import rules
from segredim.induction.rules import FalsityReason, defective_family

_exact = classify._exact


def _nd(s, affine, rule):
    return classify.ProfileRow(s, affine, affine, affine, classify.NONDEFECTIVE,
                               0, "catalog:" + rule)


# --- reference: the per-reader family code --------------------------------


def ref_catalog_row(fmt, s):
    affine, _ = expected_secant_dim(fmt, s)
    P = ambient_dim(fmt)
    pos = classify._positive_dims(fmt)
    k = len(pos)
    if k <= 1:
        return _nd(s, affine, "single-factor")
    if s == 1:
        return _nd(s, affine, "first-secant")
    if pos in rules.SMALL_FORMAT_DIMS:
        plain = Statement.of(pos, s, (0,) * k)
        if ref_known_false(plain) is None:
            return _nd(s, affine, "small-format")
        return classify.ProfileRow(s, affine, None, affine - 1,
                                   classify.DEFECTIVE, None,
                                   "catalog:small-format")
    if k >= 3 and s <= 2:
        return _nd(s, affine, "two-secants")
    if k == 4 and pos[0] == 1 and pos[1] == 1 and pos[2] == pos[3]:
        n = pos[2]
        if s <= 2 * n:
            return _nd(s, affine, "paired-square")
        if s == 2 * n + 1:
            return _exact(s, affine, P - 2, "paired-square")
        return _nd(s, affine, "paired-square-fill")
    if pos == (2, 3, 3):
        if s <= 4:
            return _nd(s, affine, "hull-233")
        if s == 5:
            return _exact(s, affine, 44, "hull-233")
        return _nd(s, affine, "hull-233-fill")
    if is_unbalanced(pos):
        lo, hi = unbalanced_defective_range(pos)
        if s <= lo:
            return _nd(s, affine, "unbalanced-low")
        if s < hi:
            return _exact(s, affine, unbalanced_span_dim(pos, s),
                          "unbalanced-range")
        return _nd(s, affine, "unbalanced-fill")
    if is_balanced(pos) and s <= pos[-1]:
        return _nd(s, affine, "balanced-low")
    if k >= 3 and len(set(pos)) == 1:
        pb = classify.tensor_power_bounds(pos[0], k)
        if s <= pb.nondefective_max:
            return _nd(s, affine, "power-window")
        if s >= pb.fill_min:
            return _nd(s, affine, "power-window-fill")
    return None


def ref_family_false(c):
    if any(c.a):
        return None
    dims = c.format.dims
    if dims == (3, 3, 2) and c.s == 5:
        return FalsityReason(cert.TABLE_FALSE, "family:2,3,3",
                             {"actual_affine_dim": 44})
    if len(dims) == 4 and dims[2] == dims[3] == 1 and dims[0] == dims[1]:
        n = dims[0]
        if c.s == 2 * n + 1:
            return FalsityReason(cert.TABLE_FALSE, "family:1,1,n,n",
                                 {"n": n, "actual_affine_dim": ambient_dim(c.format) - 2})
    return None


def ref_unbalanced_false(c):
    if any(c.a) or c.format.k < 3 or min(c.format.dims) < 1:
        return None
    if not is_unbalanced(c.format):
        return None
    lo, hi = unbalanced_defective_range(c.format)
    if not lo < c.s < hi:
        return None
    return FalsityReason(cert.UNBALANCED_FALSE, None, {
        "d": c.s,
        "actual_affine_dim": unbalanced_span_dim(c.format, c.s),
        "expected": target_dim(c),
    })


def ref_known_false(st):
    table_id = rules._SMALL_FALSE_KEYS.get(st.key())
    if table_id is not None:
        return FalsityReason(cert.TABLE_FALSE, table_id)
    c = st.canonical()
    for check in (ref_family_false, ref_unbalanced_false,
                  rules._fibration_false):
        reason = check(c)
        if reason is not None:
            return reason
    return None


def ref_typical_rank(fmt):
    """The catalog branches; None where typical_rank sweeps a profile."""
    pos = classify._positive_dims(fmt)
    k = len(pos)
    if k <= 1:
        return classify.TypicalRank(1, "catalog", "single-factor")
    if pos == (2, 3, 3):
        return classify.TypicalRank(6, "catalog", "hull-233")
    if k == 4 and pos[0] == 1 and pos[1] == 1 and pos[2] == pos[3]:
        return classify.TypicalRank(2 * pos[2] + 2, "catalog", "paired-square")
    if is_unbalanced(pos):
        return classify.TypicalRank(unbalanced_typical_rank(pos), "catalog",
                                    "unbalanced")
    return None


# --- the grid -------------------------------------------------------------


def grid_formats():
    for k in range(1, 6):
        top = 8 if k <= 3 else 4
        for dims in combinations_with_replacement(range(top + 1), k):
            yield Format(dims)


def grid_rows():
    for f in grid_formats():
        for s in range(1, expected_fill_count(f) + 4):
            yield f, s


def _leaf(reason):
    if reason is None:
        return None
    return json.dumps([reason.kind, reason.table_id, reason.data],
                      sort_keys=True)


def test_catalog_keeps_the_references_defective_rows():
    count = 0
    for f, s in grid_rows():
        want = ref_catalog_row(f, s)
        if want is not None and want.status == classify.NONDEFECTIVE:
            continue
        got = classify._catalog_row(f, s)
        count += 1
        if want is None:
            assert got is None, (f, s)
            continue
        assert got is not None, (f, s)
        for name in ("s", "expected", "lower", "upper", "status", "defect",
                     "source", "proof", "note"):
            assert getattr(got, name) == getattr(want, name), (f, s, name)
    assert count > 3_000


def test_search_certifies_the_references_nondefective_rows():
    engine = ProofEngine()
    count = 0
    for f, s in grid_rows():
        want = ref_catalog_row(f, s)
        if want is None or want.status != classify.NONDEFECTIVE:
            continue
        assert classify._catalog_row(f, s) is None, (f, s)
        row = classify.resolve_secant(f, s, engine)
        assert (row.status, row.lower, row.upper, row.defect) == \
            (want.status, want.lower, want.upper, want.defect), (f, s)
        kind = "oracle" if row.proof.kind == cert.ORACLE else "induction"
        assert row.source == kind and row.cert_ref, (f, s)
        count += 1
    assert count > 2_000


def test_falsity_leaves_match_the_reference():
    kinds = set()
    for f, s in grid_rows():
        fibers = product((0, 1), repeat=f.k) if f.k <= 4 else [(0,) * f.k]
        for a in fibers:
            st = Statement(f, s, a)
            want = ref_known_false(st)
            assert _leaf(rules.known_false(st)) == _leaf(want), st
            if want is not None:
                kinds.add((want.kind, want.table_id))
    # every family leaves at least one falsity leaf on the grid
    assert {(cert.UNBALANCED_FALSE, None), (cert.TABLE_FALSE, "family:2,3,3"),
            (cert.TABLE_FALSE, "family:1,1,n,n")} <= kinds


def test_typical_ranks_match_the_reference():
    # where the reference took the rank from a closed form, the profile
    # must certify the same rank, and typical_rank reads it from there
    engine = ProofEngine()
    families = 0
    for f in grid_formats():
        want = ref_typical_rank(f)
        if want is None:
            continue
        profile = classify.secant_profile(f, engine=engine)
        assert (profile.typical_rank, profile.typical_rank_status) == \
            (want.value, "certified"), f
        assert classify.typical_rank(f, engine) == \
            classify.TypicalRank(want.value, "certified", "profile"), f
        families += want.source != "single-factor"
    assert families > 100


def _certify_family_typical_ranks(grid) -> int:
    """Check that typical_rank certifies the family's hi on every family
    format of k factors of dimension 1..top, for each (k, top) in grid;
    return how many formats were checked."""
    engine = ProofEngine()
    count = 0
    for k, top in grid:
        for dims in combinations_with_replacement(range(1, top + 1), k):
            family = defective_family(dims)
            if family is None:
                continue
            assert classify.typical_rank(dims, engine) == \
                classify.TypicalRank(family[2], "certified"), dims
            count += 1
    return count


def test_family_typical_ranks_are_certified():
    # about 2 s; the profile's sweep used to stop short of some of these
    assert _certify_family_typical_ranks(((2, 30), (3, 16), (4, 8))) == 626


@pytest.mark.extended
def test_family_typical_ranks_are_certified_up_to_30():
    # about 2 min, most of it k = 3 with a factor of 17 or more
    assert _certify_family_typical_ranks(((2, 30), (3, 30), (4, 8))) == 1160


# --- the oracle -----------------------------------------------------------


def _oracle(dims, s):
    res = terracini_oracle(Statement.of(dims, s, (0,) * len(dims)), RunConfig())
    return res.certified, max(w.rank for w in res.attempts)


def _check_family(asc, name):
    fam_name, lo, hi, span = defective_family(asc)
    assert fam_name == name
    for s in range(lo + 1, hi):
        certified, rank = _oracle(asc, s)
        assert not certified and rank == span(s), (asc, s)
    assert _oracle(asc, lo)[0], (asc, lo)
    return lo, hi, span


@pytest.mark.parametrize("n", range(1, 7))
def test_paired_squares_against_the_oracle(n):
    asc = (1, 1, n, n)
    lo, hi, span = _check_family(asc, "paired-square")
    assert (lo, hi) == (2 * n, 2 * n + 2)
    assert span(2 * n + 1) == ambient_dim(asc) - 2


def test_hull_233_against_the_oracle():
    lo, hi, span = _check_family((2, 3, 3), "hull-233")
    assert (lo, hi, span(5)) == (4, 6, 44)


@pytest.mark.parametrize("asc", [(1, 1, 3), (1, 2, 5), (2, 2, 6)])
def test_unbalanced_against_the_oracle(asc):
    lo, hi, _ = _check_family(asc, "unbalanced")
    assert lo + 1 < hi  # the range is not empty
    assert (lo, hi) == unbalanced_defective_range(asc)


BENCH_SCAN = (Path(__file__).parent.parent / "perfbench" / "reference"
              / "scan_k3_n10_r60.txt")
_LISTED = re.compile(r"  \(([\d,]+)\) s=(\d+): expected \d+, "
                     r"certified (\d+), Defective")


def test_the_oracle_never_refutes_a_listed_span():
    # the benchmark scan's exact Defective rows, which test_golden checks
    # against the scan itself: a certified rank above span(s) would
    # refute the catalog; at seed 0 every rank reads span(s) exactly
    engine = ProofEngine()
    rows = 0
    for line in BENCH_SCAN.read_text().splitlines():
        found = _LISTED.fullmatch(line)
        if found is None:
            continue
        asc, s = tuple(map(int, found[1].split(","))), int(found[2])
        family = defective_family(asc)
        if family is None:  # (2,2,2) s=4, a SMALL_FORMAT_FALSE row
            assert asc in rules.SMALL_FORMAT_DIMS, line
            continue
        _, lo, hi, span = family
        assert lo < s < hi and span(s) == int(found[3]), line
        rank = engine.oracle(Statement.of(asc, s).canonical()).witness.rank
        assert rank <= span(s), line
        rows += 1
    assert rows == 90
