"""Critical-row scan: defective_scan lists what the per-row scan listed.

The reference below is the scan as it was before it proved each format
from its critical row: it resolves every row up to r_max in ascending s
and stops at the first row that fills.  The critical-row scan skips the
catalog-silent rows below a nondefective critical row, so it must list the
same hits, and a cache either scan writes must serve the other's listing.
"""
from itertools import combinations_with_replacement

import pytest

from segredim import classify
from segredim.cache import VerdictCache
from segredim.classify import (
    NONDEFECTIVE,
    CatalogConsistencyError,
    ScanHit,
    ScanReport,
    defective_scan,
    render_scan,
    resolve_secant,
)
from segredim.formats import Format, ambient_dim, expected_secant_dim
from segredim.induction import ProofEngine


def ref_defective_scan(k_max, n_max, r_max, engine=None, cache=None,
                       k_min=3) -> ScanReport:
    engine = engine or ProofEngine()
    hits = []
    for k in range(k_min, k_max + 1):
        for dims in combinations_with_replacement(range(1, n_max + 1), k):
            f = Format.of(dims)
            P = ambient_dim(f)
            for s in range(1, r_max + 1):
                row = resolve_secant(f, s, engine, cache)
                if row.status != NONDEFECTIVE:
                    hits.append(ScanHit(f, s, row.expected, row.lower,
                                        row.upper, row.status))
                elif row.lower == P:
                    break  # fills from here on
    return ScanReport(k_max, n_max, r_max, tuple(hits))


# (3, 7, 30): the critical row of (7,7,7), s=23, is Unknown, so that format
# falls back to the per-row loop.  (3, 10, 12): r_max caps crit for most
# formats.
GRIDS = [(3, 6, 30), (3, 7, 30), (4, 3, 30), (3, 10, 12)]


def line_count(path) -> int:
    return len(path.read_text().splitlines())


@pytest.fixture(scope="module", params=GRIDS,
                ids=lambda g: "k%d_n%d_r%d" % g)
def per_row(request, tmp_path_factory):
    """A grid, its per-row scan run with a cold cache, and the cache file."""
    path = tmp_path_factory.mktemp("per_row") / "verdicts.ldjson"
    return request.param, ref_defective_scan(*request.param,
                                              cache=VerdictCache(path)), path


def test_same_listing_as_the_per_row_scan(per_row, tmp_path):
    grid, want, ref_file = per_row
    new_file = tmp_path / "verdicts.ldjson"
    reports = [defective_scan(*grid),
               defective_scan(*grid, cache=VerdictCache(new_file))]
    written = new_file.read_text()
    reports.append(defective_scan(*grid, cache=VerdictCache(new_file)))
    for report in reports:
        assert report.hits == want.hits
        assert render_scan(report) == render_scan(want)
    # the cold run records only the rows it proved; the warm one serves them
    assert 0 < line_count(new_file) < line_count(ref_file)
    assert new_file.read_text() == written
    if grid == (3, 7, 30):
        assert ScanHit(Format.of((7, 7, 7)), 23, 506, None, 506,
                       "Unknown") in want.hits


def test_per_row_cache_serves_the_critical_row_scan(per_row):
    # the per-row scan's records hold every row the critical-row scan proves
    grid, want, ref_file = per_row
    before = ref_file.read_text()
    report = defective_scan(*grid, cache=VerdictCache(ref_file))
    assert render_scan(report) == render_scan(want)
    assert ref_file.read_text() == before


@pytest.mark.parametrize("fake", [
    {3: "defective"},               # among catalog rows only
    {4: None, 5: "defective"},      # above a catalog-silent row
], ids=["catalog_rows", "above_silent_row"])
def test_defective_catalog_row_below_a_nondefective_crit(monkeypatch, fake):
    # (3,3,3): P = 64, so crit = 6, which is proved nondefective
    real = classify._catalog_row
    target = Format.of((3, 3, 3))

    def doctored(f, s):
        row = real(f, s)
        if f != target or s not in fake:
            return row
        if fake[s] is None:
            return None
        affine, _ = expected_secant_dim(f, s)
        return classify._exact(s, affine, affine - 1, "fake")

    assert resolve_secant(target, 6).status == NONDEFECTIVE
    monkeypatch.setattr(classify, "_catalog_row", doctored)
    with pytest.raises(CatalogConsistencyError, match=r"\(3,3,3\) s=\d"):
        defective_scan(3, 3, 10)


def test_walk_resolves_nothing_below_the_first_nondefective_row(monkeypatch):
    # (1,2,5) is unbalanced with defective range (3, 6): P = 36, so crit =
    # 4 is defective, the walk meets NonDefective at s = 3, and s = 1, 2
    # follow from it
    target = Format.of((1, 2, 5))
    resolved = []
    real = classify.resolve_secant

    def recording(f, s, *args):
        if f == target:
            resolved.append(s)
        return real(f, s, *args)

    monkeypatch.setattr(classify, "resolve_secant", recording)
    report = defective_scan(3, 5, 30)
    assert resolved == [4, 3, 5, 6]
    assert [h.s for h in report.hits if h.format == target] == [4, 5]

    monkeypatch.setattr(classify, "resolve_secant", real)
    catalog = classify._catalog_row

    def doctored(f, s):
        if f == target and s == 2:
            affine, _ = expected_secant_dim(f, s)
            return classify._exact(s, affine, affine - 1, "fake")
        return catalog(f, s)

    monkeypatch.setattr(classify, "_catalog_row", doctored)
    with pytest.raises(CatalogConsistencyError,
                       match=r"\(1,2,5\) s=2 .* nondefective row s=3"):
        defective_scan(3, 5, 30)
