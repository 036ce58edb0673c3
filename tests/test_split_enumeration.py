"""Split enumeration: the interval walk yields what the full walk yielded.

The references below are the enumeration as it was before each level
walked only its feasible interval; they walk every value and cut a branch
only once its partial sum has left the window.  The search's choices, and
so its node counts, memo hits and certificates, depend on their order, so
the tests compare whole sequences, not sets.
"""
import random
from typing import Iterator

from hypothesis import given, settings, strategies as st

from segredim.formats import (Statement, ambient_dim, parameter_count,
                              parse_statement)
from segredim.induction import ProofEngine, search
from segredim.induction import rules


def ref_outward(lo: int, hi: int, center: int) -> Iterator[int]:
    # center first, then alternating +1/-1, clipped to [lo, hi]
    if lo > hi:
        return
    c = min(max(center, lo), hi)
    yield c
    step = 1
    while True:
        emitted = False
        if c + step <= hi:
            yield c + step
            emitted = True
        if c - step >= lo:
            yield c - step
            emitted = True
        if not emitted:
            return
        step += 1


def ref_split_choices(st: Statement) -> Iterator[rules.SplitChoice]:
    dims, a, s = st.format.dims, st.a, st.s
    k = st.format.k
    L = parameter_count(st)
    P = ambient_dim(st.format)
    N = sum(dims)
    sub_mode = L <= P
    seen = set()
    for i in range(k):
        n_i = dims[i]
        if n_i < 1:
            continue
        sig = (n_i, a[i])
        if sig in seen:
            continue        # identical slots give identical splits
        seen.add(sig)
        Q = P // (n_i + 1)
        others = [j for j in range(k) if j != i and a[j] > 0]
        weights = [dims[j] + 1 for j in others]
        counts = [a[j] for j in others]
        cap = sum(c * w for c, w in zip(counts, weights))
        # near-even halves first, mirroring the worked reductions
        for n1 in range(n_i // 2, n_i):
            n2 = n_i - 1 - n1
            P1, P2 = (n1 + 1) * Q, (n2 + 1) * Q
            if sub_mode:
                lo, hi = max(0, L - P2), P1
            else:
                lo, hi = P1, L - P2
            if lo > hi:
                continue
            ratio = (n1 + 1) / (n_i + 1)
            w_t = 1 + (N - n_i) + n1    # tangent row weight in child 1
            for s1 in ref_outward(0, s, round(s * ratio)):
                fixed = s1 * w_t + (a[i] + s - s1) * (n1 + 1)
                c_lo, c_hi = lo - fixed, hi - fixed
                if c_hi < 0 or c_lo > cap:
                    continue
                for xs in ref_fiber_splits(counts, weights, c_lo, c_hi, ratio):
                    a1 = [0] * k
                    a2 = [0] * k
                    for j, x in zip(others, xs):
                        a1[j] = x
                        a2[j] = a[j] - x
                    yield rules.SplitChoice(i, (n1, n2), (s1, s - s1),
                                            (tuple(a1), tuple(a2)))


def ref_fiber_splits(counts, weights, c_lo, c_hi, ratio) -> Iterator[tuple]:
    """Assignments x_j in [0, counts[j]] with c_lo <= sum x_j w_j <= c_hi,
    enumerated outward from the proportional target per slot."""
    suffix = [0] * (len(counts) + 1)
    for t in range(len(counts) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + counts[t] * weights[t]

    def rec(t: int, acc: int) -> Iterator[tuple]:
        if acc > c_hi:
            return
        if t == len(counts):
            if acc >= c_lo:
                yield ()
            return
        if acc + suffix[t] < c_lo:
            return
        for x in ref_outward(0, counts[t], round(counts[t] * ratio)):
            for rest in rec(t + 1, acc + x * weights[t]):
                yield (x,) + rest

    yield from rec(0, 0)


@st.composite
def fiber_problems(draw):
    n = draw(st.integers(0, 4))
    counts = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    # a common factor above 1 exercises the gcd tightening of the window;
    # a zero weight is the tangent share of a single positive factor
    g = draw(st.integers(1, 4))
    weights = [g * w for w in draw(st.lists(st.integers(0, 6),
                                            min_size=n, max_size=n))]
    cap = sum(c * w for c, w in zip(counts, weights))
    # windows reaching below 0 and past cap, and empty ones (c_lo > c_hi)
    c_lo = draw(st.integers(-8, cap + 8))
    c_hi = draw(st.integers(c_lo - 6, cap + 12))
    num = draw(st.integers(1, 11))
    ratio = num / draw(st.integers(num, 12))
    return counts, weights, c_lo, c_hi, ratio


@settings(max_examples=400, deadline=None)
@given(fiber_problems())
def test_fiber_splits_match_the_full_walk(problem):
    assert (list(ProofEngine._fiber_splits(*problem))
            == list(ref_fiber_splits(*problem)))


def test_fiber_splits_edge_windows():
    fs = ProofEngine._fiber_splits
    # no slots: only the empty assignment, and only if 0 is in the window
    assert list(fs([], [], 0, 0, 0.5)) == [()]
    assert list(fs([], [], -3, 4, 0.5)) == [()]
    assert list(fs([], [], 1, 4, 0.5)) == []
    # weights 4 and 6 only reach even sums: the window [5, 5] is empty
    assert list(fs([2, 2], [4, 6], 5, 5, 0.5)) == []
    assert list(fs([2, 2], [4, 6], 5, 6, 0.5)) == [(0, 1)]
    # a zero count fixes its slot at 0; over-capacity windows are empty
    assert list(fs([0, 3], [5, 2], 2, 4, 0.5)) == [(0, 2), (0, 1)]
    assert list(fs([1, 1], [3, 3], 7, 9, 0.5)) == []
    assert list(fs([1, 1], [3, 3], -5, -1, 0.5)) == []
    # a zero weight walks its whole count while the window holds 0
    assert list(fs([3], [0], 0, 5, 0.5)) == [(2,), (3,), (1,), (0,)]
    assert list(fs([3], [0], 1, 5, 0.5)) == []
    assert list(fs([2, 1], [0, 4], 3, 4, 0.5)) == [(1, 1), (2, 1), (0, 1)]


def test_split_choices_match_the_full_walk():
    rng = random.Random(20261018)
    engine = ProofEngine()
    nonempty = 0
    for _ in range(500):
        k = rng.randint(3, 4)
        dims = tuple(rng.randint(0, 10) for _ in range(k))
        # half the slots carry fiber points, as in the search's subgoals;
        # with every slot carrying some the sweep takes twice as long
        a = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(k))
        statement = Statement.of(dims, rng.randint(0, 60), a).canonical()
        got = list(engine._split_choices(statement))
        assert got == list(ref_split_choices(statement)), str(statement)
        nonempty += bool(got)
    assert nonempty > 100
    # one positive factor: the tangent share has weight 0 and walks all
    # of 0..s whenever the window can be reached
    for text in ("T(7,0,0;5;0,2,3)", "T(7,0,0;5;0,0,0)", "T(6,0,0,0;9;1,0,2,2)",
                 "T(10,0,0;3;4,1,1)", "T(1,0,0;2;0,1,0)"):
        statement = parse_statement(text).canonical()
        got = list(engine._split_choices(statement))
        assert got == list(ref_split_choices(statement)), text
        assert got, text


def test_flagship_walks_only_feasible_values(monkeypatch):
    # a work guard that needs no clock: the full walk drew 2 107 565
    # values from _outward to prove this statement, the interval walk a
    # few hundred
    drawn = 0
    real = search._outward

    def counting(lo, hi, center):
        nonlocal drawn
        for x in real(lo, hi, center):
            drawn += 1
            yield x

    monkeypatch.setattr(search, "_outward", counting)
    v = ProofEngine().prove("T(15,15,15,15;1074)")
    assert v.status is True
    assert 0 < drawn <= 5000
