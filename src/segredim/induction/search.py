"""Memoized proof search over the reduction rules.

Priority order per statement: the closed-form leaf (rules.closed_leaf:
the exact two_factor dimension for statements with at most two positive
factors, the falsity catalog, trivial truths), an oracle leaf for the
small three-factor base formats, a drop (rules.drop_step), splits, and
finally a direct oracle leaf; both oracle leaves go through
ProofEngine.oracle, which runs the first attempt of the oracle's plan for
a subgoal and the whole plan for the root.  A search whose subgoal oracle
calls cost more cells than the root's own call gives up its tree and takes
the root's oracle leaf instead.  False only ever comes from the two_factor
leaf's closed form or the falsity catalog (directly, or passed through an
equivalence); an inconclusive oracle is never treated as False.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..config import RunConfig
from ..ffrank import (
    PLAN,
    OracleBudgetError,
    OracleResult,
    oracle_cells,
    terracini_oracle,
)
from ..formats import (
    Statement,
    ambient_dim,
    parameter_count,
    parse_statement,
)
from . import certificate as cert
from . import rules
from .certificate import CertNode, Certificate


@dataclass(frozen=True)
class Verdict:
    """Outcome of a proof attempt.

    status True/False comes with a certificate; None means undetermined,
    with the root statement's own oracle evidence (if its oracle ran and
    fell short) and search statistics.

    reason is set only when status is None, to the first that holds of:
    node_budget (the search ran out of nodes), cell_budget (its subgoals'
    oracle cells passed the root's own and the root's leaf did not
    certify), oracle_refused (the root's oracle was consulted and refused
    its matrix by size), oracle_deficit (the root's oracle ran and fell
    short of the target) and no_rule (the search ended without consulting
    the root's oracle, as below a zero-factor drop whose child is
    undetermined).
    """

    status: Optional[bool]
    certificate: Optional[Certificate]
    evidence: Optional[OracleResult]
    stats: dict = field(default_factory=dict)
    reason: Optional[str] = None


# every Verdict.reason, in the order prove() tests them
REASONS = ("node_budget", "cell_budget", "oracle_refused", "oracle_deficit",
           "no_rule")


class _Exhausted(Exception):
    pass


class _OverBudget(Exception):
    pass


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _outward(lo: int, hi: int, center: int) -> Iterator[int]:
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


class ProofEngine:
    """Proof search with a memo table shared across calls.

    `config`, one RunConfig, holds every setting of a run: the field
    settings and the node budget of each prove() call.  The classify entry
    points read theirs from the engine they are given, and a cache keys its
    records by config.digest().  Verdicts are memoized by statement, which
    has no factor order, so permuted inputs reuse earlier work.  Failed
    (undetermined) subgoals are only remembered for the duration of one
    prove() call, letting later calls retry with a fresh budget.  Oracle
    outcomes are kept for the engine's lifetime, and oracle() is the
    package's one caller of terracini_oracle.  A subgoal runs only the
    first attempt of the oracle's plan; if the statement later becomes a
    root, the whole plan runs again from its first attempt (see oracle()).

    Each prove() call also has a cell budget when its root is admissible
    to the oracle: what the root's own call costs when inconclusive,
    rows x cols x len(PLAN).  Every subgoal oracle outcome the search
    consults spends rows x cols x attempts, once per statement,
    remembered outcomes included and refusals free: the whole plan's
    attempts when it did not certify, whatever ran, and the attempts run
    when it did.  Once the spend passes the budget the search unwinds and
    the root's own oracle leaf decides.
    """

    def __init__(self, cfg: Optional[RunConfig] = None):
        self.config = cfg or RunConfig()
        self._memo: dict = {}
        self._oracles: dict[str, OracleResult | OracleBudgetError] = {}
        self._dead: set = set()
        self._nodes_used = 0
        self._memo_hits = 0
        self._root_oracle: OracleResult | OracleBudgetError | None = None
        self._root_key: Optional[str] = None
        self._cell_budget: Optional[int] = None
        self._cells_spent = 0
        self._charged: set = set()

    # -- public entry points -----------------------------------------------

    def prove(self, statement) -> Verdict:
        """Search at most config.budget_nodes nodes."""
        st = (parse_statement(statement) if isinstance(statement, str)
              else statement)
        self._dead = set()
        self._nodes_used = 0
        self._memo_hits = 0
        self._root_oracle = None
        self._root_key = st.key()
        self._cell_budget = self.cell_budget(st)
        self._cells_spent = 0
        self._charged = set()
        started = time.perf_counter()
        stop = None
        try:
            res = self._search(st)
        except _Exhausted:
            res, stop = None, "node_budget"
        except _OverBudget:
            stop = "cell_budget"
            res = self._try_oracle(st)
            if res is not None:
                self._memo[self._root_key] = res
        finally:
            self._root_key = None  # outside a search every call gets the whole plan
        stats = {
            "nodes": self._nodes_used,
            "memo_hits": self._memo_hits,
            "exhausted": stop == "node_budget",
            "elapsed_s": round(time.perf_counter() - started, 4),
        }
        root = self._root_oracle
        evidence = None
        if isinstance(root, OracleResult) and not root.certified:
            evidence = root
        if res is None:
            if stop is not None:
                reason = stop
            elif isinstance(root, OracleBudgetError):
                reason = "oracle_refused"
            elif root is not None:
                reason = "oracle_deficit"
            else:
                reason = "no_rule"
            return Verdict(None, None, evidence, stats, reason)
        verdict, node = res
        return Verdict(verdict, Certificate(st, verdict, node), evidence, stats)

    def oracle(self, st: Statement) -> OracleResult | OracleBudgetError:
        """The one way to terracini_oracle: its OracleResult for `st`, or
        the OracleBudgetError that refused it, kept by statement.

        A subgoal of the running search (any statement but its root) runs
        the first attempt of the oracle's plan only: reading deficient
        there just sends the search on to its next split.  A root, and any
        call outside prove(), gets the whole plan; a kept result with fewer
        attempts is not continued but replaced by a run of the whole plan
        from attempt 0.  Each attempt's outcome depends only on the
        statement and the config, so a root's result is a fresh engine's,
        and only such a rerun repeats an attempt."""
        key = st.key()
        kept = self._oracles.get(key)
        subgoal = self._root_key not in (None, key)
        want = 1 if subgoal else len(PLAN)
        if kept is None or (isinstance(kept, OracleResult) and not kept.certified
                            and len(kept.attempts) < want):
            try:
                kept = terracini_oracle(st, self.config, stop=want)
            except OracleBudgetError as exc:  # kept without its frames
                kept = exc.with_traceback(None)
            self._oracles[key] = kept
        return kept

    def cell_budget(self, st: Statement) -> Optional[int]:
        """The subgoal oracle cells a search rooted at `st` may spend: what
        the root's own oracle call costs when inconclusive.  None when the
        oracle refuses the root, whose search then has no cell budget."""
        try:
            return oracle_cells(st, self.config.force) * len(PLAN)
        except OracleBudgetError:
            return None

    # -- search core -------------------------------------------------------

    def _search(self, st: Statement):
        key = st.key()
        hit = self._memo.get(key)
        if hit is not None:
            self._memo_hits += 1
            return hit
        if key in self._dead:
            return None
        self._nodes_used += 1
        if self._nodes_used > self.config.budget_nodes:
            raise _Exhausted
        res = self._resolve(st)
        if res is not None:
            self._memo[key] = res
        else:
            self._dead.add(key)
        return res

    def _resolve(self, st: Statement):
        leaf = rules.closed_leaf(st)
        if leaf is not None:
            return leaf

        if st.format.k == 3 and max(st.format.dims) <= 2:
            # tiny ambient: an oracle run settles the small base formats
            res = self._try_oracle(st)
            if res is not None:
                return res

        slot = rules.drop_slot(st)
        if slot is not None:
            res = self._search(rules.drop_child(st, slot))
            if res is not None:
                res = rules.drop_step(st, slot, res)
            if res is not None or st.a[slot] == 0:
                return res
            # conditions that an inconclusive child, or a false one below a
            # superabundant statement, cannot drop: other rules may apply

        node = self._try_splits(st)
        if node is not None:
            return True, node

        return self._try_oracle(st)

    # -- leaves ------------------------------------------------------------

    def _try_oracle(self, st: Statement):
        result = self.oracle(st)
        key = st.key()
        if key == self._root_key:
            self._root_oracle = result
        if isinstance(result, OracleBudgetError):
            return None
        if key != self._root_key:
            self._charge(key, result)
        if result.certified:
            return True, CertNode(cert.ORACLE, st, witness=result.witness)
        return None

    # -- cell budget -------------------------------------------------------

    def _charge(self, key: str, result: OracleResult) -> None:
        if self._cell_budget is None or key in self._charged:
            return
        self._charged.add(key)
        w = result.witness
        # charged by the plan, what a root runs, unless it certified early:
        # so where the budget stops does not depend on who ran the rest
        runs = len(result.attempts) if result.certified else len(PLAN)
        self._cells_spent += w.rows * w.cols * runs
        if self._cells_spent > self._cell_budget:
            raise _OverBudget

    # -- splits ------------------------------------------------------------

    def _try_splits(self, st: Statement) -> Optional[CertNode]:
        tried = set()
        for choice in self._split_choices(st):
            kind, c1, c2 = rules.split_mode(st, choice)
            pair = (c1.key(), c2.key())
            if pair in tried:
                continue
            tried.add(pair)
            r1 = self._search(c1)
            if r1 is None or r1[0] is False:
                continue
            r2 = self._search(c2)
            if r2 is None or r2[0] is False:
                continue
            return CertNode(kind, st, side_conditions=choice.describe(),
                            children=(r1[1], r2[1]))
        return None

    def _split_choices(self, st: Statement) -> Iterator[rules.SplitChoice]:
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
            # child 1's rows: (a[i] + s)(n1 + 1) whatever the split, then
            # N - n_i more per tangent point it takes and dims[j] + 1 per
            # fiber point at slot j; the tangent share walks first
            counts = [s] + [a[j] for j in others]
            weights = [N - n_i] + [dims[j] + 1 for j in others]
            # near-even halves first, mirroring the worked reductions
            for n1 in range(n_i // 2, n_i):
                n2 = n_i - 1 - n1
                P1, P2 = (n1 + 1) * Q, (n2 + 1) * Q
                if sub_mode:
                    lo, hi = max(0, L - P2), P1
                else:
                    lo, hi = P1, L - P2
                base = (a[i] + s) * (n1 + 1)
                ratio = (n1 + 1) / (n_i + 1)
                for s1, *xs in self._fiber_splits(counts, weights, lo - base,
                                                  hi - base, ratio):
                    a1 = [0] * k
                    a2 = [0] * k
                    for j, x in zip(others, xs):
                        a1[j] = x
                        a2[j] = a[j] - x
                    yield rules.SplitChoice(i, (n1, n2), (s1, s - s1),
                                            (tuple(a1), tuple(a2)))

    @staticmethod
    def _fiber_splits(counts, weights, c_lo, c_hi, ratio) -> Iterator[tuple]:
        """Assignments x_j in [0, counts[j]] with c_lo <= sum x_j w_j <= c_hi.

        Slot t walks _outward(0, counts[t], round(counts[t] * ratio)), the
        proportional target first, restricted to the interval of x_t that
        keeps the window reachable: the sum so far may not pass c_hi, and
        with every later slot at full count it must still reach c_lo.  Each
        value left out would have yielded nothing, so the assignments and
        their order are those of the unrestricted walk.  What the slots
        from t on add is a multiple of the gcd of their weights, so each
        level first narrows the window left to such multiples and returns
        when that window is empty or out of reach.  A zero weight leaves
        the window as it is and walks its whole count.
        """
        # the most slots t.. can add, and the gcd of their weights
        suffix = [0] * (len(counts) + 1)
        gcds = [0] * (len(counts) + 1)
        for t in range(len(counts) - 1, -1, -1):
            suffix[t] = suffix[t + 1] + counts[t] * weights[t]
            gcds[t] = math.gcd(gcds[t + 1], weights[t])

        def rec(t: int, c_lo: int, c_hi: int) -> Iterator[tuple]:
            g = gcds[t] or 1        # no weights, or only zero ones
            c_lo, c_hi = _ceil_div(c_lo, g) * g, c_hi // g * g
            if c_lo > c_hi or c_hi < 0 or c_lo > suffix[t]:
                return
            if t == len(counts):
                yield ()
                return
            w = weights[t]
            lo, hi = 0, counts[t]
            if w:
                lo = max(0, _ceil_div(c_lo - suffix[t + 1], w))
                hi = min(hi, c_hi // w)
            for x in _outward(lo, hi, round(counts[t] * ratio)):
                for rest in rec(t + 1, c_lo - x * w, c_hi - x * w):
                    yield (x,) + rest

        yield from rec(0, c_lo, c_hi)


def prove(statement, run_config: Optional[RunConfig] = None) -> Verdict:
    """One-shot proof attempt; see ProofEngine for the reusable version."""
    return ProofEngine(run_config).prove(statement)
