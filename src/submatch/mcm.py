"""Max-cardinality-matching subroutines behind one contract, two backends.

The template algorithm only ever talks to three subroutines: approximate
matching size, large-matching extraction inside a vertex set, and
bounded-length augmentation over eligible edges (plus the potential-aware
forward variant that buckets edges by potential values).  There is no
separate graph type: a graph is a cost oracle plus a limit, its edges the
pairs of cost <= limit, and every subroutine reads the costs itself.  The
exact backend satisfies every contract deterministically: it reads the cost
matrix once into memory (:meth:`Backend.prepare_cost`), builds each
call's graph from it and runs Hopcroft-Karp; its augmentation keeps one
eligibility snapshot (adjacency lists of the eligible non-matched edges)
for a whole Step 1, and one bounded-length path search serves every path
length, free-to-free edges included, pruning dead ends proven independent
of the current path.  The sampled
backend is a best-effort randomized implementation under a hard per-call
query budget and exists to demonstrate empirical sublinearity.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    UNMATCHED, ArrayMatching, CostOracle, MatchingOracle, MaterializedCost,
    MembershipOracle, OverlayMatching, PotentialOracle, v0, v1,
)

__all__ = ["Backend", "backend_query_budget", "delta_out", "delta_out_forward"]


def delta_out(delta_in: float) -> float:
    """Guaranteed matching density returned by large_match."""
    return delta_in ** 5 / 2000.0


def delta_out_forward(delta_in: float, range_bound: int) -> float:
    """Density guarantee of the potential-bucketed forward variant."""
    return delta_in ** 5 / (2000.0 * range_bound ** 10)


def backend_query_budget(epsilon: float, n: int, variant: str = "sampled") -> int:
    """Maximum cost/edge queries one subroutine call may spend.

    ``epsilon`` is the backend's query knob; :meth:`Backend.query_budget`
    passes its own, clamped to 0.2.  The exact backend's cap is the full
    matrix, n^2.  Its calls read a matrix that :meth:`Backend.prepare_cost`
    materialized once per estimate, so in practice they log zero reads.
    The sampled backend is capped at 4 n^(2-epsilon) ln n and the cap is
    asserted per call.
    """
    if n <= 0:
        return 0
    if variant == "exact":
        return n * n
    return math.ceil(4.0 * n ** (2.0 - epsilon) * math.log(max(n, 2)))


# ---------------------------------------------------------------------------
# Hopcroft-Karp over adjacency lists (exact backend workhorse)
# ---------------------------------------------------------------------------

def _hopcroft_karp(adj: list[list[int]], n0: int, n1: int):
    """Iterative Hopcroft-Karp; adj[i] lists side-1 neighbors of i in
    ascending order.  Returns (size, mate0, mate1) with int64 mate arrays."""
    mate0 = [-1] * n0
    mate1 = [-1] * n1
    inf = n0 + n1 + 1
    dist = [0] * n0
    size = 0
    while True:
        queue = []
        for i in range(n0):
            if mate0[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        found = False
        for i in queue:  # the BFS queue grows while it is walked
            d = dist[i] + 1
            for j in adj[i]:
                m = mate1[j]
                if m == -1:
                    found = True
                elif dist[m] == inf:
                    dist[m] = d
                    queue.append(m)
        if not found:
            return (size, np.array(mate0, dtype=np.int64),
                    np.array(mate1, dtype=np.int64))
        # phase DFS, iterative to keep stack depth independent of n
        ptr = [0] * n0
        for start in range(n0):
            if mate0[start] != -1:
                continue
            stack = [start]
            path = []
            while stack:
                i = stack[-1]
                row = adj[i]
                advanced = False
                while ptr[i] < len(row):
                    j = row[ptr[i]]
                    ptr[i] += 1
                    m = mate1[j]
                    if m == -1:
                        # augment along path + (i, j)
                        path.append((i, j))
                        for pi, pj in path:
                            mate0[pi] = pj
                            mate1[pj] = pi
                        size += 1
                        for pi, _ in path:
                            dist[pi] = inf
                        stack = []
                        path = []
                        advanced = True
                        break
                    if dist[m] == dist[i] + 1:
                        path.append((i, j))
                        stack.append(m)
                        advanced = True
                        break
                if not advanced:
                    dist[i] = inf
                    stack.pop()
                    if path:
                        path.pop()


def _mask_to_adj(mask: np.ndarray) -> list[list[int]]:
    """Row-wise ascending column lists of a boolean mask."""
    rows, cols = np.nonzero(mask)
    ends = np.cumsum(np.bincount(rows, minlength=mask.shape[0])).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _global_matching(n: int, rows, cols, sub_mate0) -> ArrayMatching:
    """Lift a matching on (rows x cols) submatrix indices to instance indices."""
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)
    sub = np.asarray(sub_mate0, dtype=np.int64)
    r = np.nonzero(sub != -1)[0]
    i = np.asarray(rows, dtype=np.int64)[r]
    j = np.asarray(cols, dtype=np.int64)[sub[r]]
    mate0[i] = j
    mate1[j] = i
    return ArrayMatching(mate0, mate1)


def _members_on_side(A: MembershipOracle | None, n: int, side_: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    if A is None:
        return idx
    ids = v0(idx) if side_ == 0 else v1(idx)
    return idx[A.contains_many(ids)]


# ---------------------------------------------------------------------------
# Eligibility helpers shared by both backends
# ---------------------------------------------------------------------------

class _Eligibility:
    """Snapshot of the eligibility graph under a fixed potential and cost:
    ``adj[i]`` lists, ascending, the j with (i, j) non-matched and eligible
    (phi0[i] + phi1[j] == c + 1), and ``matched_tight[i]`` says whether i's
    matched edge is tight (phi0[i] + phi1[mate] == c).  :meth:`augment`
    keeps it current as the matching grows."""

    def __init__(self, cost: CostOracle, phi: PotentialOracle, matching: MatchingOracle):
        n = cost.n
        self.n = n
        phi0 = phi.eval_many(v0(np.arange(n, dtype=np.int64)))
        phi1 = phi.eval_many(v1(np.arange(n, dtype=np.int64)))
        # own copies: augment() writes into them, never into the oracle's arrays
        self.mate0 = matching.mate_of_v0().copy()
        self.mate1 = matching.mate_of_v1().copy()
        c = cost.block(np.arange(n), np.arange(n))
        eligible = (phi0[:, None] + phi1[None, :]) == c + 1
        matched_rows = np.nonzero(self.mate0 != UNMATCHED)[0]
        matched_cols = self.mate0[matched_rows]
        eligible[matched_rows, matched_cols] = False
        self.adj = _mask_to_adj(eligible)
        self.matched_tight = np.zeros(n, dtype=bool)
        self.matched_tight[matched_rows] = (
            phi0[matched_rows] + phi1[matched_cols] == c[matched_rows, matched_cols])

    def augment(self, paths: list[list[int]]):
        """Flip node-disjoint eligible augmenting paths, in place.

        The result equals a snapshot rebuilt against the augmented matching.
        Each new matched pair (i_t, j_{t+1}) was eligible at c + 1, so it
        leaves ``adj`` and is not tight at c; the path's old matched edges
        were tight at c, so they never become eligible non-matched edges.
        """
        for path in paths:
            for t in range(0, len(path) - 1, 2):
                i, j = path[t], path[t + 1]
                self.adj[i].remove(j)
                self.matched_tight[i] = False
                self.mate0[i] = j
                self.mate1[j] = i


def _find_exact_length_paths(elig: _Eligibility, half_len: int) -> list[list[int]]:
    """Maximal set of node-disjoint eligible augmenting paths with exactly
    ``half_len + 1`` non-matched edges (path length 2*half_len + 1).

    Greedy over free side-0 starts in ascending id order; within a start,
    exhaustive bounded-depth DFS with lowest-id-first neighbor order.  Once
    all starts are processed no further disjoint path of this exact length
    exists, which is the maximality the template needs.

    A vertex whose subtree at a given depth fails without any candidate
    rejected for lying on the current path is a dead end at that depth for
    the rest of the call: the graph is fixed and the used sets only grow,
    so no later prefix or start can succeed through it, and it is skipped.
    The pruning leaves the returned paths and their order unchanged.
    With ``half_len == 0`` each free start takes its lowest free eligible
    neighbor not yet used: a greedy maximal matching on free x free edges.
    """
    n = elig.n
    used0 = [False] * n
    used1 = [False] * n
    free0 = (elig.mate0 == UNMATCHED).tolist()
    free1 = (elig.mate1 == UNMATCHED).tolist()
    adj = elig.adj
    mate1 = elig.mate1.tolist()
    mtight = elig.matched_tight.tolist()
    dead = [[False] * n for _ in range(half_len + 2)]  # dead[depth][i]
    paths = []
    for start in range(n):
        if not free0[start] or used0[start]:
            continue
        # pointer-stack DFS; the path alternates i, j, i, j, ...  A side-1
        # vertex on the path is matched to the side-0 vertex after it: it is
        # not free, and as a way on it fails its mate's on-path test.
        onpath0 = {start}
        seq = [start]
        nodes = [start]
        ptrs = [0]
        clean = [True]  # no on-path rejection in the frame's subtree yet
        found = None
        while ptrs:
            i = nodes[-1]
            cand = adj[i]
            p = ptrs[-1]
            hops = len(ptrs)  # forward hops consumed by the next edge taken
            last = hops == half_len + 1
            advanced = False
            while p < len(cand):
                j = cand[p]
                p += 1
                if used1[j]:
                    continue
                if last:
                    if free1[j]:
                        found = seq + [j]
                        break
                    continue
                i2 = mate1[j]
                if i2 == UNMATCHED or used0[i2] or not mtight[i2] or dead[hops + 1][i2]:
                    continue
                if i2 in onpath0:
                    clean[-1] = False
                    continue
                ptrs[-1] = p
                onpath0.add(i2)
                seq.extend([j, i2])
                nodes.append(i2)
                ptrs.append(0)
                clean.append(True)
                advanced = True
                break
            if found is not None:
                break
            if not advanced:
                ptrs.pop()
                nodes.pop()
                ok = clean.pop()
                if ok:
                    dead[hops][i] = True
                elif clean:
                    clean[-1] = False
                if len(seq) > 1:
                    onpath0.discard(seq.pop())
                seq.pop()
        if found is not None:
            paths.append(found)
            for t, x in enumerate(found):
                if t % 2 == 0:
                    used0[x] = True
                else:
                    used1[x] = True
    return paths


def _augment_overlay(m_in: MatchingOracle, paths: list[list[int]]) -> OverlayMatching:
    """Flip a set of node-disjoint augmenting paths into an overlay oracle."""
    changed: dict[int, int] = {}
    for path in paths:
        # path = [i0, j1, i1, j2, ...]: new matched pairs are (i_t, j_{t+1})
        for t in range(0, len(path) - 1, 2):
            i, j = path[t], path[t + 1]
            changed[v0(i)] = v1(j)
            changed[v1(j)] = v0(i)
    out = OverlayMatching(m_in, changed)
    out.augmenting_paths = paths
    return out


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

class Backend:
    """Exact or sampled realization of the matching subroutines.

    All randomness of the sampled backend derives from the seed; each call
    spawns a child RNG so runs are reproducible call-for-call.  Sampled
    calls are budget-capped and every call's query usage is logged and
    asserted against :func:`backend_query_budget`.  ``epsilon`` is the
    backend's one query knob: it must be positive, values above 0.2 act as
    0.2, and it sets every call's budget and probe count, so the
    subroutines take no epsilon of their own.  A sampled augmentation
    call reads each matched edge's tightness at most once.  An exact
    augmentation round that succeeds hands its updated eligibility snapshot
    to the next round of the same Step 1 (see :meth:`augment_eligible`).
    """

    def __init__(self, variant: str = "exact", seed: int = 0, epsilon: float = 0.1):
        if variant not in ("exact", "sampled"):
            raise ValueError("variant must be 'exact' or 'sampled'")
        self.variant = variant
        self.seed = int(seed)
        self.epsilon = float(epsilon)
        if not self.epsilon > 0.0:  # NaN fails this test too
            raise ValueError(f"epsilon must be positive, not {epsilon}")
        self._seq = np.random.SeedSequence(self.seed)
        self.call_log: list[dict] = []
        # (phi, returned overlay, cost, _Eligibility) of the last successful
        # exact augmentation round; matched by identity, never by id()
        self._snapshot = None

    @classmethod
    def exact(cls, seed: int = 0) -> "Backend":
        return cls("exact", seed)

    @classmethod
    def sampled(cls, seed: int = 0, epsilon: float = 0.1) -> "Backend":
        return cls("sampled", seed, epsilon)

    # -- plumbing -----------------------------------------------------------
    def prepare_cost(self, cost: CostOracle) -> CostOracle:
        """The cost oracle this backend's subroutines should be given.

        Exact calls read the whole matrix or large blocks of it, so the
        exact backend reads it once here, through every adapter stacked in
        ``cost``, and its calls then read memory; the sampled backend reads
        on demand and gets ``cost`` unchanged.
        """
        return MaterializedCost(cost) if self.variant == "exact" else cost

    def _rng(self) -> np.random.Generator:
        child = self._seq.spawn(1)[0]
        return np.random.default_rng(child)

    def query_budget(self, n: int) -> int:
        return backend_query_budget(min(self.epsilon, 0.2), n, self.variant)

    def _log(self, op: str, counter, before: int, n: int, **extra):
        used = counter.count - before
        budget = self.query_budget(n)
        rec = {"op": op, "queries": used, "budget": budget, "n": n, **extra}
        self.call_log.append(rec)
        if self.variant == "sampled" and used > budget:
            raise AssertionError(
                f"sampled backend exceeded its query budget in {op}: {used} > {budget}")

    # -- approx_match -------------------------------------------------------
    def approx_match(self, cost: CostOracle, limit: float):
        """Estimate the max-matching size of the graph of edges with
        cost <= limit; returns (size, oracle)."""
        n = cost.n
        before = cost.counter.count
        if self.variant == "exact":
            mask = cost.block(np.arange(n), np.arange(n)) <= limit
            size, mate0, mate1 = _hopcroft_karp(_mask_to_adj(mask), n, n)
        else:
            size, mate0, mate1 = self._sampled_greedy(cost, limit, None)
        self._log("approx_match", cost.counter, before, n)
        return size, ArrayMatching(mate0, mate1)

    # -- large_match --------------------------------------------------------
    def large_match(self, cost: CostOracle, limit: float, A: MembershipOracle | None,
                    delta_in: float):
        """Matching oracle inside G[A] of density >= delta_out, or None,
        where G holds the edges of cost <= limit.

        Exact backend: None exactly when mu(G[A]) < delta_in * n.
        """
        n = cost.n
        before = cost.counter.count
        rows = _members_on_side(A, n, 0)
        cols = _members_on_side(A, n, 1)
        if len(rows) == 0 or len(cols) == 0:
            self._log("large_match", cost.counter, before, n)
            return None
        if self.variant == "exact":
            mask = cost.block(rows, cols) <= limit
            mu, sub_mate0, _ = _hopcroft_karp(_mask_to_adj(mask), len(rows), len(cols))
            out = None if mu < delta_in * n else _global_matching(n, rows, cols, sub_mate0)
        else:
            size, mate0, mate1 = self._sampled_greedy(cost, limit, (rows, cols))
            large = size >= delta_out(delta_in) * n and size > 0
            out = ArrayMatching(mate0, mate1) if large else None
        self._log("large_match", cost.counter, before, n)
        return out

    # -- large_matching_forward ---------------------------------------------
    def large_matching_forward(self, phi: PotentialOracle, A: MembershipOracle | None,
                               delta_in: float, matching: MatchingOracle,
                               cost: CostOracle):
        """Large matching in the forward graph restricted to A, or None.

        Iterates potential-value pairs (i, j), restricting to
        phi^-1(i) x phi^-1(j) where the edge test degenerates to
        i + j == c(u, v) + 1, and halts at the first pair that yields a
        matching (each pair is a plain large_match with delta_in / R^2).
        """
        n = cost.n
        R = phi.range_bound
        before = cost.counter.count
        rows_all = _members_on_side(A, n, 0)
        cols_all = _members_on_side(A, n, 1)
        if len(rows_all) == 0 or len(cols_all) == 0:
            self._log("large_matching_forward", cost.counter, before, n)
            return None
        phi_r = phi.eval_many(v0(rows_all))
        phi_c = phi.eval_many(v1(cols_all))
        mate0 = matching.mate_of_v0()
        sub_delta = delta_in / (R * R)
        budget = self.query_budget(n)
        result = None
        for pv in np.unique(phi_r):
            rows = rows_all[phi_r == pv]
            for qv in np.unique(phi_c):
                cols = cols_all[phi_c == qv]
                target = float(pv + qv) - 1.0  # i + j == c + 1
                if target < 0.0:
                    continue  # costs are nonnegative: the bucket is empty
                if self.variant == "exact":
                    mask = cost.block(rows, cols) == target
                    _drop_matched(mask, rows, cols, mate0)
                    mu, sub_mate0, _ = _hopcroft_karp(
                        _mask_to_adj(mask), len(rows), len(cols))
                    if mu >= sub_delta * n:
                        result = _global_matching(n, rows, cols, sub_mate0)
                        break
                else:
                    remaining = budget - (cost.counter.count - before)
                    if remaining <= 0:
                        break
                    size, m0, m1 = self._sampled_greedy_subset(
                        cost, rows, cols, target, mate0, remaining)
                    if size >= delta_out_forward(delta_in, R) * n and size > 0:
                        result = ArrayMatching(m0, m1)
                        break
            if result is not None:
                break
        self._log("large_matching_forward", cost.counter, before, n)
        return result

    # -- augment_eligible ----------------------------------------------------
    def augment_eligible(self, phi: PotentialOracle, m_in: MatchingOracle,
                         k: int, gamma: float, cost: CostOracle):
        """Augment along node-disjoint eligible paths of length <= k, or None.

        Tries each exact odd length 2k'+1 <= k in turn and succeeds on the
        first length class that yields at least gamma * n / k disjoint paths
        (and at least one, so a successful call always makes progress).
        Sampled calls log ``memo_hits``: matched-edge tightness lookups
        served from the call's memo instead of a read.

        Exact calls build one eligibility snapshot per Step 1, from one
        dense read of the cost: a round whose phi and cost are the previous
        successful round's and whose matching is the overlay that round
        returned continues from that round's snapshot, updated in place
        along its paths; any other round builds a new one.  At most one
        snapshot is held at a time.
        """
        n = cost.n
        before = cost.counter.count
        bar = gamma * n / k
        out, memo_hits = None, 0
        held, self._snapshot = self._snapshot, None
        if not np.any(m_in.mate_of_v0() == UNMATCHED):
            pass  # no free side-0 vertices, hence no augmenting paths
        elif self.variant == "exact":
            if (held is not None and held[0] is phi and held[1] is m_in
                    and held[2] is cost):
                elig = held[3]
            else:
                elig = _Eligibility(cost, phi, m_in)
            for half_len in range((k + 1) // 2):
                paths = _find_exact_length_paths(elig, half_len)
                if len(paths) >= bar and len(paths) >= 1:
                    out = _augment_overlay(m_in, paths)
                    elig.augment(paths)
                    self._snapshot = (phi, out, cost, elig)
                    break
        else:
            out, memo_hits = self._sampled_augment(phi, m_in, k, bar, cost, before)
        extra = {"memo_hits": memo_hits} if self.variant == "sampled" else {}
        self._log("augment_eligible", cost.counter, before, n, **extra)
        return out

    # -- sampled internals ---------------------------------------------------
    def _sampled_greedy(self, cost: CostOracle, limit: float, subset):
        """Greedy matching from random edge probes plus one length-3
        augmentation pass, all under the per-call budget."""
        n = cost.n
        rng = self._rng()
        if subset is None:
            rows = np.arange(n, dtype=np.int64)
            cols = np.arange(n, dtype=np.int64)
        else:
            rows, cols = subset
        budget = self.query_budget(n)
        before = cost.counter.count

        def edges(is_, js):
            return cost.pairs(is_, js) <= limit

        mate0, mate1 = _probe_greedy(rng, n, rows, cols, edges, cost.counter, budget, 10)

        def remaining():
            return budget - (cost.counter.count - before)

        # one pass of random length-3 augmentations
        free_r = rows[mate0[rows] == -1]
        trials = 0
        while remaining() > 4 and trials < 2 * len(free_r):
            trials += 1
            if len(free_r) == 0:
                break
            i = int(free_r[rng.integers(0, len(free_r))])
            j = int(cols[rng.integers(0, len(cols))])
            if not bool(edges([i], [j])[0]):
                continue
            if mate1[j] == -1:
                if mate0[i] == -1:
                    mate0[i] = j
                    mate1[j] = i
                    free_r = rows[mate0[rows] == -1]
                continue
            i2 = int(mate1[j])
            j2 = int(cols[rng.integers(0, len(cols))])
            if mate1[j2] == -1 and bool(edges([i2], [j2])[0]):
                mate0[i] = j
                mate1[j] = i
                mate0[i2] = j2
                mate1[j2] = i2
                free_r = rows[mate0[rows] == -1]
        size = int(np.count_nonzero(mate0 >= 0))
        return size, mate0, mate1

    def _sampled_greedy_subset(self, cost, rows, cols, target, base_mate0, sub_budget):
        """Greedy matching on a potential bucket under a budget slice."""
        def edges(is_, js):
            return (cost.pairs(is_, js) == target) & (base_mate0[is_] != js)

        mate0, mate1 = _probe_greedy(self._rng(), cost.n, rows, cols, edges,
                                     cost.counter, sub_budget, 8)
        return int(np.count_nonzero(mate0 >= 0)), mate0, mate1

    def _sampled_augment(self, phi, m_in, k, bar, cost, before):
        """Randomized bounded-depth search for disjoint eligible augmenting
        paths; succeeds on the first exact length class reaching the bar.

        Potentials and mates are snapshots that stay fixed for the whole
        call, and paths take effect only in the returned overlay, so the
        tightness of a matched edge (mate1[j], j) cannot change within the
        call: it is read at most once per call and kept in an int8 memo
        keyed by j (-1 means not read yet).  Returns the overlay (or None)
        and the number of tightness lookups the memo served.
        """
        n = cost.n
        rng = self._rng()
        budget = self.query_budget(n)
        phi0 = phi.eval_many(v0(np.arange(n, dtype=np.int64)))
        phi1 = phi.eval_many(v1(np.arange(n, dtype=np.int64)))
        mate0 = m_in.mate_of_v0()
        mate1 = m_in.mate_of_v1()
        free0_all = np.nonzero(mate0 == UNMATCHED)[0]
        probes = max(16, int(round(n ** (1.0 - min(self.epsilon, 0.2)))))
        memo = np.full(n, -1, dtype=np.int8)
        memo_hits = 0

        def tight_nm(i, js):
            vals = cost.pairs(np.full(len(js), i), js)
            return (phi0[i] + phi1[js] == vals + 1) & (mate0[i] != js)

        def tight_matched(j):
            nonlocal memo_hits
            if memo[j] < 0:
                i2 = mate1[j]
                memo[j] = phi0[i2] + phi1[j] == cost.pairs([i2], [j])[0]
            else:
                memo_hits += 1
            return memo[j] == 1

        for half_len in range((k + 1) // 2):
            used0 = np.zeros(n, dtype=bool)
            used1 = np.zeros(n, dtype=bool)
            paths = []
            order = rng.permutation(free0_all)
            for start in order:
                if budget - (cost.counter.count - before) < probes * (half_len + 1) + 4:
                    break
                if used0[start]:
                    continue
                path = self._sample_one_path(
                    int(start), half_len, used0, used1, mate1, n, rng, probes,
                    tight_nm, tight_matched)
                if path is not None:
                    paths.append(path)
                    for t, x in enumerate(path):
                        (used0 if t % 2 == 0 else used1)[x] = True
            if len(paths) >= bar and len(paths) >= 1:
                return _augment_overlay(m_in, paths), memo_hits
        return None, memo_hits

    def _sample_one_path(self, start, half_len, used0, used1, mate1, n, rng,
                         probes, tight_nm, tight_matched):
        seq = [start]
        onpath0 = {start}
        onpath1 = set()
        i = start
        for hop in range(half_len + 1):
            js = rng.integers(0, n, size=probes)
            ok = tight_nm(i, js)
            cand = None
            last = hop == half_len
            for j in js[ok]:
                j = int(j)
                if used1[j] or j in onpath1:
                    continue
                i2 = int(mate1[j])
                if last:
                    if i2 == UNMATCHED:
                        cand = (j, None)
                        break
                    continue
                if i2 == UNMATCHED or used0[i2] or i2 in onpath0:
                    continue
                if not tight_matched(j):
                    continue  # matched edge not tight, cannot walk back
                cand = (j, i2)
                break
            if cand is None:
                return None
            j, i2 = cand
            seq.append(j)
            onpath1.add(j)
            if i2 is None:
                return seq
            seq.append(i2)
            onpath0.add(i2)
            i = i2
        return None


def _probe_greedy(rng, n, rows, cols, edges, counter, budget, stall_limit):
    """Greedy matching on rows x cols from batches of random probes.

    Each batch draws up to 2 probes per free row, ``edges(is_, js)``
    tests them and every hit whose ends are both still free is matched.
    Probing stops when no row is free, when the reads counted on
    ``counter`` since the call began leave ``len(rows)`` or fewer of
    ``budget``, or after ``stall_limit`` batches in a row that matched
    nothing.  Returns (mate0, mate1) as length-n index arrays.
    """
    before = counter.count
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)
    stall = 0
    while (room := budget - (counter.count - before)) > len(rows) and stall < stall_limit:
        free_r = rows[mate0[rows] == -1]
        if len(free_r) == 0:
            break
        batch = min(len(free_r) * 2, max(room // 2, 1), 400_000)
        is_ = free_r[rng.integers(0, len(free_r), size=batch)]
        js = cols[rng.integers(0, len(cols), size=batch)]
        hits = edges(is_, js)
        progressed = False
        for i, j in zip(is_[hits], js[hits]):
            if mate0[i] == -1 and mate1[j] == -1:
                mate0[i] = j
                mate1[j] = i
                progressed = True
        stall = 0 if progressed else stall + 1
    return mate0, mate1


def _drop_matched(mask: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  mate0: np.ndarray):
    """Clear matched pairs from a non-matched-edge mask (in place)."""
    colpos = np.full(len(mate0), -1, dtype=np.int64)
    colpos[cols] = np.arange(len(cols))
    r = np.nonzero(mate0[rows] != UNMATCHED)[0]
    t = colpos[mate0[rows[r]]]
    keep = t >= 0  # the mate is one of the block's columns
    mask[r[keep], t[keep]] = False
