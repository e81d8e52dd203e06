"""Max-cardinality-matching subroutines behind one contract, two backends.

The template algorithm only ever talks to three subroutines: approximate
matching size, large-matching extraction inside a vertex set, and
bounded-length augmentation over eligible edges (plus the potential-aware
forward variant that buckets edges by potential values).  There is no
separate graph type: a graph is a cost oracle plus a limit, its edges the
pairs of cost <= limit, and every subroutine reads the costs itself.

Each backend has one matching kernel, :meth:`Backend._match`, a matching
on rows x cols under an edge test.  ``large_match``, each forward bucket
and the sampled ``approx_match`` call it.  On the exact backend it is one
block read and one Hopcroft-Karp, a maximum matching.  On the sampled
backend it is one probe greedy: batches of random probes, every hit
between two free ends matched, and no augmenting path after, so a sampled
size can fall well short of the maximum.

The exact backend satisfies every contract deterministically.  It reads
the cost matrix once into memory (:meth:`Backend.prepare_cost`), the
template's levels once per template run into an int16 matrix
(:meth:`Backend.prepare_levels`), and builds each call's graph from
them.  Its ``approx_match`` runs its own Hopcroft-Karp, which stops once
the size reaches the caller's ``need``, and keeps its answers on one cost
in a table by edge count: a repeated graph is answered from it, and any
other starts from the largest smaller graph's matching.  Its augmentation
keeps one eligibility snapshot for a whole Step 1, with the eligible
non-matched edges in two hop-class lists (to free columns, to columns
matched along a tight edge).  One bounded-length path search serves every
path length, free-to-free edges included, after a numpy reachability pass
over those lists has marked where a path of that length can end.

The sampled backend is a best-effort randomized implementation under a
hard per-call query budget and exists to demonstrate empirical
sublinearity.  Its path search walks the free starts in groups of
``_PATH_GROUP`` in lockstep, one draw and one read per hop for the whole
group.  It and the greedy draw every probe but read only those they could
accept.  A path probe is skipped unread when its side-1 end is used (a
row's own mate is), is free on an inner hop or matched on the last one, or
has a potential sum below 2, too low for a level >= 1 to be eligible; a
greedy probe is skipped when its column was matched before its batch.
Skipping changes the reads, not the draws or picks, unless the budget
binds.  The forward variant skips whole potential buckets below that sum
before any draw, so the sampled backend spawns no child RNG for them,
wherever every entry is known to be a level: on the exact backend and on
a ``LevelCost``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    UNMATCHED, ArrayMatching, CostOracle, LevelCost, LevelMatrix, MatchingOracle,
    MaterializedCost, MembershipOracle, OverlayMatching, PotentialOracle, v0, v1,
)

__all__ = ["Backend", "backend_query_budget", "delta_out", "delta_out_forward"]

#: free starts the sampled path search walks in lockstep (see augment_eligible)
_PATH_GROUP = 16


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

def _hopcroft_karp(adj: list[list[int]], n0: int, n1: int,
                   mate0: list[int] | None = None, mate1: list[int] | None = None,
                   need: float = math.inf):
    """Iterative Hopcroft-Karp; adj[i] lists side-1 neighbors of i in
    ascending order.  Returns (size, mate0, mate1) with int64 mate arrays.

    Given ``mate0``/``mate1`` (lists, taken over and written in place), the
    search starts from that matching, whose pairs must be edges of ``adj``;
    otherwise from the empty one.  It stops between phases once the
    matching has ``need`` pairs, and otherwise at a maximum matching, so a
    size below ``need`` is the maximum.
    """
    if mate0 is None:
        mate0 = [-1] * n0
        mate1 = [-1] * n1
    inf = n0 + n1 + 1
    dist = [0] * n0
    size = n0 - mate0.count(-1)
    while size < need:
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
            break
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
    return size, np.array(mate0, dtype=np.int64), np.array(mate1, dtype=np.int64)


def _mask_to_adj(mask: np.ndarray) -> list[list[int]]:
    """Row-wise ascending column lists of a boolean mask.

    One ``np.flatnonzero`` scan finds the true entries in row-major order,
    so each row's columns come out ascending, the order Hopcroft-Karp
    relies on.  A mask with no columns has no true entries, so the
    division below never divides anything by 0.
    The flat indices become the column ids in place, so no third array as
    long as the true entries is made (one raised the peak resident memory
    of exact estimates).
    """
    n0, n1 = mask.shape
    idx = np.flatnonzero(mask)
    rows = idx // n1
    ends = np.cumsum(np.bincount(rows, minlength=n0)).tolist()
    rows *= n1
    idx -= rows
    cols = idx.tolist()
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

class _HopEdges:
    """One hop class of a snapshot's eligible non-matched edges, as CSR
    arrays: ``rows`` in order and each row's ``cols`` ascending, row i's
    entries at ``ptr[i]:ptr[i + 1]``.  A row's Python list, the one the
    path search walks, is made when the search first enters the row."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        self.rows = rows
        self.cols = cols
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self._lists = [None] * n

    def row(self, i: int) -> list[int]:
        got = self._lists[i]
        if got is None:
            got = self._lists[i] = self.cols[self.ptr[i]:self.ptr[i + 1]].tolist()
        return got


class _Eligibility:
    """Snapshot of the eligibility graph under a fixed potential and cost.

    ``matched_tight[i]`` says whether i's matched edge is tight (phi0[i] +
    phi1[mate] == c).  The eligible non-matched edges (phi0[i] + phi1[j]
    == c + 1) are split by what a path search can do with the column:
    ``fin`` (:class:`_HopEdges`) holds those to free columns, the only
    ones a path's last hop accepts, and ``inner`` those to columns matched
    along a tight edge, the only ones an inner hop accepts; an edge to any
    other column is on no path.  ``cost`` holds integer levels >= 1 or
    +inf, so when max phi0 + max phi1 < 2 no edge is eligible and both
    lists are built empty without the n^2 test.  :meth:`augment` keeps
    the mates and ``matched_tight`` current as the matching grows.

    The tests run in the costs' dtype: int16 over the exact backend's
    :class:`LevelMatrix`, whose sentinel for +inf no sum of potentials
    in the template's range reaches (``template.MAX_T``), and float64
    over any other cost.  Both are exact on small integers.
    """

    def __init__(self, cost: CostOracle, phi: PotentialOracle, matching: MatchingOracle):
        n = cost.n
        self.n = n
        c = cost.block(np.arange(n), np.arange(n))
        phi0 = phi.eval_many(v0(np.arange(n, dtype=np.int64))).astype(c.dtype)
        phi1 = phi.eval_many(v1(np.arange(n, dtype=np.int64))).astype(c.dtype)
        # own copies: augment() writes into them, never into the oracle's arrays
        self.mate0 = matching.mate_of_v0().copy()
        self.mate1 = matching.mate_of_v1().copy()
        matched_rows = np.nonzero(self.mate0 != UNMATCHED)[0]
        matched_cols = self.mate0[matched_rows]
        self.matched_tight = np.zeros(n, dtype=bool)
        self.matched_tight[matched_rows] = (
            phi0[matched_rows] + phi1[matched_cols] == c[matched_rows, matched_cols])
        if n and phi0.max() + phi1.max() >= 2:
            # phi0 + phi1 == c + 1 runs as (phi0 - 1) + phi1 == c in the
            # costs' dtype: one n^2 temporary and no cast of the costs.
            # Row-major order lists each row's columns ascending.
            eligible = (phi0 - 1)[:, None] + phi1[None, :] == c
            eligible[matched_rows, matched_cols] = False
            cols = np.flatnonzero(eligible)
            rows = cols // n
            cols %= n  # in place: no third array as long as the edges
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
        keep = self.mate1[cols] == UNMATCHED
        self.fin = _HopEdges(rows[keep], cols[keep], n)
        keep = _tight_cols(self)[cols]
        self.inner = _HopEdges(rows[keep], cols[keep], n)

    def augment(self, paths: list[list[int]]):
        """Flip node-disjoint eligible augmenting paths, in place.

        Each new matched pair (i_t, j_{t+1}) was eligible at c + 1, so it is
        not tight at c: every column of a path ends up matched along a
        non-tight edge, which neither hop class accepts, so the lists stay
        as built and the path search's column tests skip those columns.  The
        path's old matched edges were tight at c, so none becomes eligible.
        """
        for path in paths:
            for t in range(0, len(path) - 1, 2):
                i, j = path[t], path[t + 1]
                self.matched_tight[i] = False
                self.mate0[i] = j
                self.mate1[j] = i


def _tight_cols(elig: _Eligibility) -> np.ndarray:
    """Which columns are matched along a tight edge, now."""
    out = np.zeros(elig.n, dtype=bool)
    cols = np.nonzero(elig.mate1 != UNMATCHED)[0]
    out[cols] = elig.matched_tight[elig.mate1[cols]]
    return out


def _find_exact_length_paths(elig: _Eligibility, half_len: int) -> list[list[int]]:
    """Maximal set of node-disjoint eligible augmenting paths with exactly
    ``half_len + 1`` non-matched edges (path length 2*half_len + 1).

    Greedy over free side-0 starts in ascending id order; within a start,
    exhaustive bounded-depth DFS with lowest-id-first neighbor order.  Once
    all starts are processed no further disjoint path of this exact length
    exists, which is the maximality the template needs.

    A reachability pass bounds the DFS, as the BFS layering bounds each
    Hopcroft-Karp phase.  Working back from the last hop, ``takes[d][j]``
    says the hop from depth d may take column j: at depth ``half_len`` a
    free column, before it a column matched along a tight edge to a row
    that has such a column at depth d + 1.  The search starts only from
    free rows with a column at depth 0 and takes only such columns, so it
    skips just the subtrees that hold no path even with nothing used yet.
    The returned paths and their order are those of the unbounded search.
    With ``half_len == 0`` each free start takes its lowest free eligible
    neighbor not yet used: a greedy maximal matching on free x free edges.
    """
    n = elig.n
    mate1 = elig.mate1
    tight = _tight_cols(elig)
    takes = [None] * (half_len + 1)
    takes[half_len] = mate1 == UNMATCHED
    for d in range(half_len, -1, -1):
        edges = elig.fin if d == half_len else elig.inner
        reach = np.zeros(n, dtype=bool)  # rows with a column the hop from d takes
        reach[edges.rows[takes[d][edges.cols]]] = True
        if d:
            # a free column's mate1 of -1 picks reach[-1]; tight masks it off
            takes[d - 1] = tight & reach[mate1]
    starts = np.nonzero(reach & (elig.mate0 == UNMATCHED))[0].tolist()
    if not starts:
        return []
    takes = [t.tolist() for t in takes]
    mate1 = mate1.tolist()
    used1 = [False] * n
    paths = []
    for start in starts:
        # pointer-stack DFS; the path alternates i, j, i, j, ...  A path's
        # side-0 vertices past its start are the mates of its side-1 ones,
        # so a used or on-path j is caught by used1 or by its mate's
        # on-path test, and the rows need no used marks of their own.
        onpath0 = {start}
        seq = [start]
        ptrs = [0]
        found = None
        while ptrs:
            d = len(ptrs) - 1
            last = d == half_len
            i = seq[-1]
            cand = (elig.fin if last else elig.inner).row(i)
            take = takes[d]
            p = ptrs[-1]
            advanced = False
            while p < len(cand):
                j = cand[p]
                p += 1
                if used1[j] or not take[j]:
                    continue
                if last:
                    found = seq + [j]
                    break
                i2 = mate1[j]
                if i2 in onpath0:
                    continue
                ptrs[-1] = p
                onpath0.add(i2)
                seq += [j, i2]
                ptrs.append(0)
                advanced = True
                break
            if found is not None:
                paths.append(found)
                for j in found[1::2]:
                    used1[j] = True
                break
            if not advanced:
                ptrs.pop()
                onpath0.discard(i)
                del seq[-2:]
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
    subroutines take no epsilon of their own.  ``large_match``, each
    forward bucket and the sampled ``approx_match`` run the one matching
    kernel (:meth:`_match`): exact, one Hopcroft-Karp; sampled, one probe
    greedy (:meth:`_probe_greedy`) and nothing after it.  A sampled
    augmentation call walks free starts in groups and reads each matched
    edge's tightness at most once.  Sampled calls read only the probes
    that could change their answer and log the rest
    as ``skipped``, probes drawn but not passed to the cost oracle.  Where
    every probe is a counted read and the budget does not bind,
    ``queries + skipped`` is what reading every probe would cost; a padded
    instance counts no dummy pair, so there the sum is larger.  An exact
    augmentation round that succeeds and leaves a free side-0 vertex hands
    its updated eligibility snapshot, hop-class lists and all, to the next
    round of the same Step 1 (see :meth:`augment_eligible`).  The exact
    template calls read an int16 level matrix (:meth:`prepare_levels`), so
    their eligibility and bucket tests run in int16; the exact
    ``approx_match`` keeps a table of its answers on one cost (see there).
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
        # sampled probes drawn and left unread since the last logged call
        self._skipped = 0
        # (phi, returned overlay, cost, _Eligibility) of the last successful
        # exact augmentation round; matched by identity, never by id()
        self._snapshot = None
        # (cost, {edge count: (size, mate0, mate1, is a maximum)}) of the
        # exact approx_match calls on one cost, matched the same way
        self._ladder = None

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
        on demand and gets ``cost`` unchanged, and so does a cost that is
        already a :class:`MaterializedCost`.
        """
        if self.variant == "sampled" or isinstance(cost, MaterializedCost):
            return cost
        return MaterializedCost(cost)

    def prepare_levels(self, cost: CostOracle) -> CostOracle:
        """:meth:`prepare_cost` for a cost of template levels, integers in
        [1, C] with C < ``LEVEL_SENTINEL`` or +inf: the exact backend reads
        it once into an int16 :class:`LevelMatrix`, whose reads are levels
        and whose ``readout`` is the same costs as float64; the sampled
        backend gets ``cost`` unchanged."""
        return cost if self.variant == "sampled" else LevelMatrix(cost)

    def _rng(self) -> np.random.Generator:
        child = self._seq.spawn(1)[0]
        return np.random.default_rng(child)

    def query_budget(self, n: int) -> int:
        return backend_query_budget(min(self.epsilon, 0.2), n, self.variant)

    def _log(self, op: str, counter, before: int, n: int, **extra):
        used = counter.count - before
        budget = self.query_budget(n)
        rec = {"op": op, "queries": used, "budget": budget, "n": n, **extra}
        if self.variant == "sampled":
            rec["skipped"], self._skipped = self._skipped, 0
        self.call_log.append(rec)
        if self.variant == "sampled" and used > budget:
            raise AssertionError(
                f"sampled backend exceeded its query budget in {op}: {used} > {budget}")

    # -- approx_match -------------------------------------------------------
    def approx_match(self, cost: CostOracle, limit: float, need: float = math.inf):
        """Estimate the max-matching size of the graph of edges with
        cost <= limit; returns (size, oracle).

        A size below ``need`` is returned as found; at or above it the call
        may return any size >= ``need`` as soon as it has one.  Exact: a
        matching of the maximum size, or of at least ``need`` pairs, where
        Hopcroft-Karp stops between phases.  The graphs of one cost are
        nested, so the same edge count means the same graph, and the calls
        on one cost object keep a table of their answers by edge count (a
        new cost object clears it).  A call whose count holds a maximum, or
        an answer of at least ``need`` pairs, returns it with no adjacency
        build and no Hopcroft-Karp; any other call starts Hopcroft-Karp
        from the entry of the largest count up to its own, whose pairs are
        all edges of its graph, or from the empty matching.  Only which
        matching comes back depends on the calls before, and a size below
        ``need`` is the maximum.  Sampled: the probe greedy's matching over
        all pairs under the full budget, with no augmentation after it, so
        the size is a lower bound on the maximum and ``need`` is not used.
        Each record logs ``size``, and each exact one ``carried``, the
        pairs it started from, and ``reused``, whether the table answered.
        """
        n = cost.n
        before = cost.counter.count
        if self.variant == "exact":
            mask = cost.block(np.arange(n), np.arange(n)) <= limit
            edges = int(np.count_nonzero(mask))
            if self._ladder is None or self._ladder[0] is not cost:
                self._ladder = (cost, {})
            table = self._ladder[1]
            got = table.get(edges)
            reused = got is not None and (got[3] or got[0] >= need)
            if reused:
                size, mate0, mate1, _ = got
                carried = size
            else:
                below = [e for e in table if e <= edges]
                carried, mate0, mate1 = 0, None, None
                if below:
                    carried, m0, m1, _ = table[max(below)]
                    mate0, mate1 = m0.tolist(), m1.tolist()
                size, mate0, mate1 = _hopcroft_karp(_mask_to_adj(mask), n, n,
                                                    mate0, mate1, need)
                table[edges] = (size, mate0, mate1, size < need)
            self._log("approx_match", cost.counter, before, n, size=size,
                      carried=carried, reused=reused)
            return size, ArrayMatching(mate0, mate1)
        every = np.arange(n, dtype=np.int64)
        size, out = self._match(cost, every, every, lambda c, i, j: c <= limit,
                                self.query_budget(n), 10)
        self._log("approx_match", cost.counter, before, n, size=size)
        return size, out

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
        size, out = self._match(cost, rows, cols, lambda c, i, j: c <= limit,
                                self.query_budget(n), 10)
        self._log("large_match", cost.counter, before, n)
        return out if self._is_large(size, n, delta_in, 1) else None

    # -- large_matching_forward ---------------------------------------------
    def large_matching_forward(self, phi: PotentialOracle, A: MembershipOracle | None,
                               delta_in: float, matching: MatchingOracle,
                               cost: CostOracle):
        """Large matching in the forward graph restricted to A, or None.

        Iterates potential-value pairs (i, j), restricting to
        phi^-1(i) x phi^-1(j) where the edge test degenerates to
        i + j == c(u, v) + 1, and halts at the first pair that yields a
        matching (each pair is a plain large_match with delta_in / R^2).
        ``cost`` holds integer levels >= 1 or +inf, as the template's do,
        so a pair with i + j < 2 is empty.  It is skipped unread where that
        holds for every entry: on the exact backend, which read and checked
        the whole cost when preparing it, and on a ``LevelCost``, whose
        values are levels by construction.  Any other cost is checked only
        where read, so the sampled backend still probes its i + j = 1
        pairs, and a malformed entry there raises instead of going unseen.
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
        budget = self.query_budget(n)
        result = None
        floor = 2 if self.variant == "exact" or isinstance(cost, LevelCost) else 1
        col_buckets = [(qv, cols_all[phi_c == qv]) for qv in np.unique(phi_c)]
        for pv in np.unique(phi_r):
            rows = rows_all[phi_r == pv]
            for qv, cols in col_buckets:
                if pv + qv < floor:
                    continue  # the bucket holds no valid cost
                remaining = budget - (cost.counter.count - before)
                if remaining <= 0:
                    break
                # i + j == c + 1, matched pairs out; a Python int keeps an
                # int16 block's test in int16
                target = int(pv + qv) - 1
                size, m = self._match(
                    cost, rows, cols, lambda c, i, j: (c == target) & (mate0[i] != j),
                    remaining, 8)
                if self._is_large(size, n, delta_in, R):
                    result = m
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
        Sampled calls walk each class's free starts in random order, in
        groups of ``_PATH_GROUP`` that share one draw and one read per hop,
        and log ``memo_hits``: matched-edge tightness lookups
        served from the call's memo instead of a read.  ``cost`` holds
        integer levels >= 1 or +inf, as the template's do, so the sampled
        path search reads no probe with phi0 + phi1 < 2.

        Exact calls build one eligibility snapshot per Step 1, from one
        dense read of the cost (int16 levels, from :meth:`prepare_levels`):
        a round whose phi and cost are the previous successful round's and
        whose matching is the overlay that round returned continues from
        that round's snapshot, updated in place along its paths; any other
        round builds a new one.  At most one
        snapshot is held at a time, and none after a round whose paths
        leave no free side-0 vertex, since no round follows it.  A length
        class whose reachability pass finds no free start that can end in
        a free column returns no paths without a DFS.
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
                    if np.any(elig.mate0 == UNMATCHED):  # else no next round
                        self._snapshot = (phi, out, cost, elig)
                    break
        else:
            out, memo_hits = self._sampled_augment(phi, m_in, k, bar, cost, before)
        extra = {"memo_hits": memo_hits} if self.variant == "sampled" else {}
        self._log("augment_eligible", cost.counter, before, n, **extra)
        return out

    # -- the matching kernel -------------------------------------------------
    def _match(self, cost: CostOracle, rows, cols, test, budget: int, stall_limit: int):
        """A matching on rows x cols of the pairs that pass ``test``.

        ``test(costs, is_, js)`` says which pairs are edges, given their
        costs and indices.  Exact: one ``cost.block(rows, cols)``, tested
        with ``rows[:, None]`` and ``cols[None, :]``, and one Hopcroft-Karp
        on the mask, a maximum matching.  Sampled: the probe greedy, which
        tests the probes it reads, under ``budget`` and ``stall_limit``.
        Returns (size, :class:`ArrayMatching` on instance indices).
        """
        if self.variant == "exact":
            mask = test(cost.block(rows, cols), rows[:, None], cols[None, :])
            size, sub_mate0, _ = _hopcroft_karp(_mask_to_adj(mask), len(rows), len(cols))
            return size, _global_matching(cost.n, rows, cols, sub_mate0)
        size, mate0, mate1 = self._probe_greedy(
            cost, rows, cols, lambda is_, js: test(cost.pairs(is_, js), is_, js),
            budget, stall_limit)
        return size, ArrayMatching(mate0, mate1)

    def _is_large(self, size: int, n: int, delta_in: float, R: int) -> bool:
        """The bottom rule of ``large_match`` (R = 1) and of a forward
        bucket: exact, size >= delta_in / R^2 * n; sampled, size > 0 and
        size >= :func:`delta_out_forward` (delta_in, R) * n, which at R = 1
        is :func:`delta_out`."""
        if self.variant == "exact":
            return size >= delta_in / (R * R) * n
        return size >= delta_out_forward(delta_in, R) * n and size > 0

    # -- sampled internals ---------------------------------------------------
    def _probe_greedy(self, cost: CostOracle, rows, cols, edges, budget: int,
                      stall_limit: int):
        """Greedy matching on rows x cols from batches of random probes.

        Each batch draws up to 2 probes per free row from the call's child
        RNG, ``edges(is_, js)`` tests them and every hit whose ends are both
        still free is matched.  A column matched before the batch stays
        matched through it, so its probes are not read but added to
        ``skipped``.  Probing stops when no row is free, when the reads
        counted on ``cost`` since the call began leave ``len(rows)`` or
        fewer of ``budget``, or after ``stall_limit`` batches in a row that
        matched nothing.  Returns (size, mate0, mate1), the mates as
        length-n index arrays.
        """
        n = cost.n
        rng = self._rng()
        counter = cost.counter
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
            open_ = mate1[js] == -1
            hits = np.zeros(batch, dtype=bool)
            if open_.any():
                hits[open_] = edges(is_[open_], js[open_])
            self._skipped += batch - int(np.count_nonzero(open_))
            progressed = False
            for i, j in zip(is_[hits], js[hits]):
                if mate0[i] == -1 and mate1[j] == -1:
                    mate0[i] = j
                    mate1[j] = i
                    progressed = True
            stall = 0 if progressed else stall + 1
        return int(np.count_nonzero(mate0 >= 0)), mate0, mate1

    def _sampled_augment(self, phi, m_in, k, bar, cost, before):
        """Randomized bounded-depth search for disjoint eligible augmenting
        paths; succeeds on the first exact length class reaching the bar.

        A group hop draws ``probes`` side-1 vertices per live start and
        reads those the hop could accept in one ``pairs`` call.  A start
        takes its first eligible probe in draw order, on an inner hop its
        first whose matched edge is tight, or drops out and frees its marks;
        picks go in start order and mark j used at once, which keeps the
        paths node-disjoint and off themselves.  Potentials and mates are
        fixed for the call and paths take effect only in the returned
        overlay, so a matched edge's tightness is read at most once per
        call, in rounds that read each start's candidates up to its first
        tight one, into an int8 memo keyed by j (-1: not read yet; a free j,
        a path's end, is 1 unread).  Returns the overlay (or None) and the
        number of tightness lookups the memo served.
        """
        n = cost.n
        rng = self._rng()
        budget = self.query_budget(n)
        phi0 = phi.eval_many(v0(np.arange(n, dtype=np.int64)))
        phi1 = phi.eval_many(v1(np.arange(n, dtype=np.int64)))
        mate1 = m_in.mate_of_v1()
        free0 = np.nonzero(m_in.mate_of_v0() == UNMATCHED)[0]
        probes = max(16, int(round(n ** (1.0 - min(self.epsilon, 0.2)))))
        memo = np.where(mate1 == UNMATCHED, 1, -1).astype(np.int8)
        lookups = tight_reads = 0

        for half_len in range((k + 1) // 2):
            # side-1 states: 1 free, 2 matched, 0 used by this class's paths; a
            # path's side-0 vertices are its start and the mates of its side-1
            # ones, so marking these keeps paths disjoint and a row's mate used
            state = np.where(mate1 == UNMATCHED, 1, 2).astype(np.int8)
            paths = []
            order = rng.permutation(free0).tolist()
            for g in range(0, len(order), _PATH_GROUP):
                seqs = [[start] for start in order[g:g + _PATH_GROUP]]
                hop = 0
                while seqs and hop <= half_len:
                    last = hop == half_len
                    # the hop's worst case: a pairs and a tightness read per probe
                    worst = len(seqs) * probes * (1 if last else 2)
                    if budget - (cost.counter.count - before) < worst:
                        break
                    cur = np.array([seq[-1] for seq in seqs])
                    js = rng.integers(0, n, size=(len(seqs), probes))
                    sums = phi0[cur][:, None] + phi1[js]
                    keep = (state[js] == (1 if last else 2)) & (sums >= 2)
                    rows, cols = np.nonzero(keep)  # row-major: draw order per start
                    self._skipped += keep.size - len(rows)
                    js = js[rows, cols]
                    ok = sums[rows, cols] == cost.pairs(cur[rows], js) + 1
                    cands = [[] for _ in seqs]  # each start's eligible probes
                    for r, j in zip(rows[ok].tolist(), js[ok].tolist()):
                        cands[r].append(j)
                    ptr, todo, picked = [0] * len(seqs), range(len(seqs)), []
                    while todo:  # one round of tightness reads
                        heads = []
                        for r in todo:  # skip used and known non-tight candidates
                            c, p = cands[r], ptr[r]
                            while p < len(c) and (state[c[p]] == 0 or memo[c[p]] == 0):
                                lookups += bool(state[c[p]])
                                p += 1
                            ptr[r] = p
                            if p < len(c):
                                heads.append((r, c[p]))
                                lookups += not last
                        unread = sorted({j for _, j in heads if memo[j] < 0})
                        if unread:
                            i2 = mate1[unread]
                            memo[unread] = phi0[i2] + phi1[unread] == cost.pairs(i2, unread)
                            tight_reads += len(unread)
                        todo = []
                        for r, j in heads:  # picks in start order
                            if state[j] and memo[j] == 1:
                                state[j] = 0
                                seqs[r] += [j] if last else [j, int(mate1[j])]
                                picked.append(r)
                            else:  # not tight, or an earlier start took j this round
                                ptr[r] += 1
                                todo.append(r)
                    for r in set(range(len(seqs))) - set(picked):
                        state[seqs[r][1::2]] = 2  # a dropped start frees its marks
                    seqs = [seqs[r] for r in sorted(picked)]
                    hop += 1
                if seqs and hop <= half_len:
                    break  # the budget cannot cover the next hop
                paths += seqs
            if len(paths) >= bar and len(paths) >= 1:
                return _augment_overlay(m_in, paths), lookups - tight_reads
        return None, lookups - tight_reads

