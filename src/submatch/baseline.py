"""Independent exact oracles: k-cardinality min-weight matching, discrete
EMD, and bipartite minimum vertex cover.

These are the reference answers every randomized estimate in this package
is tested against, so they are deliberately boring: dense inputs, integer
arithmetic internally (costs are scaled to 64-bit integers at 1e-9
resolution so the optimality certificates are exact), and a hard instance
cap.  None of the sublinear machinery is used here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import v0, v1

__all__ = [
    "ExactResult", "exact_min_weight_k_matching", "min_weight_matching_sweep",
    "exact_emd", "max_bipartite_matching", "min_vertex_cover_bipartite",
]

MAX_N = 2000
COST_SCALE = 10 ** 9
BIG = np.iinfo(np.int64).max // 4


@dataclass
class ExactResult:
    """Optimal value plus an explicit witness and a dual certificate."""

    value: float
    witness: list[tuple[int, int]]
    potentials: tuple[np.ndarray, np.ndarray]
    #: per-cardinality optimal values c(M^0), c(M^1), ..., c(M^k)
    sweep: np.ndarray = field(default=None, repr=False)


def _check_cap(n: int):
    if n > MAX_N:
        raise ValueError(f"baseline oracle capped at n <= {MAX_N}, got {n}")


def _scale_costs(costs: np.ndarray) -> np.ndarray:
    if np.any(np.isnan(costs)):
        raise ValueError("malformed cost: a cost is NaN")
    edge = costs != np.inf  # only +inf is a non-edge; -inf is a negative cost
    if np.any(costs[edge] < 0):
        raise ValueError("costs must be nonnegative")
    if np.any(costs[edge] > 1e9):
        raise ValueError("costs above 1e9 overflow the integer scaling")
    scaled = np.zeros(costs.shape, dtype=np.int64)
    scaled[edge] = np.rint(costs[edge] * COST_SCALE).astype(np.int64)
    scaled[~edge] = -1
    return scaled


def _ssp_assignment(int_costs: np.ndarray, k: int):
    """Successive shortest paths on the assignment network, on dense arrays.

    Returns (sweep of optimal values for cardinalities 0..k, mate arrays,
    final dual potentials).  Entries of -1 in ``int_costs`` are non-edges.
    After each augmentation the flow is a min-cost matching of its own
    cardinality, which gives the whole sweep in a single run.

    Potentials (u, v) keep reduced costs c - u_i - v_j nonnegative on all
    edges and zero on matched edges, so Dijkstra stays valid round after
    round (Johnson's trick).  Each augmentation is a dense Dijkstra over
    the columns (Jonker & Volgenant 1987): one masked min over the free
    rows seeds every column's distance, then the unsettled column of least
    distance is settled until a free one is.  A settled matched column
    reaches its mate row at the same distance (the matched edge is tight),
    and that row is relaxed with one vector operation over its edges.

    Stopping at the first free column leaves the duals exact: every vertex
    still unsettled has distance >= d*, so the update's shift
    d* - min(dist, d*) is zero for it whether its distance is final or not.
    """
    n = int_costs.shape[0]
    edge = int_costs >= 0
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    sweep = [0]
    for _ in range(k):
        free = np.nonzero(mate0 == -1)[0]
        red = np.where(edge[free], int_costs[free] - u[free, None] - v, BIG)
        best = np.argmin(red, axis=0)
        dist1 = red[best, np.arange(n)]
        par1 = free[best]  # predecessor row of each column
        dist0 = np.where(mate0 == -1, 0, BIG)
        settled = np.zeros(n, dtype=bool)
        while True:
            open_dist = np.where(settled, BIG, dist1)
            j = int(np.argmin(open_dist))
            d = int(open_dist[j])
            if d >= BIG:
                raise ValueError("requested cardinality exceeds maximum matching size")
            settled[j] = True
            i = int(mate1[j])
            if i == -1:
                break  # the first free column settled ends the search
            dist0[i] = d  # backward arc along the matched edge has reduced cost 0
            nd = d + int_costs[i] - u[i] - v
            upd = edge[i] & (nd < dist1)  # a settled column never improves: nd >= d
            dist1[upd] = nd[upd]
            par1[upd] = i
        d_star = d
        # dual update keeps every edge's reduced cost >= 0 and path edges tight
        u += d_star - np.minimum(dist0, d_star)
        v -= d_star - np.minimum(dist1, d_star)
        while j != -1:
            i = int(par1[j])
            nxt = int(mate0[i])
            mate0[i] = j
            mate1[j] = i
            j = nxt
        matched_rows = np.nonzero(mate0 >= 0)[0]
        sweep.append(int(np.sum(int_costs[matched_rows, mate0[matched_rows]])))
    return np.array(sweep, dtype=np.int64), mate0, mate1, u, v


def _verify_certificate(int_costs, mate0, u, v):
    """Dual feasibility c - u - v >= 0 on all edges and complementary
    slackness (== 0) on matched edges, in exact integer arithmetic."""
    red = int_costs - u[:, None] - v[None, :]
    edge = int_costs >= 0
    rows = np.nonzero(mate0 >= 0)[0]
    cols = mate0[rows]
    if len(rows) and np.any(red[rows, cols] != 0):
        raise AssertionError("certificate failure: matched reduced cost != 0")
    if np.any(red[edge] < 0):
        raise AssertionError("certificate failure: negative reduced cost")


def exact_min_weight_k_matching(costs, k: int) -> ExactResult:
    """Optimal cost of a size-``k`` matching on a dense cost matrix.

    Solved by successive-shortest-path min-cost flow; the result carries
    the witness, the dual potentials and the full per-cardinality sweep
    (``result.sweep[t]`` is the optimal size-``t`` cost).
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.shape[0]
    _check_cap(n)
    if k < 0 or k > n:
        raise ValueError(f"k must be in [0, {n}]")
    if k == 0:
        zero = np.zeros(n, dtype=np.int64)
        return ExactResult(0.0, [], (zero, zero.copy()), sweep=np.zeros(1))
    int_costs = _scale_costs(costs)
    sweep, mate0, mate1, u, v = _ssp_assignment(int_costs, k)
    _verify_certificate(int_costs, mate0, u, v)
    witness = [(int(i), int(mate0[i])) for i in range(n) if mate0[i] >= 0]
    return ExactResult(float(sweep[k]) / COST_SCALE, witness, (u, v),
                       sweep=sweep.astype(np.float64) / COST_SCALE)


def min_weight_matching_sweep(costs, k_max: int | None = None) -> np.ndarray:
    """Optimal cost for every cardinality 0..k_max in one run."""
    costs = np.asarray(costs, dtype=np.float64)
    if k_max is None:
        k_max = costs.shape[0]
    return exact_min_weight_k_matching(costs, k_max).sweep


# ---------------------------------------------------------------------------
# Exact discrete optimal transport
# ---------------------------------------------------------------------------

MASS_SCALE = 10 ** 12


def exact_emd(masses_mu, masses_nu, metric) -> float:
    """Exact discrete optimal transport cost between two mass vectors.

    Masses must each sum to 1 (tolerance 1e-12).  Masses are scaled to
    integers at 1e-12 resolution (sub-resolution drift is moved onto the
    heaviest point) and the problem is solved as integer min-cost flow.
    """
    mu = np.asarray(masses_mu, dtype=np.float64)
    nu = np.asarray(masses_nu, dtype=np.float64)
    metric = np.asarray(metric, dtype=np.float64)
    if abs(mu.sum() - 1.0) > 1e-12 or abs(nu.sum() - 1.0) > 1e-12:
        raise ValueError("masses must each sum to 1")
    if np.any(mu < 0) or np.any(nu < 0):
        raise ValueError("masses must be nonnegative")
    if metric.shape != (len(mu), len(nu)):
        raise ValueError("metric table shape mismatch")
    _check_cap(max(metric.shape))
    su = np.rint(mu * MASS_SCALE).astype(np.int64)
    sv = np.rint(nu * MASS_SCALE).astype(np.int64)
    su[np.argmax(su)] += MASS_SCALE - su.sum()
    sv[np.argmax(sv)] += MASS_SCALE - sv.sum()
    total = _transport_cost(su, sv, _scale_costs(metric))
    return float(total) / (MASS_SCALE * COST_SCALE)


def _transport_cost(supply: np.ndarray, demand: np.ndarray, int_costs: np.ndarray) -> int:
    """Integer transport cost via successive shortest paths with potentials.

    Each augmentation saturates a source, a sink or a backward arc, so the
    number of rounds is linear in the support sizes.  Python ints are used
    for the cost accumulator (mass * cost products overflow int64).
    """
    ns, nt = len(supply), len(demand)
    rem_s = supply.astype(np.int64).copy()
    rem_t = demand.astype(np.int64).copy()
    flow: dict[tuple[int, int], int] = {}
    back: list[list[int]] = [[] for _ in range(nt)]  # sources with flow into j
    pu = np.zeros(ns, dtype=np.int64)
    pv = np.zeros(nt, dtype=np.int64)
    while rem_s.sum() > 0:
        dist_s = np.where(rem_s > 0, 0, BIG)
        dist_t = np.full(nt, BIG, dtype=np.int64)
        par_t = np.full(nt, -1, dtype=np.int64)
        par_s = np.full(ns, -1, dtype=np.int64)
        heap = [(0, 0, int(i)) for i in np.nonzero(rem_s > 0)[0]]
        heapq.heapify(heap)
        done_s = np.zeros(ns, dtype=bool)
        done_t = np.zeros(nt, dtype=bool)
        while heap:
            d, s, x = heapq.heappop(heap)
            if s == 0:
                if done_s[x] or d > dist_s[x]:
                    continue
                done_s[x] = True
                row = int_costs[x]
                cols = np.nonzero(row >= 0)[0]
                rc = d + row[cols] - pu[x] - pv[cols]
                upd = rc < dist_t[cols]
                for j, nd in zip(cols[upd], rc[upd]):
                    dist_t[j] = nd
                    par_t[j] = x
                    heapq.heappush(heap, (int(nd), 1, int(j)))
            else:
                if done_t[x] or d > dist_t[x]:
                    continue
                done_t[x] = True
                for i in back[x]:
                    if flow.get((i, x), 0) <= 0:
                        continue
                    # backward arc has reduced cost 0 under valid potentials
                    if d < dist_s[i]:
                        dist_s[i] = d
                        par_s[i] = x
                        heapq.heappush(heap, (int(d), 0, int(i)))
        sinks = np.nonzero((rem_t > 0) & (dist_t < BIG))[0]
        if len(sinks) == 0:
            raise AssertionError("transport network disconnected")
        target = int(sinks[np.argmin(dist_t[sinks])])
        d_star = int(dist_t[target])
        # walk the path back to a source, collecting arcs and the bottleneck
        arcs = []
        j = target
        bottleneck = int(rem_t[target])
        while True:
            i = int(par_t[j])
            arcs.append((i, j, +1))
            pj = int(par_s[i])
            if pj == -1:
                break  # i is a source (dist 0, never improved)
            arcs.append((i, pj, -1))
            bottleneck = min(bottleneck, flow[(i, pj)])
            j = pj
        src = arcs[-1][0]
        bottleneck = min(bottleneck, int(rem_s[src]))
        for i, j, sgn in arcs:
            flow[(i, j)] = flow.get((i, j), 0) + sgn * bottleneck
            if sgn > 0 and i not in back[j]:
                back[j].append(i)
        rem_s[src] -= bottleneck
        rem_t[target] -= bottleneck
        pu += d_star - np.minimum(dist_s, d_star)
        pv -= d_star - np.minimum(dist_t, d_star)
    return sum(int(int_costs[i, j]) * int(f) for (i, j), f in flow.items() if f > 0)


# ---------------------------------------------------------------------------
# Maximum matching / vertex cover on explicit edge lists
# ---------------------------------------------------------------------------

def max_bipartite_matching(n0: int, n1: int, edges) -> tuple[int, np.ndarray, np.ndarray]:
    """Hopcroft-Karp on an explicit (i, j) edge list."""
    adj = [[] for _ in range(n0)]
    for i, j in edges:
        adj[i].append(j)
    mate0 = np.full(n0, -1, dtype=np.int64)
    mate1 = np.full(n1, -1, dtype=np.int64)
    inf = n0 + n1 + 1
    dist = np.zeros(n0, dtype=np.int64)

    def bfs():
        queue = []
        for i in range(n0):
            if mate0[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        found = False
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for j in adj[i]:
                m = mate1[j]
                if m == -1:
                    found = True
                elif dist[m] == inf:
                    dist[m] = dist[i] + 1
                    queue.append(int(m))
        return found

    def dfs(i):
        for j in adj[i]:
            m = mate1[j]
            if m == -1 or (dist[m] == dist[i] + 1 and dfs(int(m))):
                mate0[i] = j
                mate1[j] = i
                return True
        dist[i] = inf
        return False

    size = 0
    while bfs():
        for i in range(n0):
            if mate0[i] == -1 and dfs(i):
                size += 1
    return size, mate0, mate1


def min_vertex_cover_bipartite(n0: int, n1: int, edges) -> set[int]:
    """Minimum vertex cover via Koenig's theorem, as global vertex ids.

    From a maximum matching, take Z = vertices reachable from free side-0
    vertices by alternating paths; the cover is (V0 minus Z) on side 0 plus
    (V1 intersect Z) on side 1.
    """
    edges = list(edges)
    size, mate0, mate1 = max_bipartite_matching(n0, n1, edges)
    adj = [[] for _ in range(n0)]
    for i, j in edges:
        adj[i].append(j)
    in_z0 = np.zeros(n0, dtype=bool)
    in_z1 = np.zeros(n1, dtype=bool)
    stack = [i for i in range(n0) if mate0[i] == -1]
    in_z0[stack] = True
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if mate0[i] == j:
                continue  # leave side 0 on non-matching edges only
            if not in_z1[j]:
                in_z1[j] = True
                m = mate1[j]
                if m != -1 and not in_z0[m]:
                    in_z0[m] = True
                    stack.append(int(m))
    # matched vertices always have edges, so V0 \ Z needs no isolated-vertex filter
    cover = {v0(int(i)) for i in np.nonzero(~in_z0)[0] if mate0[i] != -1}
    cover |= {v1(int(j)) for j in np.nonzero(in_z1)[0]}
    assert len(cover) == size, "Koenig: |cover| must equal max matching size"
    return cover
