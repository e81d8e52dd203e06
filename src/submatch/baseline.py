"""Independent exact oracles: k-cardinality min-weight matching, discrete
EMD, and bipartite minimum vertex cover.

These are the reference answers every randomized estimate in this package
is tested against, so they are deliberately boring: dense inputs, integer
arithmetic internally (costs are scaled to 64-bit integers at 1e-9
resolution so the optimality certificates are exact), and a hard instance
cap.  None of the sublinear machinery is used here.
"""

from __future__ import annotations

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


def _ssp(int_costs: np.ndarray, supply: np.ndarray, demand: np.ndarray, units: int):
    """Successive shortest paths for min-cost transport, on dense arrays.

    Routes ``units`` units from the rows (``supply``) to the columns
    (``demand``); entries of -1 in ``int_costs`` are non-edges, and an edge
    carries any amount.  Returns (exact integer cost after each
    augmentation, starting at 0; the positive flows as {(i, j): amount};
    the final dual potentials u, v).  With unit supplies and demands each
    augmentation adds one matched edge, and the flow after it is a min-cost
    matching of its own cardinality, which gives the whole sweep in one run.
    Costs are summed as Python ints: mass * cost and long sweeps overflow
    int64.

    Potentials (u, v) keep reduced costs c - u_i - v_j nonnegative on all
    edges and zero on edges with flow, so Dijkstra stays valid round after
    round (Johnson's trick).  Each augmentation is a dense Dijkstra over
    the columns (Jonker & Volgenant 1987): one masked min over the rows with
    supply left seeds every column's distance, then the unsettled column of
    least distance is settled until one with demand left is.  A settled
    column reaches every row with flow into it at the same distance (the
    backward arc is tight), and each such row not reached before is
    relaxed with one vector operation over its edges.

    Stopping at the first column with demand left, at distance d, keeps the
    duals exact: every vertex still unsettled has distance >= d, so the
    update's shift d - min(dist, d) is zero for it whether its distance is
    final or not.
    """
    ns, nt = int_costs.shape
    edge = int_costs >= 0
    rem_s = supply.astype(np.int64)
    rem_t = demand.astype(np.int64)
    flow: dict[tuple[int, int], int] = {}
    back = [set() for _ in range(nt)]  # rows with flow into each column
    u = np.zeros(ns, dtype=np.int64)
    v = np.zeros(nt, dtype=np.int64)
    total = 0
    totals = [0]
    while units > 0:
        free = np.nonzero(rem_s > 0)[0]
        red = np.where(edge[free], int_costs[free] - u[free, None] - v, BIG)
        best = np.argmin(red, axis=0)
        dist1 = red[best, np.arange(nt)]
        par1 = free[best]  # predecessor row of each column
        dist0 = np.where(rem_s > 0, 0, BIG)
        par0 = np.full(ns, -1, dtype=np.int64)  # predecessor column of each row
        settled = np.zeros(nt, dtype=bool)
        while True:
            open_dist = np.where(settled, BIG, dist1)
            j = int(np.argmin(open_dist))
            d = int(open_dist[j])
            if d >= BIG:
                raise ValueError("requested flow exceeds what the finite-cost edges can carry")
            settled[j] = True
            if rem_t[j] > 0:
                break  # the first column with demand left ends the search
            for i in back[j]:
                if dist0[i] < BIG:
                    continue  # reached before, at a distance <= d
                dist0[i] = d
                par0[i] = j
                nd = d + int_costs[i] - u[i] - v
                upd = edge[i] & (nd < dist1)  # a settled column never improves: nd >= d
                dist1[upd] = nd[upd]
                par1[upd] = i
        # dual update keeps every edge's reduced cost >= 0 and path edges tight
        u += d - np.minimum(dist0, d)
        v -= d - np.minimum(dist1, d)
        # walk back to a source: forward arcs (par1[j], j), backward (i, par0[i])
        sink, arcs = j, []
        amount = min(units, int(rem_t[sink]))
        while True:
            i = int(par1[j])
            arcs.append((i, j, 1))
            if par0[i] == -1:
                break  # i has supply left
            j = int(par0[i])
            arcs.append((i, j, -1))
            amount = min(amount, flow[i, j])
        amount = min(amount, int(rem_s[i]))
        rem_s[i] -= amount
        rem_t[sink] -= amount
        units -= amount
        for i, j, sign in arcs:
            f = flow.get((i, j), 0) + sign * amount
            total += sign * amount * int(int_costs[i, j])
            if f:
                flow[i, j] = f
                back[j].add(i)
            else:
                del flow[i, j]
                back[j].discard(i)
        totals.append(total)
    return totals, flow, u, v


def _verify_certificate(int_costs, flow, u, v):
    """Dual feasibility c - u - v >= 0 on all edges and complementary
    slackness (== 0) on edges with flow, in exact integer arithmetic."""
    red = int_costs - u[:, None] - v[None, :]
    if any(red[i, j] != 0 for i, j in flow):
        raise AssertionError("certificate failure: reduced cost != 0 on an edge with flow")
    if np.any(red[int_costs >= 0] < 0):
        raise AssertionError("certificate failure: negative reduced cost")


def exact_min_weight_k_matching(costs, k: int) -> ExactResult:
    """Optimal cost of a size-``k`` matching on a dense cost matrix.

    Solved by successive-shortest-path min-cost flow; the result carries
    the witness, the dual potentials and the full per-cardinality sweep
    (``result.sweep[t]`` is the optimal size-``t`` cost).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError(f"costs must be a square matrix, got shape {costs.shape}")
    n = costs.shape[0]
    _check_cap(n)
    if k < 0 or k > n:
        raise ValueError(f"k must be in [0, {n}]")
    int_costs = _scale_costs(costs)
    ones = np.ones(n, dtype=np.int64)
    sweep, flow, u, v = _ssp(int_costs, ones, ones, k)
    _verify_certificate(int_costs, flow, u, v)
    return ExactResult(float(sweep[k]) / COST_SCALE, sorted(flow), (u, v),
                       sweep=np.array(sweep, dtype=np.float64) / COST_SCALE)


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
    int_costs = _scale_costs(metric)
    totals, flow, u, v = _ssp(int_costs, su, sv, MASS_SCALE)
    _verify_certificate(int_costs, flow, u, v)
    return float(totals[-1]) / (MASS_SCALE * COST_SCALE)


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
