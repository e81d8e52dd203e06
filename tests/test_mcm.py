import math

import numpy as np
import pytest

from submatch import baseline, mcm
from submatch.core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, EmptyMatching, LevelCost, MatrixCost,
    PotentialOracle, SetMembership, v0, v1,
)
from submatch.mcm import Backend, backend_query_budget, delta_out


class FixedPotential(PotentialOracle):
    """Potential given by explicit per-side arrays, ``p0`` and ``p1``, its
    range bound by default the number of distinct values (test helper)."""

    def __init__(self, phi0, phi1, range_bound=None):
        p0, p1 = np.asarray(phi0, dtype=np.int64), np.asarray(phi1, dtype=np.int64)
        values = len(set(p0.tolist()) | set(p1.tolist()))
        super().__init__(p0, p1, range_bound or max(values, 1))
        self.p0, self.p1 = self.phi0, self.phi1


def mask_cost(mask):
    """Cost oracle whose graph at limit 0.0 is the boolean adjacency ``mask``."""
    return MatrixCost(np.where(mask, 0.0, 1.0))


def assert_valid_matching(m, n, cost=None, members=None):
    m0 = m.mate_of_v0()
    m1 = m.mate_of_v1()
    for i in range(n):
        if m0[i] != UNMATCHED:
            assert m1[m0[i]] == i  # symmetry
            assert m.mate(v0(i)) == v1(m0[i])  # bipartite encoding
            if cost is not None:
                assert cost.pairs([i], [m0[i]])[0] <= 0.0
            if members is not None:
                assert members.contains(v0(i)) and members.contains(v1(int(m0[i])))


# -- budgets -------------------------------------------------------------------

def test_backend_query_budget_examples():
    assert backend_query_budget(0.2, 100, "exact") == 10_000
    assert backend_query_budget(0.2, 0, "sampled") == 0
    assert backend_query_budget(0.2, 0, "exact") == 0
    cap = backend_query_budget(0.2, 10_000, "sampled")
    assert cap <= 40 * 10_000 ** 1.8 * math.log(10_000)


def test_backend_rejects_nonpositive_epsilon_and_clamps_large_ones():
    for variant in ("exact", "sampled"):
        for bad in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                Backend(variant, seed=0, epsilon=bad)
        assert (Backend(variant, epsilon=0.5).query_budget(1000)
                == backend_query_budget(0.2, 1000, variant))


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_backend_rejects_a_seed_that_is_not_an_integer(variant):
    # int(2.7) would run seed 2 without a word
    for bad in (2.7, "3", None):
        with pytest.raises(TypeError, match=f"seed must be an integer, got {bad!r}"):
            Backend(variant, seed=bad)
    assert Backend(variant, seed=np.int64(3)).seed == 3
    assert type(Backend(variant, seed=np.int64(3)).seed) is int


# -- approx_match ---------------------------------------------------------------

def test_approx_match_empty_graph():
    size, m = Backend.exact().approx_match(mask_cost(np.zeros((5, 5), bool)), 0.0)
    assert size == 0 and m.size() == 0


def test_approx_match_perfect_matching_graph():
    size, m = Backend.exact().approx_match(mask_cost(np.eye(8, dtype=bool)), 0.0)
    assert size == 8
    assert_valid_matching(m, 8, mask_cost(np.eye(8, dtype=bool)))


def test_approx_match_complete_graph():
    size, _ = Backend.exact().approx_match(mask_cost(np.ones((5, 5), bool)), 0.0)
    assert size == 5


def test_approx_match_exact_equals_hopcroft_karp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(2, 24))
        mask = rng.random((n, n)) < 0.3
        size, m = Backend.exact().approx_match(mask_cost(mask), 0.0)
        edges = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
        ref, _, _ = baseline.max_bipartite_matching(n, n, edges)
        assert size == ref
        assert m.size() == size
        assert_valid_matching(m, n, mask_cost(mask))


def _ladder_limits(instance, seed):
    """The (limit, need) pairs ``find_characteristic_cost`` probes, in its
    order, the exact backend that probed them and the characteristic cost."""
    from submatch.pipeline import ReductionConfig, find_characteristic_cost

    class Recording(Backend):
        def approx_match(self, cost, limit, need=math.inf):
            self.probes.append((limit, need))
            return super().approx_match(cost, limit, need)

    backend = Recording.exact(seed=0)
    backend.probes = []
    found = find_characteristic_cost(instance, ReductionConfig(0.85, 1.0, 0.1), backend, seed)
    return backend.probes, backend, found


def _max_matching_size(dense, limit):
    n = len(dense)
    rows, cols = np.nonzero(dense <= limit)
    return baseline.max_bipartite_matching(n, n, zip(rows.tolist(), cols.tolist()))[0]


def _reference_bisection(ladder, dense, g, bar):
    """w_bar and the probed limits of the characteristic-cost search run on
    cold baseline maximum sizes."""
    limits = []

    def sparse(idx):
        limits.append(g * float(ladder[idx]))
        return _max_matching_size(dense, limits[-1]) < bar

    lo, hi = 0, len(ladder) - 1
    if not sparse(lo):
        return float(ladder[0]), limits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sparse(mid):
            lo = mid
        else:
            hi = mid - 1
    return float(ladder[lo]), limits


def test_warm_started_approx_match_equals_cold_and_baseline_sizes(monkeypatch):
    from submatch.generators import uniform_instance
    from submatch.pipeline import ReductionConfig
    hk = mcm._hopcroft_karp
    starts = []

    def recording_hk(adj, n0, n1, mate0=None, mate1=None, need=math.inf):
        starts.append((adj, None if mate0 is None else (list(mate0), list(mate1))))
        return hk(adj, n0, n1, mate0, mate1, need)

    monkeypatch.setattr(mcm, "_hopcroft_karp", recording_hk)
    g = ReductionConfig(0.85, 1.0, 0.1).gamma_effective
    reused = early = 0
    for s in (1, 2, 3):
        seed = int(np.random.SeedSequence([18, s]).generate_state(1)[0])
        inst = uniform_instance(200, seed)
        cost = Backend.exact().prepare_cost(inst.cost)
        dense = cost.peek_dense()
        starts.clear()
        probes, backend, found = _ladder_limits(BipartiteInstance(200, cost), seed)
        limits = [limit for limit, _ in probes]
        assert any(a > b for a, b in zip(limits, limits[1:]))  # it goes down too
        assert any(a < b for a, b in zip(limits, limits[1:]))  # and up
        # w_bar and every probe limit are those of cold maximum sizes
        assert (found.w_bar, limits) == _reference_bisection(
            found.ladder, dense, g, (1.0 - 2.0 * g) * 200)
        seen = set()
        for (limit, need), rec in zip(probes, backend.call_log):
            top = _max_matching_size(dense, limit)
            if rec["size"] < need:
                assert rec["size"] == top
            else:
                assert top >= need
                early += rec["size"] < top
            # a repeated edge count is answered from the table, with no Hopcroft-Karp
            edges = int(np.count_nonzero(dense <= limit))
            assert rec["reused"] == (edges in seen)
            seen.add(edges)
        assert len(starts) == sum(not rec["reused"] for rec in backend.call_log)
        reused += sum(rec["reused"] for rec in backend.call_log)
        # every matching a probe starts from is a matching of that probe's graph
        for adj, start in starts:
            if start is not None:
                m0, m1 = start
                for i, j in enumerate(m0):
                    assert j == UNMATCHED or (j in adj[i] and m1[j] == i)
                assert sum(j != UNMATCHED for j in m0) == sum(i != UNMATCHED for i in m1)
        # full-size calls, in the search's order and descending, stay maxima
        for order in (limits, sorted(set(limits), reverse=True)):
            warm = Backend.exact()
            for limit in order:
                size, m = warm.approx_match(cost, limit)
                assert size == _max_matching_size(dense, limit) == m.size()
                assert_valid_matching(m, 200, mask_cost(dense <= limit))
    assert reused >= 3 and early >= 1


def test_ladder_probes_log_carried_pairs():
    from submatch.generators import uniform_instance
    inst = uniform_instance(200, 7)
    cost = Backend.exact().prepare_cost(inst.cost)
    _, backend, _ = _ladder_limits(BipartiteInstance(200, cost), 7)
    log = backend.call_log
    assert log[0]["carried"] == 0 and not log[0]["reused"]  # the first probe starts cold
    assert max(rec["carried"] for rec in log if not rec["reused"]) > 0
    # a reused answer carries the whole answer and runs no Hopcroft-Karp
    assert all(rec["carried"] == rec["size"] for rec in log if rec["reused"])
    # a second cost object on the same backend starts cold, even with equal values
    twin = MatrixCost(cost.peek_dense())
    size, _ = backend.approx_match(twin, 1.0)
    assert (log[-1]["carried"], log[-1]["reused"], size) == (0, False, 200)
    # and the next call on it, the same graph, is answered from the table
    backend.approx_match(twin, 1.0)
    assert (log[-1]["carried"], log[-1]["reused"]) == (200, True)


def test_approx_match_early_stop_serves_only_needs_up_to_its_size():
    # knapsack grid points share one prepared cost with different bars
    from submatch.generators import uniform_instance
    cost = Backend.exact().prepare_cost(uniform_instance(200, 5).cost)
    dense = cost.peek_dense()
    limit = float(np.quantile(dense, 0.01))
    top = _max_matching_size(dense, limit)
    backend = Backend.exact()
    low, _ = backend.approx_match(cost, limit, 1)
    assert 1 <= low < top  # stopped after one phase, short of the maximum
    assert backend.approx_match(cost, limit, low)[0] == low
    assert backend.call_log[-1]["reused"]
    # a larger need is not served by the short answer, only started from it;
    # top + 1 is out of reach, so this call runs to the maximum
    size, m = backend.approx_match(cost, limit, top + 1)
    assert size == top == m.size() and not backend.call_log[-1]["reused"]
    assert backend.call_log[-1]["carried"] == low
    # a size below need is a maximum: it serves every need now
    assert backend.approx_match(cost, limit)[0] == top
    assert backend.call_log[-1]["reused"]


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_approx_match_logs_the_size_it_returns(variant):
    rng = np.random.default_rng(12)
    backend = Backend(variant, seed=3)
    cost = mask_cost(rng.random((40, 40)) < 0.1)
    sizes = [backend.approx_match(cost, limit)[0] for limit in (-1.0, 0.0, 1.0)]
    assert [rec["size"] for rec in backend.call_log] == sizes
    # no edges, a sparse graph and the complete graph: three distinct sizes
    assert sizes[0] == 0 < sizes[1] < sizes[2]


def test_prepare_cost_keeps_a_materialized_cost():
    inst = BipartiteInstance.from_matrix(np.ones((4, 4)))
    exact, sampled = Backend.exact(), Backend.sampled()
    m = exact.prepare_cost(inst.cost)
    assert m is not inst.cost and inst.query_count == 16
    assert exact.prepare_cost(m) is m and sampled.prepare_cost(m) is m
    assert sampled.prepare_cost(inst.cost) is inst.cost
    assert inst.query_count == 16


# -- large_match -----------------------------------------------------------------

def test_large_match_bottom_cases():
    b = Backend.exact()
    empty_graph = mask_cost(np.zeros((6, 6), bool))
    assert b.large_match(empty_graph, 0.0, None, 0.1) is None
    full = mask_cost(np.ones((6, 6), bool))
    assert b.large_match(full, 0.0, SetMembership(6, []), 0.1) is None


def test_large_match_perfect_subgraph():
    n = 20
    m = Backend.exact().large_match(mask_cost(np.eye(n, dtype=bool)), 0.0, None, 0.5)
    assert m is not None
    assert m.size() == n  # exact backend returns the full matching
    assert m.size() >= delta_out(0.5) * n


def test_large_match_exact_completeness():
    # bottom iff mu(G[A]) < delta_in * n, against an independent computation
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(4, 28))
        mask = rng.random((n, n)) < rng.uniform(0.05, 0.5)
        a0 = rng.random(n) < 0.7
        a1 = rng.random(n) < 0.7
        members = SetMembership(n, [v0(i) for i in np.nonzero(a0)[0]]
                                + [v1(j) for j in np.nonzero(a1)[0]])
        delta_in = float(rng.uniform(0.05, 0.6))
        got = Backend.exact().large_match(mask_cost(mask), 0.0, members, delta_in)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if mask[i, j] and a0[i] and a1[j]]
        mu = baseline.max_bipartite_matching(n, n, edges)[0]
        if mu < delta_in * n:
            assert got is None
        else:
            assert got is not None
            assert got.size() == mu
            assert_valid_matching(got, n, mask_cost(mask), members)


# -- large_matching_forward -------------------------------------------------------

def test_forward_bottom_when_no_tight_edges():
    n = 6
    inst = BipartiteInstance.from_matrix(np.full((n, n), 5.0))
    phi = FixedPotential(np.zeros(n), np.zeros(n))
    got = Backend.exact().large_matching_forward(
        phi, None, 0.3, EmptyMatching(n), inst.cost)
    assert got is None


def test_forward_all_tight_returns_full_matching():
    # template costs are levels >= 1: every level-1 edge is tight at phi0 = 2
    n = 10
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    phi = FixedPotential(np.full(n, 2), np.zeros(n), range_bound=3)
    got = Backend.exact().large_matching_forward(
        phi, None, 0.3, EmptyMatching(n), inst.cost)
    assert got is not None
    assert got.size() == n
    bar = 0.3 ** 5 / (2000 * 3 ** 10) * n
    assert got.size() >= math.ceil(bar)


def test_forward_bottom_when_one_side_missing():
    n = 6
    inst = BipartiteInstance.from_matrix(np.zeros((n, n)))
    phi = FixedPotential(np.ones(n), np.zeros(n))
    only_v0 = SetMembership(n, [v0(i) for i in range(n)])
    got = Backend.exact().large_matching_forward(
        phi, only_v0, 0.3, EmptyMatching(n), inst.cost)
    assert got is None


def test_forward_excludes_matched_edges():
    n = 4
    costs = np.full((n, n), 5.0)
    np.fill_diagonal(costs, 1.0)  # only the matched edges satisfy c + 1 == 2
    inst = BipartiteInstance.from_matrix(costs)
    phi = FixedPotential([2, 2, 2, 2], [0, 0, 0, 0])
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    got = Backend.exact().large_matching_forward(
        phi, None, 0.2, matching, inst.cost)
    assert got is None


# -- augment_eligible --------------------------------------------------------------

def test_augment_bottom_when_matching_perfect():
    n = 6
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    phi = FixedPotential(np.ones(n), np.zeros(n))
    got = Backend.exact().augment_eligible(phi, matching, 3, 0.3, inst.cost)
    assert got is None


def test_augment_matches_all_free_edges():
    # all edges tight at c + 1, empty matching, gamma*n/k = 3
    n = 10
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    phi = FixedPotential(np.full(n, 2), np.zeros(n))
    got = Backend.exact().augment_eligible(phi, EmptyMatching(n), 1, 0.3, inst.cost)
    assert got is not None
    assert len(got.augmenting_paths) >= 3
    assert got.size() == n  # maximal set of length-1 paths on a complete graph


def test_augment_bottom_when_below_bar():
    # exactly one augmenting path available but gamma * n = 5 required
    n = 10
    costs = np.full((n, n), 50.0)
    costs[0, 0] = 1.0
    inst = BipartiteInstance.from_matrix(costs)
    phi = FixedPotential(np.full(n, 2), np.zeros(n))
    got = Backend.exact().augment_eligible(phi, EmptyMatching(n), 1, 0.5, inst.cost)
    assert got is None


def test_augment_length_three_path():
    # single eligible length-3 path: u0 -> w1 -> u1 -> w2
    n = 4
    big = 50.0
    costs = np.full((n, n), big)
    costs[0, 1] = 1.0   # u0 - w1 tight at c+1: phi 2 + 0 = 2
    costs[1, 1] = 2.0   # matched (u1, w1) tight at c: 2 + 0 = 2
    costs[1, 2] = 1.0   # u1 - w2 tight at c+1
    inst = BipartiteInstance.from_matrix(costs)
    phi = FixedPotential([2, 2, 0, 0], [0, 0, 0, 0])
    matching = ArrayMatching.from_pairs(n, [(1, 1)])
    got = Backend.exact().augment_eligible(phi, matching, 3, 0.2, inst.cost)
    assert got is not None
    assert got.augmenting_paths == [[0, 1, 1, 2]]
    assert got.mate(v0(0)) == v1(1)
    assert got.mate(v0(1)) == v1(2)


def test_augment_output_is_symmetric_difference_of_disjoint_paths():
    rng = np.random.default_rng(2)
    for trial in range(15):
        n = int(rng.integers(4, 16))
        costs = rng.integers(1, 4, (n, n)).astype(float)
        inst = BipartiteInstance.from_matrix(costs)
        pairs = []
        used1 = set()
        for i in range(0, n, 2):
            j = int(rng.integers(0, n))
            if j not in used1:
                pairs.append((i, j))
                used1.add(j)
        phi1 = np.zeros(n, dtype=int)
        phi0 = np.ones(n, dtype=int)
        for i, j in pairs:  # make matched edges tight at c
            phi1[j] = int(costs[i, j]) - 1
        inst2 = BipartiteInstance.from_matrix(costs)
        matching = ArrayMatching.from_pairs(n, pairs)
        phi = FixedPotential(phi0, phi1)
        k = 5
        got = Backend.exact().augment_eligible(phi, matching, k, 0.05, inst2.cost)
        if got is None:
            continue
        # the symmetric difference must decompose into the reported paths
        before = set(map(tuple, ArrayMatching.from_pairs(n, pairs).edges()))
        after = set(map(tuple, got.edges()))
        sym = before ^ after
        seen_vertices = set()
        for path in got.augmenting_paths:
            assert len(path) % 2 == 0 and len(path) <= k + 1
            for t, x in enumerate(path):
                key = ("i", x) if t % 2 == 0 else ("j", x)
                assert key not in seen_vertices  # node-disjoint
                seen_vertices.add(key)
        path_edges = set()
        for path in got.augmenting_paths:
            for t in range(len(path) - 1):
                i, j = (path[t], path[t + 1]) if t % 2 == 0 else (path[t + 1], path[t])
                path_edges.add((i, j))
        assert sym == path_edges


# -- sampled backend -----------------------------------------------------------------

def test_sampled_backend_respects_budget_and_returns_valid_matchings():
    rng = np.random.default_rng(3)
    n = 64
    mask = rng.random((n, n)) < 0.5
    b = Backend.sampled(seed=7, epsilon=0.2)
    size, m = b.approx_match(mask_cost(mask), 0.0)
    assert_valid_matching(m, n, mask_cost(mask))
    assert size == m.size()
    for rec in b.call_log:
        assert rec["queries"] <= rec["budget"]


def test_sampled_large_match_finds_dense_matching():
    n = 64
    b = Backend.sampled(seed=1, epsilon=0.1)
    m = b.large_match(mask_cost(np.ones((n, n), bool)), 0.0, None, 0.5)
    assert m is not None
    assert m.size() >= delta_out(0.5) * n
    assert_valid_matching(m, n, mask_cost(np.ones((n, n), bool)))


def test_sampled_augment_valid_and_budgeted():
    n = 48
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    phi = FixedPotential(np.full(n, 2), np.zeros(n))
    b = Backend.sampled(seed=2, epsilon=0.1)
    got = b.augment_eligible(phi, EmptyMatching(n), 3, 0.1, inst.cost)
    assert got is not None
    assert got.size() >= 1
    m0 = got.mate_of_v0()
    for i in np.nonzero(m0 != UNMATCHED)[0]:
        assert got.mate_of_v1()[m0[i]] == i
    for rec in b.call_log:
        assert rec["queries"] <= rec["budget"]


def test_sampled_reproducible():
    n = 40
    mask = np.random.default_rng(5).random((n, n)) < 0.4
    runs = []
    for _ in range(2):
        b = Backend.sampled(seed=11, epsilon=0.15)
        size, m = b.approx_match(mask_cost(mask), 0.0)
        runs.append((size, tuple(m.mate_of_v0())))
    assert runs[0] == runs[1]
    # the grouped path search too: the same paths and the same call record
    costs, phi, m, k, gamma = _augment_state(9)  # three paths through two matched edges
    runs = []
    for _ in range(2):
        b = Backend.sampled(seed=11, epsilon=0.15)
        got = b.augment_eligible(phi, m, k, gamma, MatrixCost(costs))
        runs.append((got.augmenting_paths, b.call_log))
    assert runs[0] == runs[1]


# -- list kernels against the numpy-array originals --------------------------------

def _reference_hopcroft_karp(adj, n0, n1):
    """The numpy-scalar Hopcroft-Karp the list kernel replaced, kept verbatim."""
    mate0 = np.full(n0, -1, dtype=np.int64)
    mate1 = np.full(n1, -1, dtype=np.int64)
    inf = n0 + n1 + 1
    dist = np.empty(n0, dtype=np.int64)
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
        if not found:
            return size, mate0, mate1
        ptr = np.zeros(n0, dtype=np.int64)
        for start in range(n0):
            if mate0[start] != -1:
                continue
            stack = [start]
            path = []
            while stack:
                i = stack[-1]
                advanced = False
                while ptr[i] < len(adj[i]):
                    j = int(adj[i][ptr[i]])
                    ptr[i] += 1
                    m = mate1[j]
                    if m == -1:
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
                        stack.append(int(m))
                        advanced = True
                        break
                if not advanced:
                    dist[i] = inf
                    stack.pop()
                    if path:
                        path.pop()


def _eligibility_arrays(cost, phi, matching):
    """(mask, matched_tight, mate0, mate1) of a state, computed from its
    costs, potential and mates: mask[i, j] says (i, j) is a non-matched
    eligible edge, matched_tight[i] that i's matched edge is tight."""
    c = cost.peek_dense()
    phi0, phi1 = phi.phi0, phi.phi1
    mate0, mate1 = matching.mate_of_v0(), matching.mate_of_v1()
    mask = phi0[:, None] + phi1[None, :] == c + 1
    rows = np.nonzero(mate0 != UNMATCHED)[0]
    mask[rows, mate0[rows]] = False
    tight = np.zeros(len(mate0), dtype=bool)
    tight[rows] = phi0[rows] + phi1[mate0[rows]] == c[rows, mate0[rows]]
    return mask, tight, mate0, mate1


def _reference_free_edge_paths(state):
    """The numpy greedy that once served length-1 paths beside the path
    DFS: a maximal matching on free x free eligible pairs."""
    mask, _, mate0, mate1 = _eligibility_arrays(*state)
    free0 = np.nonzero(mate0 == UNMATCHED)[0]
    free1 = np.nonzero(mate1 == UNMATCHED)[0]
    if len(free0) == 0 or len(free1) == 0:
        return []
    sub = mask[np.ix_(free0, free1)]
    taken = np.zeros(len(free1), dtype=bool)
    paths = []
    for r, row in enumerate(sub):
        avail = row & ~taken
        c = int(np.argmax(avail))
        if avail[c]:
            taken[c] = True
            paths.append([int(free0[r]), int(free1[c])])
    return paths


def _reference_exact_length_paths(state, half_len):
    """The numpy-array path DFS the list kernel replaced (half_len >= 1)."""
    mask, mtight, mate0, mate1 = _eligibility_arrays(*state)
    n = len(mate0)
    used0 = np.zeros(n, dtype=bool)
    used1 = np.zeros(n, dtype=bool)
    free0 = mate0 == UNMATCHED
    free1 = mate1 == UNMATCHED
    adj = [np.nonzero(row)[0] for row in mask]
    paths = []
    for start in range(n):
        if not free0[start] or used0[start]:
            continue
        onpath0 = {start}
        onpath1 = set()
        seq = [start]
        nodes = [start]
        ptrs = [0]
        found = None
        while ptrs:
            i = nodes[-1]
            cand = adj[i]
            p = ptrs[-1]
            last = len(ptrs) == half_len + 1
            advanced = False
            while p < len(cand):
                j = int(cand[p])
                p += 1
                if used1[j] or j in onpath1:
                    continue
                if last:
                    if free1[j]:
                        found = seq + [j]
                        break
                    continue
                i2 = int(mate1[j])
                if i2 == UNMATCHED or used0[i2] or i2 in onpath0 or not mtight[i2]:
                    continue
                ptrs[-1] = p
                onpath1.add(j)
                onpath0.add(i2)
                seq.extend([j, i2])
                nodes.append(i2)
                ptrs.append(0)
                advanced = True
                break
            if found is not None:
                break
            if not advanced:
                ptrs.pop()
                nodes.pop()
                if len(seq) > 1:
                    onpath0.discard(seq.pop())
                    onpath1.discard(seq.pop())
                else:
                    seq.pop()
        if found is not None:
            paths.append(found)
            for t, x in enumerate(found):
                if t % 2 == 0:
                    used0[x] = True
                else:
                    used1[x] = True
    return paths


@pytest.mark.parametrize("shape", [(1, 1), (9, 9), (40, 40), (37, 12), (12, 37), (0, 5)])
@pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.7])
def test_hopcroft_karp_lists_equal_numpy_reference(shape, density):
    from submatch.mcm import _hopcroft_karp, _mask_to_adj
    rng = np.random.default_rng([*shape, int(density * 100)])
    for _ in range(5):
        mask = rng.random(shape) < density
        ref_adj = [np.nonzero(row)[0] for row in mask]
        assert _mask_to_adj(mask) == [a.tolist() for a in ref_adj]
        size, m0, m1 = _hopcroft_karp(_mask_to_adj(mask), *shape)
        rsize, r0, r1 = _reference_hopcroft_karp(ref_adj, *shape)
        assert (size, m0.tolist(), m1.tolist()) == (rsize, r0.tolist(), r1.tolist())
        assert m0.dtype == m1.dtype == np.int64


@pytest.mark.parametrize("shape", [(0, 0), (0, 7), (7, 0), (1, 1), (13, 29), (29, 13), (64, 64)])
def test_mask_to_adj_equals_per_row_flatnonzero(shape):
    from submatch.mcm import _mask_to_adj
    rng = np.random.default_rng(list(shape))
    masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
    for density in (0.01, 0.2, 0.9):
        mask = rng.random(shape) < density
        mask[rng.random(shape[0]) < 0.3] = False  # some all-false rows
        masks += [mask, mask[:, ::2], mask.T]  # strided and transposed views too
    for mask in masks:
        got = _mask_to_adj(mask)
        assert got == [np.flatnonzero(row).tolist() for row in mask]
        assert all(type(j) is int for row in got for j in row)


def _random_state(rng):
    """Costs, potential and matching of a random (not 1-feasible) state."""
    n = int(rng.integers(6, 40))
    costs = rng.integers(1, 4, (n, n)).astype(float)
    phi = FixedPotential(rng.integers(0, 4, n), rng.integers(0, 2, n))
    perm = rng.permutation(n)
    keep = rng.random(n) < rng.uniform(0.2, 0.9)
    matching = ArrayMatching.from_pairs(n, [(i, int(perm[i])) for i in range(n) if keep[i]])
    return BipartiteInstance.from_matrix(costs).cost, phi, matching


def _cycle_state(rng):
    """A random state with planted eligible alternating cycles.

    Each gadget has a free start s, matched pairs (y, jy), (x, jx), (z, jz),
    a free jf and the non-matched eligible edges s-jy, s-jz (jy < jz),
    y-jx, y-jf, x-jy and z-jx, so y-jx-x-jy-y is a cycle.  With half_len 3
    the DFS first reaches x at depth 3 through s, jy, y; x's one way on
    leads back to y on the path, so x fails there.  Through s, jz, z it
    reaches x at depth 3 again and finds s jz z jx x jy y jf.  Returns the
    state and the path each gadget must yield.
    """
    cost, phi, matching = _random_state(rng)
    g = int(rng.integers(1, 4))
    n = cost.n + 4 * g
    side0 = rng.permutation(n)[:4 * g].reshape(g, 4)
    side1 = rng.permutation(n)[:4 * g].reshape(g, 4)
    in0 = np.isin(np.arange(n), side0)
    in1 = np.isin(np.arange(n), side1)
    # the random state on the other vertices; gadget rows and columns get
    # potentials 2 and 0 and cost 9 (neither eligible nor tight) by default
    phi0, phi1 = np.full(n, 2), np.zeros(n, dtype=int)
    phi0[~in0] = phi.p0
    phi1[~in1] = phi.p1
    costs = np.full((n, n), 9.0)
    costs[np.ix_(~in0, ~in1)] = cost.peek_dense()
    r0, r1 = np.nonzero(~in0)[0], np.nonzero(~in1)[0]
    pairs = [(int(r0[i]), int(r1[j])) for i, j in matching.edges()]
    planted = []
    for (s, y, x, z), cols in zip(side0, side1):
        jy, jz = sorted(cols[[0, 2]])
        jx, jf = cols[1], cols[3]
        pairs += [(y, jy), (x, jx), (z, jz)]
        for i, j in [(y, jy), (x, jx), (z, jz)]:
            costs[i, j] = 2.0  # tight at c
        for i, j in [(s, jy), (s, jz), (y, jx), (y, jf), (x, jy), (z, jx)]:
            costs[i, j] = 1.0  # eligible at c + 1
        planted.append([int(v) for v in (s, jz, z, jx, x, jy, y, jf)])
    state = (BipartiteInstance.from_matrix(costs).cost, FixedPotential(phi0, phi1),
             ArrayMatching.from_pairs(n, pairs))
    return state, planted


def _split_by_column(adj, mate1, tight):
    """Row lists ``adj`` split as the hop classes split them: (the free
    columns, the columns matched along a tight edge), each row in order.
    ``tight[i]`` says whether side-0 vertex i's matched edge is tight."""
    free = [m == UNMATCHED for m in mate1]
    inner = [m != UNMATCHED and bool(tight[m]) for m in mate1]
    return ([[j for j in row if free[j]] for row in adj],
            [[j for j in row if inner[j]] for row in adj])


def _hop_lists(elig):
    """(fin, inner) of a snapshot as per-row column lists."""
    return ([elig.fin.row(i) for i in range(elig.n)],
            [elig.inner.row(i) for i in range(elig.n)])


def test_exact_length_paths_lists_equal_numpy_reference():
    from submatch.mcm import _Eligibility, _find_exact_length_paths
    rng = np.random.default_rng(4)
    lengths = []
    for trial in range(60):
        state = _random_state(rng)
        elig = _Eligibility(*state)
        mask, tight, _, mate1 = _eligibility_arrays(*state)
        adj = [np.nonzero(row)[0].tolist() for row in mask]
        assert _hop_lists(elig) == _split_by_column(adj, mate1, tight)
        for half_len in (1, 2, 3):
            got = _find_exact_length_paths(elig, half_len)
            assert got == _reference_exact_length_paths(state, half_len)
            lengths += [len(path) for path in got]
    # the random states hold many augmenting paths of every tested length
    assert all(lengths.count(2 * h + 2) >= 10 for h in (1, 2, 3))
    # an on-path rejection makes a vertex fail from one prefix and succeed
    # from another: the search must still reach it through the second
    for trial in range(20):
        state, planted = _cycle_state(rng)
        elig = _Eligibility(*state)
        for half_len in (1, 2, 3):
            got = _find_exact_length_paths(elig, half_len)
            assert got == _reference_exact_length_paths(state, half_len)
        assert all(path in got for path in planted)


def _reference_eligibility(costs, phi0, phi1, mate0):
    """(adj, matched_tight) of a state by Python integer arithmetic, pair by
    pair: +inf is a non-edge, j is eligible for i when phi0 + phi1 == c + 1
    and (i, j) is not matched, and a matched edge is tight at c."""
    n = len(costs)
    adj, tight = [], []
    for i in range(n):
        p, m = int(phi0[i]), int(mate0[i])
        adj.append([j for j in range(n) if j != m and costs[i][j] != math.inf
                    and p + int(phi1[j]) == int(costs[i][j]) + 1])
        tight.append(m != UNMATCHED and costs[i][m] != math.inf
                     and p + int(phi1[m]) == int(costs[i][m]))
    return adj, tight


def test_eligibility_snapshot_equals_integer_reference():
    # each state is tested over float64 costs and over the exact backend's
    # int16 level matrix; the last trials put the potentials at the ends of
    # their range at T = MAX_T, phi0 in [0, T] and phi1 in [-2T, 0]
    from submatch.core import LEVEL_SENTINEL
    from submatch.mcm import _Eligibility
    from submatch.template import MAX_T, _ValidatingCost
    rng = np.random.default_rng(19)
    seen = dict(at_C=0, negative=0, inf=0, matched_eligible=0, tight=0, extreme=0)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        if trial < 40:
            C = 7
            phi0 = rng.integers(-3, C + 3, n)
            phi1 = rng.integers(-3, 4, n)
        else:
            C = T = MAX_T
            phi0 = rng.choice([0, 1, T - 1, T], n)
            phi1 = rng.choice([-2 * T, -2 * T + 1, -1, 0], n)
        costs = rng.integers(1, C + 1, (n, n)).astype(float)
        # plant eligible pairs, at level C among them, then +inf non-edges
        sums = phi0[:, None] + phi1[None, :]
        plant = (rng.random((n, n)) < 0.3) & (sums >= 2) & (sums <= C + 1)
        costs[plant] = (sums - 1)[plant]
        costs[rng.random((n, n)) < 0.15] = np.inf
        pairs = [(i, int(j)) for i, j in enumerate(rng.permutation(n)) if rng.random() < 0.5]
        for i, j in pairs:  # matched pairs tight at c, eligible at c + 1 or neither
            c = int(phi0[i] + phi1[j]) - int(rng.integers(0, 3))
            if 1 <= c <= C:
                costs[i, j] = c
        matching = ArrayMatching.from_pairs(n, pairs)
        adj, tight = _reference_eligibility(costs.tolist(), phi0, phi1, matching.mate_of_v0())
        levels = Backend.exact().prepare_levels(_ValidatingCost(MatrixCost(costs), C))
        stored = levels.peek_dense()
        assert stored.dtype == np.int16
        assert np.array_equal(stored, np.where(np.isinf(costs), LEVEL_SENTINEL, costs))
        for validated in (_ValidatingCost(MatrixCost(costs), C), levels):
            elig = _Eligibility(validated, FixedPotential(phi0, phi1), matching)
            assert _hop_lists(elig) == _split_by_column(adj, matching.mate_of_v1(), tight)
            assert elig.matched_tight.tolist() == tight
        seen["extreme"] += trial >= 40 and sum(map(len, adj)) > 0
        seen["at_C"] += sum(costs[i][j] == C for i in range(n) for j in adj[i])
        seen["negative"] += sum(min(phi0[i], phi1[j]) < 0 for i in range(n) for j in adj[i])
        seen["inf"] += int(np.isinf(costs).sum())
        seen["matched_eligible"] += sum(phi0[i] + phi1[j] == costs[i, j] + 1 for i, j in pairs)
        seen["tight"] += sum(tight)
    assert min(seen.values()) >= 10, seen


def test_exact_length_paths_serve_free_edges_like_the_greedy():
    # half_len 0 runs the same path search as every other length; it must
    # return what the separate free-edge greedy returned, in the same order
    from submatch.mcm import _Eligibility, _find_exact_length_paths
    rng = np.random.default_rng(21)
    found = 0
    for trial in range(60):
        state = _random_state(rng) if trial % 4 else _cycle_state(rng)[0]
        got = _find_exact_length_paths(_Eligibility(*state), 0)
        assert got == _reference_free_edge_paths(state)
        found += len(got)
    assert found >= 100


def test_eligibility_augment_equals_rebuild():
    from submatch.mcm import _flip_paths, _Eligibility, _find_exact_length_paths
    rng = np.random.default_rng(12)
    rounds = 0
    for trial in range(40):
        cost, phi, matching = _random_state(rng)
        mates = (matching._mate0.copy(), matching._mate1.copy())
        elig = _Eligibility(cost, phi, matching)
        m = matching
        for _ in range(10):
            for half_len in rng.permutation(3):
                paths = _find_exact_length_paths(elig, int(half_len))
                if paths:
                    break
            if not paths:
                break
            paths = paths[:int(rng.integers(1, len(paths) + 1))]  # any subset will do
            m = _flip_paths(m, paths)
            elig.augment(paths)
            fresh = _Eligibility(cost, phi, m)
            assert np.array_equal(elig.matched_tight, fresh.matched_tight)
            assert np.array_equal(elig.mate0, fresh.mate0)
            assert np.array_equal(elig.mate1, fresh.mate1)
            # the lists stay as built; filtered by each column's class now,
            # they are the rebuilt snapshot's
            fin, inner = _hop_lists(elig)
            now = (_split_by_column(fin, elig.mate1, elig.matched_tight)[0],
                   _split_by_column(inner, elig.mate1, elig.matched_tight)[1])
            assert now == _hop_lists(fresh)
            rounds += 1
        # the snapshot owns its mate arrays; the oracle's stay as they were
        assert np.array_equal(matching._mate0, mates[0])
        assert np.array_equal(matching._mate1, mates[1])
    assert rounds >= 100


def test_exact_length_paths_after_augment_equal_rebuilt_references():
    # a snapshot augmented in place keeps lists that hold columns of other
    # classes now; the search over it returns the paths of the rebuilt state
    from submatch.mcm import _flip_paths, _Eligibility, _find_exact_length_paths
    rng = np.random.default_rng(26)
    searches = found = 0
    for trial in range(80):
        state = _random_state(rng) if trial % 3 else _cycle_state(rng)[0]
        cost, phi, m = state
        elig = _Eligibility(*state)
        for _ in range(12):
            taken = None
            for half_len in (0, 1, 2, 3):
                got = _find_exact_length_paths(elig, half_len)
                now = (cost, phi, m)
                ref = (_reference_exact_length_paths(now, half_len) if half_len
                       else _reference_free_edge_paths(now))
                assert got == ref
                searches += 1
                found += len(got)
                taken = taken or got
            if not taken:
                break
            paths = taken[:int(rng.integers(1, len(taken) + 1))]
            m = _flip_paths(m, paths)
            elig.augment(paths)
    assert searches >= 1000 and found >= 1000


def test_exact_step1_builds_one_snapshot(monkeypatch):
    from submatch import mcm, template
    from submatch.generators import uniform_instance
    from submatch.pipeline import ReductionConfig, estimate_min_weight_matching
    built, started = [], []
    init, step1 = mcm._Eligibility.__init__, template.step1

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_step1(phi_in, m_in, *args):
        started.append(bool(np.any(m_in.mate_of_v0() == UNMATCHED)))
        return step1(phi_in, m_in, *args)

    monkeypatch.setattr(mcm._Eligibility, "__init__", counting_init)
    monkeypatch.setattr(template, "step1", counting_step1)
    backend = Backend.exact(seed=3)
    res = estimate_min_weight_matching(uniform_instance(200, 3),
                                       ReductionConfig(0.85, 1.0, 0.1), backend, seed=3)
    # the pinned answer (1.2291638903056794 while each forward call matched
    # one potential bucket)
    assert res.estimate == 1.245526245349203
    calls = sum(rec["op"] == "augment_eligible" for rec in backend.call_log)
    assert len(built) == sum(started) < calls
    assert backend._snapshot is None  # the last round of a Step 1 fails


def _reference_drop_matched(mask, rows, cols, mate0):
    """The dict loop the exact forward once cleared matched pairs with, kept verbatim."""
    colpos = {int(j): t for t, j in enumerate(cols)}
    for r, i in enumerate(rows):
        m = mate0[i]
        if m != UNMATCHED:
            t = colpos.get(int(m))
            if t is not None:
                mask[r, t] = False


def _reference_forward(phi, A, delta_in, mate0, costs):
    """The exact forward as one union mask: every pair of A's rows x
    columns with phi0 + phi1 == c + 1 and a potential sum of at least 2,
    cleared of matched pairs by the dict loop, and one Hopcroft-Karp on it.
    Returns (matching or None, its size, pairs cleared, rows free or
    matched outside A's columns)."""
    n = len(costs)
    R = phi.range_bound
    every = np.arange(n)
    rows, cols = (every, every) if A is None else (every[A.in0], every[A.in1])
    if len(rows) == 0 or len(cols) == 0:
        return None, 0, 0, 0
    sums = phi.p0[rows][:, None] + phi.p1[cols][None, :]
    mask = (costs[np.ix_(rows, cols)] == sums - 1.0) & (sums >= 2)
    kept = int(mask.sum())
    _reference_drop_matched(mask, rows, cols, mate0)
    outside = int(np.isin(mate0[rows], cols, invert=True).sum())
    mu, sub_mate0, _ = mcm._hopcroft_karp(mcm._mask_to_adj(mask), len(rows), len(cols))
    edges = [(int(rows[r]), int(cols[t])) for r, t in zip(*np.nonzero(mask))]
    assert mu == baseline.max_bipartite_matching(n, n, edges)[0]
    got = mcm._global_matching(n, rows, cols, sub_mate0) if mu >= delta_in / (R * R) * n else None
    return got, mu, kept - int(mask.sum()), outside


def test_exact_forward_equals_dict_loop_reference():
    # one mask over every potential bucket, matched pairs dropped inside the
    # edge test and pairs whose potential sum is below 2 not admitted
    rng = np.random.default_rng(8)
    dropped = outside = found = floored = 0
    for trial in range(100):
        n = int(rng.integers(1, 30))
        # level costs >= 1, and every other trial also zeros, which only the
        # floor keeps off the pairs of potential sum 1
        costs = rng.integers(trial % 2, 4, (n, n)).astype(float)
        costs[rng.random((n, n)) < 0.1] = np.inf
        phi = FixedPotential(rng.integers(0, 3, n), rng.integers(0, 3, n))
        mate0 = np.where(rng.random(n) < rng.uniform(0.0, 1.0), rng.permutation(n), UNMATCHED)
        for i in np.nonzero(mate0 != UNMATCHED)[0]:
            j = mate0[i]
            if rng.random() < 0.7 and phi.p0[i] + phi.p1[j] >= 2:
                costs[i, j] = phi.p0[i] + phi.p1[j] - 1  # a matched pair in its bucket
        matching = ArrayMatching.from_pairs(
            n, [(i, int(mate0[i])) for i in range(n) if mate0[i] != UNMATCHED])
        A = None
        if trial % 3:
            A = SetMembership(n, [v0(i) for i in range(n) if rng.random() < 0.8]
                              + [v1(j) for j in range(n) if rng.random() < 0.8])
        delta_in = float(rng.uniform(0.05, 9.0))  # bars up to n at R = 3
        backend = Backend.exact()
        got = backend.large_matching_forward(phi, A, delta_in, matching, MatrixCost(costs))
        ref, mu, d, o = _reference_forward(phi, A, delta_in, mate0, costs)
        # None exactly when mu < delta_in / R^2 * n
        assert (got is None) == (ref is None) == (mu < delta_in / phi.range_bound ** 2 * n)
        if got is not None:
            assert np.array_equal(got.mate_of_v0(), ref.mate_of_v0())
            assert np.array_equal(got.mate_of_v1(), ref.mate_of_v1())
            found += 1
        assert [rec["op"] for rec in backend.call_log] == ["large_matching_forward"]
        dropped += d
        outside += o
        floored += int(np.sum((phi.p0[:, None] + phi.p1[None, :] == 1) & (costs == 0)))
    # many matched pairs are cleared, many rows are free or have a mate
    # outside A, the floor keeps many sum-1 pairs out, and the forward
    # often finds a matching and often none
    assert dropped >= 100 and outside >= 500 and floored >= 100
    assert found >= 30 and 100 - found >= 20


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_forward_takes_every_potential_bucket_in_one_call(variant):
    # (0, 0) is eligible in the bucket phi = (2, 0) and (1, 1) in the bucket
    # (3, 0): a call that stopped at the first bucket holding a matching
    # would return one pair
    costs = np.full((2, 2), 9.0)
    costs[0, 0], costs[1, 1] = 1.0, 2.0
    phi = FixedPotential([2, 3], [0, 0])
    got = Backend(variant, seed=0).large_matching_forward(
        phi, None, 0.1, EmptyMatching(2), MatrixCost(costs))
    assert got is not None
    assert got.mate_of_v0().tolist() == [0, 1]


# -- sampled backend against its re-reading, rng.choice originals ------------------

class _ReadLog(MatrixCost):
    """Matrix cost logging the matched-edge tightness reads of a sampled
    augmentation over ``matching``.  ``singles`` holds its one-element pair
    reads: the reference reads its probes 16 or more at a time, so those
    are its tightness reads.  ``on_matching`` holds its reads of an edge
    of ``matching``: the backend never reads a probe (i, j) with j the mate
    of i, so those are its tightness reads, and ``probes`` the others."""

    def __init__(self, matrix, matching):
        super().__init__(matrix)
        self.mate0 = matching.mate_of_v0()
        self.singles = []
        self.on_matching = []
        self.probes = []

    def _pairs(self, is_, js, counted):
        if len(is_) == 1:
            self.singles.append((int(is_[0]), int(js[0])))
        for i, j in zip(is_.tolist(), js.tolist()):
            (self.on_matching if self.mate0[i] == j else self.probes).append((i, j))
        return super()._pairs(is_, js, counted)


def _pinned_rng(backend, seed):
    """Hand every call of ``backend`` one generator the test can inspect."""
    rng = np.random.default_rng(seed)
    backend._rng = lambda: rng
    return rng


def _reference_sampled_augment(self, phi, m_in, k, bar, cost, before):
    """The sampled augmentation that re-read matched edges, kept verbatim."""
    from submatch.mcm import _flip_paths
    n = cost.n
    rng = self._rng()
    budget = self.query_budget(n)
    phi0 = phi.eval_many(v0(np.arange(n, dtype=np.int64)))
    phi1 = phi.eval_many(v1(np.arange(n, dtype=np.int64)))
    mate0 = m_in.mate_of_v0()
    mate1 = m_in.mate_of_v1()
    free0_all = np.nonzero(mate0 == UNMATCHED)[0]
    probes = max(16, int(round(n ** (1.0 - min(self.epsilon, 0.2)))))

    def tight_nm(i, js):
        vals = cost.pairs(np.full(len(js), i), js)
        return (phi0[i] + phi1[js] == vals + 1) & (mate0[i] != js)

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
            path = _reference_sample_one_path(
                self, int(start), half_len, used0, used1, mate1, phi0, phi1,
                mate0, cost, rng, probes, tight_nm)
            if path is not None:
                paths.append(path)
                for t, x in enumerate(path):
                    (used0 if t % 2 == 0 else used1)[x] = True
        if len(paths) >= bar and len(paths) >= 1:
            return _flip_paths(m_in, paths)
    return None


def _reference_sample_one_path(self, start, half_len, used0, used1, mate1,
                               phi0, phi1, mate0, cost, rng, probes, tight_nm):
    seq = [start]
    onpath0 = {start}
    onpath1 = set()
    i = start
    for hop in range(half_len + 1):
        js = rng.integers(0, cost.n, size=probes)
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
            val = cost.pairs([i2], [j])[0]
            if phi0[i2] + phi1[j] != val:
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


def _reference_sampled_greedy(self, cost, limit, subset):
    """The rng.choice version of the sampled approx_match and large_match
    greedy, kept verbatim less the length-3 augmentation pass that
    followed it."""
    n = cost.n
    rng = self._rng()
    if subset is None:
        rows = np.arange(n, dtype=np.int64)
        cols = np.arange(n, dtype=np.int64)
    else:
        rows, cols = subset
    budget = self.query_budget(n)
    before = cost.counter.count
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)

    def remaining():
        return budget - (cost.counter.count - before)

    stall = 0
    while remaining() > len(rows) and stall < 10:
        free_r = rows[mate0[rows] == -1]
        if len(free_r) == 0:
            break
        batch = min(len(free_r) * 2, max(remaining() // 2, 1), 400_000)
        is_ = rng.choice(free_r, size=batch)
        js = rng.choice(cols, size=batch)
        hits = cost.pairs(is_, js) <= limit
        progressed = False
        for i, j in zip(is_[hits], js[hits]):
            if mate0[i] == -1 and mate1[j] == -1:
                mate0[i] = j
                mate1[j] = i
                progressed = True
        stall = 0 if progressed else stall + 1
    size = int(np.count_nonzero(mate0 >= 0))
    return size, mate0, mate1


def _reference_sampled_greedy_subset(self, cost, rows, cols, target, base_mate0,
                                     sub_budget):
    """The rng.choice version of the large_matching_forward bucket greedy,
    kept verbatim."""
    n = cost.n
    rng = self._rng()
    before = cost.counter.count
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)
    stall = 0
    while cost.counter.count - before < sub_budget - len(rows) and stall < 8:
        free_r = rows[mate0[rows] == -1]
        if len(free_r) == 0:
            break
        room = sub_budget - (cost.counter.count - before)
        batch = min(len(free_r) * 2, max(room // 2, 1), 400_000)
        is_ = rng.choice(free_r, size=batch)
        js = rng.choice(cols, size=batch)
        vals = cost.pairs(is_, js)
        hits = (vals == target) & (base_mate0[is_] != js)
        progressed = False
        for i, j in zip(is_[hits], js[hits]):
            if mate0[i] == -1 and mate1[j] == -1:
                mate0[i] = j
                mate1[j] = i
                progressed = True
        stall = 0 if progressed else stall + 1
    return int(np.count_nonzero(mate0 >= 0)), mate0, mate1


def _augment_state(seed):
    """A partial matching whose free vertices are joined only through
    matched ones, with tight and non-tight matched edges mixed."""
    rng = np.random.default_rng([6, seed])
    n = int(rng.integers(12, 40))
    costs = rng.integers(1, 4, (n, n)).astype(float)
    p0, p1 = rng.integers(1, 4, n), rng.integers(0, 2, n)
    perm = rng.permutation(n)
    keep = rng.random(n) < rng.uniform(0.4, 0.9)
    pairs = [(i, int(perm[i])) for i in range(n) if keep[i]]
    for i, j in pairs:
        if rng.random() < 0.6:
            costs[i, j] = p0[i] + p1[j]  # tight matched edge

    def not_eligible(rows, cols):
        costs[np.ix_(rows, cols)] = p0[rows][:, None] + p1[cols][None, :] + 1

    f0, f1 = np.nonzero(~keep)[0], np.setdiff1d(np.arange(n), perm[keep])
    not_eligible(f0, f1)
    if seed % 2:
        # free rows reach only the mates of half the matched rows and only
        # the other half reach free columns: no path is shorter than 5
        a, b = np.nonzero(keep)[0][::2], np.nonzero(keep)[0][1::2]
        not_eligible(f0, perm[b])
        not_eligible(a, f1)
    k = int(rng.choice([3, 5, 7]))
    gamma = int(rng.integers(1, 4)) * k / n  # bar of 1 to 3 paths
    return costs, FixedPotential(p0, p1), ArrayMatching.from_pairs(n, pairs), k, gamma


def _assert_valid_augmentation(out, phi, m, costs, k, bar):
    """``out`` flips node-disjoint eligible augmenting paths of one exact
    length <= k + 1 into ``m``, at least ``bar`` of them: each runs from a
    free side-0 vertex to a free side-1 vertex and alternates eligible
    non-matched edges (phi0 + phi1 == c + 1) with tight matched ones."""
    m0, m1 = m.mate_of_v0(), m.mate_of_v1()
    paths = out.augmenting_paths
    assert len(paths) >= bar and len(paths) >= 1
    assert len({len(path) for path in paths}) == 1 and len(paths[0]) <= k + 1
    for side in (0, 1):
        seen = [x for path in paths for x in path[side::2]]
        assert len(seen) == len(set(seen))  # node-disjoint
    for path in paths:
        assert len(path) % 2 == 0
        assert m0[path[0]] == UNMATCHED and m1[path[-1]] == UNMATCHED
        for t in range(0, len(path), 2):
            i, j = path[t], path[t + 1]
            assert m0[i] != j and phi.p0[i] + phi.p1[j] == costs[i, j] + 1
            assert out.mate_of_v0()[i] == j and out.mate_of_v1()[j] == i
            if t + 2 < len(path):
                assert m1[j] == path[t + 2]
                assert phi.p0[path[t + 2]] + phi.p1[j] == costs[path[t + 2], j]


def test_sampled_augment_paths_are_valid_and_memo_reads_once():
    lengths = []
    nontight_rereads = low_sum_reference_reads = memo_hits = 0
    for seed in range(24):
        costs, phi, m, k, gamma = _augment_state(seed)
        n = len(costs)
        b = Backend.sampled(seed=seed, epsilon=0.1)
        cost = _ReadLog(costs, m)
        got = b.augment_eligible(phi, m, k, gamma, cost)
        rb = Backend.sampled(seed=seed, epsilon=0.1)
        _pinned_rng(rb, seed)
        ref_cost = _ReadLog(costs, m)
        ref = _reference_sampled_augment(rb, phi, m, k, gamma * n / k, ref_cost, 0)

        # the grouped search and the one-start-at-a-time reference draw
        # different streams; both must return valid augmentations
        for out in (got, ref):
            if out is not None:
                _assert_valid_augmentation(out, phi, m, costs, k, gamma * n / k)
        if got is not None:
            lengths += [len(path) for path in got.augmenting_paths]
        # each matched edge's tightness is read at most once per call
        rec = b.call_log[-1]
        assert len(cost.on_matching) == len(set(cost.on_matching))
        assert rec["queries"] == cost.counter.count
        memo_hits += rec["memo_hits"]
        for (i, j) in set(ref_cost.singles):
            if phi.p0[i] + phi.p1[j] != costs[i, j]:
                nontight_rereads += ref_cost.singles.count((i, j)) - 1
        # costs are levels >= 1, so a probe whose potential sum is at most 1
        # is never eligible and never read; the reference reads them
        assert all(phi.p0[i] + phi.p1[j] >= 2 for i, j in cost.probes)
        low_sum_reference_reads += sum(phi.p0[i] + phi.p1[j] <= 1 for i, j in ref_cost.probes)
    # paths through one and two matched edges are checked, and the memo
    # is hit repeatedly on matched edges that are not tight
    assert lengths.count(4) >= 10 and lengths.count(6) >= 5
    assert nontight_rereads >= 10 and memo_hits >= 10
    assert low_sum_reference_reads >= 1000


def test_sampled_augment_in_groups_of_one_is_the_sequential_reference(monkeypatch):
    # a group of one start walks alone, so the grouped search draws, reads
    # and picks as the one-start-at-a-time reference does, less its
    # repeated tightness reads and its reads of probes it could not accept
    monkeypatch.setattr(mcm, "_PATH_GROUP", 1)
    for seed in range(24):
        costs, phi, m, k, gamma = _augment_state(seed)
        n = len(costs)
        b = Backend.sampled(seed=seed, epsilon=0.1)
        rng = _pinned_rng(b, seed)
        cost = _ReadLog(costs, m)
        got = b.augment_eligible(phi, m, k, gamma, cost)
        rb = Backend.sampled(seed=seed, epsilon=0.1)
        ref_rng = _pinned_rng(rb, seed)
        ref_cost = _ReadLog(costs, m)
        ref = _reference_sampled_augment(rb, phi, m, k, gamma * n / k, ref_cost, 0)

        assert (got is None) == (ref is None)
        if got is not None:
            assert got.augmenting_paths == ref.augmenting_paths
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rec = b.call_log[-1]
        repeats = len(ref_cost.singles) - len(set(ref_cost.singles))
        assert cost.on_matching == list(dict.fromkeys(ref_cost.singles))
        assert rec["memo_hits"] == repeats
        assert rec["queries"] + rec["skipped"] == ref_cost.counter.count - repeats


def test_sampled_augment_stays_within_a_budget_that_binds():
    # at n = 4..8 the budget 4 n^1.9 ln n is 78-433 reads, a few group hops
    # of 16 probes per start, so the search must stop between hops; free
    # rows reach free columns only through matched edges
    binds = 0
    for seed in range(60):
        rng = np.random.default_rng([8, seed])
        n = int(rng.integers(4, 9))
        costs = rng.integers(1, 3, (n, n)).astype(float)
        p0, p1 = rng.integers(1, 3, n), rng.integers(0, 2, n)
        perm = rng.permutation(n)
        pairs = [(i, int(perm[i])) for i in range(n) if rng.random() < 0.5]
        for i, j in pairs:
            costs[i, j] = p0[i] + p1[j] - (rng.random() < 0.3)  # tight or not
        costs[np.ix_(np.setdiff1d(np.arange(n), [i for i, _ in pairs]),
                     np.setdiff1d(np.arange(n), [j for _, j in pairs]))] = 9.0
        m, phi = ArrayMatching.from_pairs(n, pairs), FixedPotential(p0, p1)
        outs = []
        for unbounded in (False, True):
            b = Backend.sampled(seed=seed, epsilon=0.1)
            if unbounded:
                b.query_budget = lambda n: 10 ** 9
            got = b.augment_eligible(phi, m, 7, 7 / n, MatrixCost(costs))  # bar 1
            rec = b.call_log[-1]
            assert rec["queries"] <= rec["budget"]
            if got is not None:
                _assert_valid_augmentation(got, phi, m, costs, 7, 1)
            outs.append((got and got.augmenting_paths, rec["queries"]))
        binds += outs[0] != outs[1]
    assert binds >= 3


def _greedy(b, cost, limit, subset):
    """The probe greedy as the sampled approx_match (``subset`` None) and
    large_match (``subset`` their member rows and columns) run it."""
    every = np.arange(cost.n, dtype=np.int64)
    rows, cols = (every, every) if subset is None else subset
    return b._probe_greedy(cost, rows, cols, lambda is_, js: cost.pairs(is_, js) <= limit,
                           b.query_budget(cost.n), 10)


def _bucket_greedy(b, cost, rows, cols, target, base_mate0, sub_budget):
    """The probe greedy with the sampled large_matching_forward's edge test
    on one potential bucket: phi0 - 1 = ``target`` on every row, phi1 = 0."""
    n = cost.n
    test = mcm._forward_test(np.full(n, target), np.zeros(n), base_mate0)
    return b._probe_greedy(cost, rows, cols, lambda is_, js: test(cost.pairs(is_, js), is_, js),
                           sub_budget, 8)


def test_sampled_greedy_direct_draws_equal_choice_reference():
    for seed in range(24):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(2, 60))
        mask = rng.random((n, n)) < rng.uniform(0.02, 0.6)
        subset = None
        if seed % 3:
            subset = (rng.permutation(n)[:int(rng.integers(1, n + 1))],
                      rng.permutation(n)[:int(rng.integers(1, n + 1))])
        outs, reads, skipped = [], [], []
        for greedy in (_greedy, _reference_sampled_greedy):
            b = Backend.sampled(seed=seed, epsilon=0.1)
            r = _pinned_rng(b, seed)
            cost = mask_cost(mask)
            size, m0, m1 = greedy(b, cost, 0.0, subset)
            outs.append((size, m0.tolist(), m1.tolist(), r.bit_generator.state))
            reads.append(cost.counter.count)
            skipped.append(b._skipped)
        assert outs[0] == outs[1]
        # probes of columns matched before their batch are skipped, not read
        assert reads[0] + skipped[0] == reads[1]


def test_sampled_greedy_subset_direct_draws_equal_choice_reference():
    for seed in range(24):
        rng = np.random.default_rng([9, seed])
        n = int(rng.integers(2, 60))
        costs = rng.integers(0, 4, (n, n)).astype(float)
        rows = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        base_mate0 = np.where(rng.random(n) < 0.5, rng.permutation(n), UNMATCHED)
        sub_budget = int(rng.integers(n, 4 * n * n))
        outs, reads, skipped = [], [], []
        for greedy in (_bucket_greedy, _reference_sampled_greedy_subset):
            b = Backend.sampled(seed=seed, epsilon=0.1)
            r = _pinned_rng(b, seed)
            cost = MatrixCost(costs)
            size, m0, m1 = greedy(b, cost, rows, cols, 2.0, base_mate0, sub_budget)
            outs.append((size, m0.tolist(), m1.tolist(), r.bit_generator.state))
            reads.append(cost.counter.count)
            skipped.append(b._skipped)
        if seed in (6, 8, 10):
            # the budget stops the reference, and skipping reads lets the
            # backend take more batches: check the matching, not the draws
            assert reads[1] >= sub_budget - len(rows)
            size, m0, m1 = outs[0][:3]
            matched = [i for i in range(n) if m0[i] != UNMATCHED]
            assert size == len(matched) >= 1
            for i in matched:
                j = m0[i]
                assert m1[j] == i and costs[i, j] == 2.0 and base_mate0[i] != j
                assert i in rows and j in cols
            assert sum(x != UNMATCHED for x in m1) == size
            assert reads[0] <= sub_budget
            continue
        assert outs[0] == outs[1]
        assert reads[0] + skipped[0] == reads[1]


class _CountingRng:
    """A generator that counts the integers drawn through it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = 0

    def integers(self, low, high, size):
        self.drawn += size
        return self.rng.integers(low, high, size=size)


class _PairLog(MatrixCost):
    """Matrix cost logging every pair it reads."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.read = []

    def _pairs(self, is_, js, counted):
        self.read += zip(is_.tolist(), js.tolist())
        return super()._pairs(is_, js, counted)


def _sampled_forward_reads(cost, phi, matching, seed):
    """One sampled forward call: (its record, the probes it drew, the
    side-0 mates it returned).  The probe greedy draws each probe's row and
    column with one ``integers`` call each."""
    b = Backend.sampled(seed=seed)
    rng = _CountingRng(seed)
    b._rng = lambda: rng
    got = b.large_matching_forward(phi, None, 0.01, matching, cost)
    return b.call_log[-1], rng.drawn // 2, got and got.mate_of_v0().tolist()


def test_sampled_forward_reads_only_admitted_probes():
    # the same levels 1..3 as a LevelCost (every entry a level by
    # construction) and as a raw matrix (checked only where read)
    low = 0
    for seed in range(12):
        rng = np.random.default_rng([29, seed])
        n = int(rng.integers(8, 40))
        base = rng.random((n, n))
        levels = np.ceil(2.0 * base) + 1.0  # LevelCost's map at gamma = w = 1
        phi = FixedPotential(rng.integers(0, 4, n), -rng.integers(0, 2, n))
        sums = phi.p0[:, None] + phi.p1[None, :]
        matching = ArrayMatching.from_pairs(
            n, [(i, int(j)) for i, j in enumerate(rng.permutation(n)) if rng.random() < 0.3])
        level_log, raw_log = _PairLog(base), _PairLog(levels)
        at_level = _sampled_forward_reads(LevelCost(level_log, 1.0, 1.0, 3), phi, matching, seed)
        raw = _sampled_forward_reads(raw_log, phi, matching, seed)
        for (rec, drawn, _), log in ((at_level, level_log), (raw, raw_log)):
            assert rec["queries"] == len(log.read)
            assert rec["queries"] + rec["skipped"] == drawn
        # a LevelCost's probe of potential sum below 2 is drawn, never read;
        # the raw matrix reads it, and both calls draw and pick the same
        assert all(sums[i, j] >= 2 for i, j in level_log.read)
        raw_low = sum(sums[i, j] < 2 for i, j in raw_log.read)
        assert raw[1:] == at_level[1:]
        assert raw[0]["queries"] - at_level[0]["queries"] == raw_low
        low += raw_low
    assert low >= 1000
    # with no edge no column is matched, so the raw matrix reads every probe
    rec, drawn, got = _sampled_forward_reads(
        _PairLog(np.full((20, 20), 9.0)), FixedPotential(np.arange(20) % 4, np.zeros(20)),
        EmptyMatching(20), 0)
    assert got is None and rec["skipped"] == 0 and rec["queries"] == drawn > 0


def test_sampled_augment_never_walks_back_onto_its_path():
    # the only augmenting path is 0 -1- 1 -2- 2 -3- 3 -0- (free side-1 0),
    # and from side-0 vertex 2 the eligible edge to side-1 vertex 1 leads
    # back onto the path: a search that took it would revisit vertex 1.
    # Pairs 5..7 are matched, never tight, and leave the budget room for
    # the length-7 class.  Costs are levels >= 1, as the template's are
    costs = np.full((8, 8), 6.0)   # not eligible at phi0 + phi1 = 2
    for i, j in [(0, 1), (1, 2), (2, 1), (2, 3), (3, 0)]:
        costs[i, j] = 1.0          # eligible: phi0 + phi1 == c + 1
    for i in (1, 2, 3):
        costs[i, i] = 2.0          # tight matched edges
    m = ArrayMatching.from_pairs(8, [(i, i) for i in (1, 2, 3, 5, 6, 7)])
    phi = FixedPotential(np.full(8, 2), np.zeros(8))
    found = 0
    for seed in range(20):
        b = Backend.sampled(seed=seed, epsilon=0.1)
        got = b.augment_eligible(phi, m, 7, 0.5, MatrixCost(costs))  # bar 4/7
        rb = Backend.sampled(seed=seed, epsilon=0.1)
        ref = _reference_sampled_augment(rb, phi, m, 7, 4 / 7, MatrixCost(costs), 0)
        for out in (got, ref):
            if out is not None:
                assert out.augmenting_paths == [[0, 1, 1, 2, 2, 3, 3, 0]]
        found += got is not None
    assert found >= 8
