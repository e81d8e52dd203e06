import math

import numpy as np
import pytest

from submatch import baseline
from submatch.core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, EmptyMatching, MatrixCost,
    SetMembership, ZeroPotential, v0, v1,
)
from submatch.mcm import Backend, backend_query_budget, delta_out


class FixedPotential(ZeroPotential):
    """Potential given by explicit per-side arrays (test helper)."""

    def __init__(self, phi0, phi1, range_bound=None):
        self.p0 = np.asarray(phi0, dtype=np.int64)
        self.p1 = np.asarray(phi1, dtype=np.int64)
        values = len(set(self.p0) | set(self.p1))
        super().__init__(len(self.p0), range_bound or max(values, 1))

    def _eval_missing(self, us):
        out = np.empty(len(us), dtype=np.int64)
        for t, u in enumerate(us):
            out[t] = self.p1[u >> 1] if u & 1 else self.p0[u >> 1]
        return out


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
    n = 10
    inst = BipartiteInstance.from_matrix(np.zeros((n, n)))
    phi = FixedPotential(np.ones(n), np.zeros(n), range_bound=3)
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
    phi0, phi1 = phi.on_v0(), phi.on_v1()
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


def test_exact_length_paths_lists_equal_numpy_reference():
    from submatch.mcm import _Eligibility, _find_exact_length_paths
    rng = np.random.default_rng(4)
    lengths = []
    for trial in range(60):
        state = _random_state(rng)
        elig = _Eligibility(*state)
        mask = _eligibility_arrays(*state)[0]
        assert elig.adj == [np.nonzero(row)[0].tolist() for row in mask]
        for half_len in (1, 2, 3):
            got = _find_exact_length_paths(elig, half_len)
            assert got == _reference_exact_length_paths(state, half_len)
            lengths += [len(path) for path in got]
    # the random states hold many augmenting paths of every tested length
    assert all(lengths.count(2 * h + 2) >= 10 for h in (1, 2, 3))
    # an on-path rejection makes a vertex fail from one prefix and succeed
    # from another: the dead-end memo must not record such a failure
    for trial in range(20):
        state, planted = _cycle_state(rng)
        elig = _Eligibility(*state)
        for half_len in (1, 2, 3):
            got = _find_exact_length_paths(elig, half_len)
            assert got == _reference_exact_length_paths(state, half_len)
        assert all(path in got for path in planted)


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
    from submatch.mcm import _augment_overlay, _Eligibility, _find_exact_length_paths
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
            m = _augment_overlay(m, paths)
            elig.augment(paths)
            fresh = _Eligibility(cost, phi, m)
            assert np.array_equal(elig.matched_tight, fresh.matched_tight)
            assert np.array_equal(elig.mate0, fresh.mate0)
            assert np.array_equal(elig.mate1, fresh.mate1)
            assert elig.adj == fresh.adj
            rounds += 1
        # the snapshot owns its mate arrays; the oracle's stay as they were
        assert np.array_equal(matching._mate0, mates[0])
        assert np.array_equal(matching._mate1, mates[1])
    assert rounds >= 100


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
    assert res.estimate == 5.0427474186475445  # the pinned answer
    calls = sum(rec["op"] == "augment_eligible" for rec in backend.call_log)
    assert len(built) == sum(started) < calls
    assert backend._snapshot is None  # the last round of a Step 1 fails


def _reference_drop_matched(mask, rows, cols, mate0):
    """The dict loop _drop_matched replaced, kept verbatim."""
    colpos = {int(j): t for t, j in enumerate(cols)}
    for r, i in enumerate(rows):
        m = mate0[i]
        if m != UNMATCHED:
            t = colpos.get(int(m))
            if t is not None:
                mask[r, t] = False


def test_drop_matched_equals_dict_loop_reference():
    from submatch.mcm import _drop_matched
    rng = np.random.default_rng(8)
    dropped = outside = 0
    for _ in range(60):
        n = int(rng.integers(1, 30))
        rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        cols = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        mate0 = np.where(rng.random(n) < rng.uniform(0.0, 1.0), rng.permutation(n), UNMATCHED)
        mask = rng.random((len(rows), len(cols))) < 0.8
        got, ref = mask.copy(), mask.copy()
        _drop_matched(got, rows, cols, mate0)
        _reference_drop_matched(ref, rows, cols, mate0)
        assert np.array_equal(got, ref)
        dropped += int((mask & ~ref).sum())
        outside += int(np.isin(mate0[rows], cols, invert=True).sum())
    # many matched pairs are cleared, and many rows are free or have a mate outside cols
    assert dropped >= 50 and outside >= 50


# -- sampled backend against its re-reading, rng.choice originals ------------------

class _SingleReadLog(MatrixCost):
    """Matrix cost logging its one-element pair reads; in the sampled
    augmentation those are exactly the matched-edge tightness reads."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.singles = []

    def _pairs(self, is_, js, counted):
        if len(is_) == 1:
            self.singles.append((int(is_[0]), int(js[0])))
        return super()._pairs(is_, js, counted)


def _pinned_rng(backend, seed):
    """Hand every call of ``backend`` one generator the test can inspect."""
    rng = np.random.default_rng(seed)
    backend._rng = lambda: rng
    return rng


def _reference_sampled_augment(self, phi, m_in, k, bar, cost, before):
    """The sampled augmentation that re-read matched edges, kept verbatim."""
    from submatch.mcm import _augment_overlay
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
            return _augment_overlay(m_in, paths)
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
    """The rng.choice version of Backend._sampled_greedy, kept verbatim."""
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
    free_r = rows[mate0[rows] == -1]
    trials = 0
    while remaining() > 4 and trials < 2 * len(free_r):
        trials += 1
        if len(free_r) == 0:
            break
        i = int(rng.choice(free_r))
        j = int(rng.choice(cols))
        if not cost.pairs([i], [j])[0] <= limit:
            continue
        if mate1[j] == -1:
            if mate0[i] == -1:
                mate0[i] = j
                mate1[j] = i
                free_r = rows[mate0[rows] == -1]
            continue
        i2 = int(mate1[j])
        j2 = int(rng.choice(cols))
        if mate1[j2] == -1 and cost.pairs([i2], [j2])[0] <= limit:
            mate0[i] = j
            mate1[j] = i
            mate0[i2] = j2
            mate1[j2] = i2
            free_r = rows[mate0[rows] == -1]
    size = int(np.count_nonzero(mate0 >= 0))
    return size, mate0, mate1


def _reference_sampled_greedy_subset(self, cost, rows, cols, target, base_mate0,
                                     sub_budget):
    """The rng.choice version of Backend._sampled_greedy_subset, kept verbatim."""
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


def test_sampled_augment_memo_equals_rereading_reference():
    lengths = []
    nontight_rereads = 0
    for seed in range(24):
        costs, phi, m, k, gamma = _augment_state(seed)
        n = len(costs)
        b = Backend.sampled(seed=seed, epsilon=0.1)
        rng = _pinned_rng(b, seed)
        cost = _SingleReadLog(costs)
        got = b.augment_eligible(phi, m, k, gamma, cost)
        rb = Backend.sampled(seed=seed, epsilon=0.1)
        ref_rng = _pinned_rng(rb, seed)
        ref_cost = _SingleReadLog(costs)
        ref = _reference_sampled_augment(rb, phi, m, k, gamma * n / k, ref_cost, 0)

        assert (got is None) == (ref is None)
        if got is not None:
            assert got.augmenting_paths == ref.augmenting_paths
            assert got.mate_of_v0().tolist() == ref.mate_of_v0().tolist()
            assert got.mate_of_v1().tolist() == ref.mate_of_v1().tolist()
            lengths += [len(path) for path in got.augmenting_paths]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # each matched edge is read once, at its first lookup; the memo
        # serves exactly the reference's repeated lookups
        rec = b.call_log[-1]
        repeats = len(ref_cost.singles) - len(set(ref_cost.singles))
        assert cost.singles == list(dict.fromkeys(ref_cost.singles))
        assert rec["memo_hits"] == repeats
        assert rec["queries"] == cost.counter.count == ref_cost.counter.count - repeats
        assert rec["queries"] <= ref_cost.counter.count
        for (i, j) in set(ref_cost.singles):
            if phi.p0[i] + phi.p1[j] != costs[i, j]:
                nontight_rereads += ref_cost.singles.count((i, j)) - 1
    # paths through one and two matched edges are compared, and the memo
    # is hit repeatedly on matched edges that are not tight
    assert lengths.count(4) >= 10 and lengths.count(6) >= 5
    assert nontight_rereads >= 10


def test_sampled_greedy_direct_draws_equal_choice_reference():
    for seed in range(24):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(2, 60))
        mask = rng.random((n, n)) < rng.uniform(0.02, 0.6)
        subset = None
        if seed % 3:
            subset = (rng.permutation(n)[:int(rng.integers(1, n + 1))],
                      rng.permutation(n)[:int(rng.integers(1, n + 1))])
        outs = []
        for greedy in (Backend._sampled_greedy, _reference_sampled_greedy):
            b = Backend.sampled(seed=seed, epsilon=0.1)
            r = _pinned_rng(b, seed)
            cost = mask_cost(mask)
            size, m0, m1 = greedy(b, cost, 0.0, subset)
            outs.append((size, m0.tolist(), m1.tolist(), cost.counter.count,
                         r.bit_generator.state))
        assert outs[0] == outs[1]


def test_sampled_greedy_subset_direct_draws_equal_choice_reference():
    for seed in range(24):
        rng = np.random.default_rng([9, seed])
        n = int(rng.integers(2, 60))
        costs = rng.integers(0, 4, (n, n)).astype(float)
        rows = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        base_mate0 = np.where(rng.random(n) < 0.5, rng.permutation(n), UNMATCHED)
        sub_budget = int(rng.integers(n, 4 * n * n))
        outs = []
        for greedy in (Backend._sampled_greedy_subset, _reference_sampled_greedy_subset):
            b = Backend.sampled(seed=seed, epsilon=0.1)
            r = _pinned_rng(b, seed)
            cost = MatrixCost(costs)
            size, m0, m1 = greedy(b, cost, rows, cols, 2.0, base_mate0, sub_budget)
            outs.append((size, m0.tolist(), m1.tolist(), cost.counter.count,
                         r.bit_generator.state))
        assert outs[0] == outs[1]
