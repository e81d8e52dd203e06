import heapq
import itertools

import numpy as np
import pytest

from submatch import baseline, pipeline
from submatch.core import BipartiteInstance, MatrixCost, v0, v1


def brute_force_k_matching(costs, k):
    n = costs.shape[0]
    best = np.inf
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(n), k):
            best = min(best, sum(costs[i, j] for i, j in zip(rows, cols)))
    return 0.0 if k == 0 else best


def test_k_matching_trivial_examples():
    diag_cheap = np.full((4, 4), 10.0)
    np.fill_diagonal(diag_cheap, 1.0)
    assert baseline.exact_min_weight_k_matching(diag_cheap, 4).value == pytest.approx(4.0)
    m = np.array([[1.0, 2, 3], [2, 1, 3], [3, 3, 1]])
    assert baseline.exact_min_weight_k_matching(m, 3).value == pytest.approx(3.0)
    res = baseline.exact_min_weight_k_matching(m, 0)
    assert res.value == 0.0 and res.witness == []


def test_k_matching_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        costs = rng.random((n, n))
        sweep = baseline.min_weight_matching_sweep(costs)
        for k in range(n + 1):
            assert sweep[k] == pytest.approx(brute_force_k_matching(costs, k), abs=1e-7)


def test_witness_is_valid_and_certified():
    rng = np.random.default_rng(2)
    costs = rng.random((9, 9))
    res = baseline.exact_min_weight_k_matching(costs, 6)
    assert len(res.witness) == 6
    rows = [i for i, _ in res.witness]
    cols = [j for _, j in res.witness]
    assert len(set(rows)) == 6 and len(set(cols)) == 6
    assert res.value == pytest.approx(sum(costs[i, j] for i, j in res.witness), abs=1e-7)
    u, v = res.potentials
    red = costs - u[:, None] / baseline.COST_SCALE - v[None, :] / baseline.COST_SCALE
    assert red.min() > -1e-7  # dual feasibility
    for i, j in res.witness:
        assert abs(red[i, j]) < 1e-7  # complementary slackness


def test_k_exceeding_max_matching_raises():
    costs = np.array([[1.0, np.inf], [np.inf, np.inf]])
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(costs, 2)
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(np.ones((3, 3)), 4)


def test_instance_cap():
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(np.ones((2001, 2001)), 1)


def test_sweep_is_monotone_in_k():
    rng = np.random.default_rng(3)
    costs = rng.random((12, 12))
    sweep = baseline.min_weight_matching_sweep(costs)
    assert np.all(np.diff(sweep) >= -1e-12)


def _reference_ssp_assignment(int_costs, k):
    """The heap-based successive shortest paths that ``_ssp_assignment``
    replaced: one heap entry per relaxed edge, run until the heap empties."""
    n = int_costs.shape[0]
    BIG = baseline.BIG
    mate0 = np.full(n, -1, dtype=np.int64)
    mate1 = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    sweep = [0]
    for _ in range(k):
        dist0 = np.where(mate0 == -1, 0, BIG)
        dist1 = np.full(n, BIG, dtype=np.int64)
        par1 = np.full(n, -1, dtype=np.int64)
        heap = [(0, 0, int(i)) for i in np.nonzero(mate0 == -1)[0]]
        heapq.heapify(heap)
        done0 = np.zeros(n, dtype=bool)
        done1 = np.zeros(n, dtype=bool)
        while heap:
            d, s, x = heapq.heappop(heap)
            if s == 0:
                if done0[x] or d > dist0[x]:
                    continue
                done0[x] = True
                row = int_costs[x]
                ok = row >= 0
                if mate0[x] != -1:
                    ok = ok.copy()
                    ok[mate0[x]] = False
                cols = np.nonzero(ok)[0]
                rc = d + row[cols] - u[x] - v[cols]
                upd = rc < dist1[cols]
                for j, nd in zip(cols[upd], rc[upd]):
                    dist1[j] = nd
                    par1[j] = x
                    heapq.heappush(heap, (int(nd), 1, int(j)))
            else:
                if done1[x] or d > dist1[x]:
                    continue
                done1[x] = True
                if mate1[x] == -1:
                    continue
                i = int(mate1[x])
                if d < dist0[i]:
                    dist0[i] = d
                    heapq.heappush(heap, (int(d), 0, i))
        free_cols = np.nonzero((mate1 == -1) & (dist1 < BIG))[0]
        if len(free_cols) == 0:
            raise ValueError("requested cardinality exceeds maximum matching size")
        target = int(free_cols[np.argmin(dist1[free_cols])])
        d_star = int(dist1[target])
        u += d_star - np.minimum(dist0, d_star)
        v -= d_star - np.minimum(dist1, d_star)
        j = target
        while j != -1:
            i = int(par1[j])
            nxt = int(mate0[i])
            mate0[i] = j
            mate1[j] = i
            j = nxt
        matched_rows = np.nonzero(mate0 >= 0)[0]
        sweep.append(int(np.sum(int_costs[matched_rows, mate0[matched_rows]])))
    return np.array(sweep, dtype=np.int64), mate0, mate1, u, v


def _solver_cases():
    """(int costs, tie-free?) on random, tied and +inf-masked matrices."""
    rng = np.random.default_rng(8)
    for n in range(1, 41):
        uniform = rng.random((n, n))
        yield baseline._scale_costs(uniform), True
        yield baseline._scale_costs(rng.integers(1, 3, (n, n)).astype(float)), False
        yield baseline._scale_costs(np.ones((n, n))), False
        masked = uniform.copy()
        masked[rng.random((n, n)) < 0.6] = np.inf
        yield baseline._scale_costs(masked), False


def test_dense_solver_equals_heap_reference():
    for int_costs, tie_free in _solver_cases():
        size, _, _ = baseline.max_bipartite_matching(
            *int_costs.shape, zip(*np.nonzero(int_costs >= 0)))
        sweep, mate0, mate1, u, v = baseline._ssp_assignment(int_costs, size)
        ref = _reference_ssp_assignment(int_costs, size)
        assert np.array_equal(sweep, ref[0])
        baseline._verify_certificate(int_costs, mate0, u, v)
        rows = np.nonzero(mate0 >= 0)[0]
        assert np.array_equal(mate1[mate0[rows]], rows)
        if tie_free:
            assert np.array_equal(mate0, ref[1])
            assert np.array_equal(u, ref[3]) and np.array_equal(v, ref[4])
        if size < len(int_costs):
            for solver in (baseline._ssp_assignment, _reference_ssp_assignment):
                with pytest.raises(ValueError, match="exceeds maximum matching size"):
                    solver(int_costs, size + 1)


def test_negative_infinity_is_a_negative_cost_not_a_non_edge():
    costs = np.array([[-np.inf, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        baseline.exact_min_weight_k_matching(costs, 2)


def test_emd_rejects_negative_infinity():
    with pytest.raises(ValueError, match="nonnegative"):
        baseline.exact_emd([.5, .5], [.5, .5], [[-np.inf, 1.0], [1.0, 0.0]])


def test_degenerate_estimate_rejects_negative_infinity():
    costs = np.random.default_rng(9).random((5, 5))
    costs[0, 0] = -np.inf
    instance = BipartiteInstance(5, MatrixCost(costs))
    with pytest.raises(ValueError, match="nonnegative"):
        pipeline.estimate_min_weight_matching(
            instance, pipeline.ReductionConfig(0.5, 1.0, 0.5),
            pipeline.Backend.exact(seed=0), seed=0)


# -- exact EMD ---------------------------------------------------------------

def test_emd_trivial_cases():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert baseline.exact_emd([0.5, 0.5], [0.5, 0.5], d) == 0.0
    assert baseline.exact_emd([1.0], [1.0], np.array([[0.7]])) == pytest.approx(0.7)
    # mu uniform on {a, b}, nu = point mass at a, d(a,b) = 1: move half the mass
    assert baseline.exact_emd([0.5, 0.5], [1.0, 0.0], d) == pytest.approx(0.5)


def test_emd_mass_mismatch_rejected():
    d = np.zeros((2, 2))
    with pytest.raises(ValueError):
        baseline.exact_emd([0.6, 0.5], [0.5, 0.5], d)


def test_emd_against_linear_program():
    from scipy.optimize import linprog
    rng = np.random.default_rng(4)
    for _ in range(8):
        na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        mu = rng.random(na); mu /= mu.sum()
        nu = rng.random(nb); nu /= nu.sum()
        d = rng.random((na, nb))
        a_eq = []
        for i in range(na):
            row = np.zeros(na * nb); row[i * nb:(i + 1) * nb] = 1; a_eq.append(row)
        for j in range(nb):
            row = np.zeros(na * nb); row[j::nb] = 1; a_eq.append(row)
        ref = linprog(d.ravel(), A_eq=np.array(a_eq),
                      b_eq=np.concatenate([mu, nu]), method="highs").fun
        assert baseline.exact_emd(mu, nu, d) == pytest.approx(ref, abs=1e-7)


def test_emd_equals_matching_on_uniform_empiricals():
    rng = np.random.default_rng(5)
    m = 7
    d = rng.random((m, m))
    masses = np.full(m, 1.0 / m)
    emd = baseline.exact_emd(masses, masses, d)
    match = baseline.exact_min_weight_k_matching(d, m).value / m
    assert emd == pytest.approx(match, abs=1e-6)


def test_emd_against_networkx_flow():
    import networkx as nx
    rng = np.random.default_rng(6)
    na, nb = 5, 4
    mu = rng.integers(1, 10, na).astype(float); mu /= mu.sum()
    nu = rng.integers(1, 10, nb).astype(float); nu /= nu.sum()
    d = rng.integers(0, 100, (na, nb)).astype(float) / 100.0
    scale = 10 ** 6
    g = nx.DiGraph()
    su = np.rint(mu * scale).astype(int); su[0] += scale - su.sum()
    sv = np.rint(nu * scale).astype(int); sv[0] += scale - sv.sum()
    for i in range(na):
        g.add_node(("a", i), demand=-int(su[i]))
    for j in range(nb):
        g.add_node(("b", j), demand=int(sv[j]))
    for i in range(na):
        for j in range(nb):
            g.add_edge(("a", i), ("b", j), weight=round(d[i, j] * 100))
    flow_cost = nx.min_cost_flow_cost(g) / (100.0 * scale)
    assert baseline.exact_emd(mu, nu, d) == pytest.approx(flow_cost, abs=1e-5)


# -- vertex cover --------------------------------------------------------------

def test_vertex_cover_examples():
    assert baseline.min_vertex_cover_bipartite(3, 3, []) == set()
    # perfect matching of size 3, no other edges -> cover of size 3
    cover = baseline.min_vertex_cover_bipartite(3, 3, [(0, 0), (1, 1), (2, 2)])
    assert len(cover) == 3
    # star: one side-0 vertex to five side-1 vertices -> cover size 1
    cover = baseline.min_vertex_cover_bipartite(1, 5, [(0, j) for j in range(5)])
    assert cover == {v0(0)}


def test_vertex_cover_covers_all_edges_and_is_minimum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        edges = [(i, j) for i in range(n0) for j in range(n1) if rng.random() < 0.4]
        cover = baseline.min_vertex_cover_bipartite(n0, n1, edges)
        for i, j in edges:
            assert v0(i) in cover or v1(j) in cover
        size, _, _ = baseline.max_bipartite_matching(n0, n1, edges)
        assert len(cover) == size  # Koenig
