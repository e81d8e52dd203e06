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
    assert all(np.array_equal(p, np.zeros(3, dtype=np.int64)) for p in res.potentials)
    assert np.array_equal(res.sweep, [0.0])


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


def test_k_zero_rejects_malformed_costs_like_every_k():
    with pytest.raises(ValueError, match="NaN"):
        baseline.exact_min_weight_k_matching([[np.nan]], 0)
    with pytest.raises(ValueError, match="nonnegative"):
        baseline.exact_min_weight_k_matching([[-1.0]], 0)


def test_sweep_totals_do_not_overflow_int64():
    # ten edges of 1e9 sum to 1e19 integer units, past the int64 maximum
    res = baseline.exact_min_weight_k_matching(np.full((10, 10), 1e9), 10)
    assert res.value == 1e10
    assert np.array_equal(res.sweep, np.arange(11) * 1e9)


def test_k_exceeding_max_matching_raises():
    costs = np.array([[1.0, np.inf], [np.inf, np.inf]])
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(costs, 2)
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(np.ones((3, 3)), 4)


def test_non_square_costs_are_rejected():
    for costs in (np.ones((2, 3)), np.ones((3, 2)), np.ones(3)):
        with pytest.raises(ValueError, match="square"):
            baseline.exact_min_weight_k_matching(costs, 2)


def test_instance_cap():
    with pytest.raises(ValueError):
        baseline.exact_min_weight_k_matching(np.ones((2001, 2001)), 1)


def test_sweep_is_monotone_in_k():
    rng = np.random.default_rng(3)
    costs = rng.random((12, 12))
    sweep = baseline.min_weight_matching_sweep(costs)
    assert np.all(np.diff(sweep) >= -1e-12)


def _reference_ssp_assignment(int_costs, k):
    """Heap-based successive shortest paths on the assignment network: one
    heap entry per relaxed edge, run until the heap empties."""
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
        n = len(int_costs)
        ones = np.ones(n, dtype=np.int64)
        size, _, _ = baseline.max_bipartite_matching(n, n, zip(*np.nonzero(int_costs >= 0)))
        sweep, flow, u, v = baseline._ssp(int_costs, ones, ones, size)
        ref = _reference_ssp_assignment(int_costs, size)
        assert np.array_equal(sweep, ref[0])
        baseline._verify_certificate(int_costs, flow, u, v)
        assert len(flow) == size and set(flow.values()) <= {1}
        mate0 = np.full(n, -1, dtype=np.int64)
        for i, j in flow:
            mate0[i] = j
        assert len(set(mate0[mate0 >= 0])) == np.count_nonzero(mate0 >= 0) == size
        if tie_free:
            assert np.array_equal(mate0, ref[1])
            assert np.array_equal(u, ref[3]) and np.array_equal(v, ref[4])
        if size < n:
            with pytest.raises(ValueError, match="exceeds what the finite-cost edges can carry"):
                baseline._ssp(int_costs, ones, ones, size + 1)
            with pytest.raises(ValueError, match="exceeds maximum matching size"):
                _reference_ssp_assignment(int_costs, size + 1)


def test_negative_infinity_is_a_negative_cost_not_a_non_edge():
    costs = np.array([[-np.inf, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        baseline.exact_min_weight_k_matching(costs, 2)


def test_infeasible_transport_raises_value_error():
    with pytest.raises(ValueError, match="exceeds what the finite-cost edges can carry"):
        baseline.exact_emd([.5, .5], [.5, .5], [[0.0, np.inf], [np.inf, np.inf]])


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


def _transport_cases(seed, draw_masses):
    """(mu, nu, table) for sizes 1..40 a side, mostly rectangular: random
    tables, tied tables on levels k/100, and tables with +inf non-edges off
    a northwest-corner plan's cells, which keep the transport feasible.
    About a quarter of the masses are zero."""
    rng = np.random.default_rng(seed)
    for case in range(18):
        na, nb = (int(x) for x in rng.integers(1, 41, 2))
        mu, nu = draw_masses(rng, na), draw_masses(rng, nb)
        table = rng.integers(0, 100, (na, nb)) / 100.0 if case % 3 else rng.random((na, nb))
        if case % 3 == 2:
            # row i and column j share mass in the northwest-corner plan when
            # their cumulative-mass intervals overlap
            a, b = np.cumsum(np.r_[0, mu]), np.cumsum(np.r_[0, nu])
            plan = np.maximum.outer(a[:-1], b[:-1]) <= np.minimum.outer(a[1:], b[1:]) + 1e-9
            table[~plan & (rng.random((na, nb)) < 0.6)] = np.inf
        yield mu, nu, table


def _random_masses(rng, n):
    p = rng.random(n) * (rng.random(n) > 0.25)
    p[rng.integers(n)] += 0.5
    return p / p.sum()


def test_emd_against_linear_program():
    from scipy.optimize import linprog
    for mu, nu, d in _transport_cases(4, _random_masses):
        na, nb = d.shape
        a_eq = np.zeros((na + nb, na * nb))
        for i in range(na):
            a_eq[i, i * nb:(i + 1) * nb] = 1
        for j in range(nb):
            a_eq[na + j, j::nb] = 1
        edge = np.isfinite(d.ravel())
        ref = linprog(np.where(edge, d.ravel(), 0.0), A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                      bounds=[(0, None) if e else (0, 0) for e in edge], method="highs")
        assert ref.status == 0
        assert baseline.exact_emd(mu, nu, d) == pytest.approx(ref.fun, abs=1e-7)


def test_emd_is_pinned_on_two_instances():
    # the integer optimum is unique, so any exact solver returns these floats
    rng = np.random.default_rng(10)
    mu, nu, d = _random_masses(rng, 40), _random_masses(rng, 31), rng.random((40, 31))
    assert baseline.exact_emd(mu, nu, d) == 0.06591807804483396
    mu, nu, d = next(itertools.islice(_transport_cases(11, _random_masses), 2, None))
    assert np.isinf(d).any()
    assert baseline.exact_emd(mu, nu, d) == 0.14741599893489


def test_emd_equals_matching_on_uniform_empiricals():
    rng = np.random.default_rng(5)
    m = 7
    d = rng.random((m, m))
    masses = np.full(m, 1.0 / m)
    emd = baseline.exact_emd(masses, masses, d)
    match = baseline.exact_min_weight_k_matching(d, m).value / m
    assert emd == pytest.approx(match, abs=1e-6)


def _count_masses(rng, n):
    """Masses that are multiples of 1/1000, so integer flows are exact."""
    return rng.multinomial(1000, _random_masses(rng, n)) / 1000.0


def test_emd_against_networkx_flow():
    import networkx as nx
    for mu, nu, d in _transport_cases(6, _count_masses):
        g = nx.DiGraph()
        for i, m in enumerate(mu):
            g.add_node(("a", i), demand=-round(m * 1000))
        for j, m in enumerate(nu):
            g.add_node(("b", j), demand=round(m * 1000))
        for i, j in zip(*np.nonzero(np.isfinite(d))):
            g.add_edge(("a", i), ("b", j), weight=round(d[i, j] * 10 ** 6))
        flow_cost = nx.min_cost_flow_cost(g) / (1000.0 * 10 ** 6)
        # weights round the random tables at 1e-6, so that is the tolerance
        assert baseline.exact_emd(mu, nu, d) == pytest.approx(flow_cost, abs=1e-6)


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
