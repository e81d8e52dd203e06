import functools
import math
import tracemalloc

import numpy as np
import pytest

from submatch import template
from submatch.core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, EmptyMatching, ScaledCost,
    ZeroPotential, v0, v1,
)
from submatch.mcm import Backend
from submatch.template import (
    SAMPLE_SIZE_CAP, TemplateParams, run_template, sample_and_estimate,
    sample_size, step1, step2,
)
from tests.test_mcm import FixedPotential


def make_params(gamma=0.2, C=1, T=4, k=3):
    return TemplateParams.practical(gamma=gamma, C=C, T=T, k=k)


def test_params_validation_and_practical_defaults():
    p = make_params(gamma=0.1, C=5, T=10, k=5)
    assert p.xi == pytest.approx(0.01) and p.delta == pytest.approx(0.01)
    assert p.range_bound == 21
    with pytest.raises(ValueError):
        TemplateParams.practical(gamma=1.5, C=1, T=1, k=1)
    with pytest.raises(ValueError):
        TemplateParams.practical(gamma=0.1, C=0, T=1, k=1)


# -- step 1 ---------------------------------------------------------------------

def test_step1_no_paths_is_identity():
    n = 6
    inst = BipartiteInstance.from_matrix(np.full((n, n), 9.0))
    phi = ZeroPotential(n, 9)
    m, phi_out, rounds = step1(phi, EmptyMatching(n), make_params(), inst.cost,
                               Backend.exact())
    assert rounds == 0
    assert m.size() == 0
    for u in [v0(0), v1(3), v0(5)]:
        assert phi_out.eval(u) == phi.eval(u)


def test_step1_matches_tight_edges_and_drops_matched_side1_potential():
    # every edge tight at c + 1 = 2 with phi0 = 2, phi1 = 0
    n = 6
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    phi = FixedPotential(np.full(n, 2), np.zeros(n), range_bound=9)
    params = make_params(gamma=0.3, C=1, T=4, k=3)
    m, phi_out, rounds = step1(phi, EmptyMatching(n), params, inst.cost,
                               Backend.exact())
    assert m.size() == n
    for j in range(n):
        assert phi_out.eval(v1(j)) == -1  # newly matched side-1 drops by one
    for i in range(n):
        assert phi_out.eval(v0(i)) == 2   # side 0 passes through


def test_step1_inherited_matched_edges_keep_potential():
    # matched edge tight at c (not c + 1) must not be decremented
    n = 3
    costs = np.full((n, n), 9.0)
    costs[0, 0] = 2.0
    inst = BipartiteInstance.from_matrix(costs)
    phi = FixedPotential([2, 0, 0], [0, 0, 0], range_bound=9)
    matching = ArrayMatching.from_pairs(n, [(0, 0)])
    m, phi_out, rounds = step1(phi, matching, make_params(), inst.cost,
                               Backend.exact())
    assert rounds == 0
    assert phi_out.eval(v1(0)) == 0


# -- step 2 ---------------------------------------------------------------------

def test_step2_perfect_matching_keeps_potential():
    n = 4
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    phi = FixedPotential(np.ones(n), np.zeros(n), range_bound=9)
    phi_out, forest, layers = step2(phi, matching, make_params(), inst.cost,
                                    Backend.exact())
    assert layers == 0
    for u in [v0(0), v1(2)]:
        assert phi_out.eval(u) == phi.eval(u)
        assert not forest.contains(u)


def test_step2_empty_forward_graph_raises_free_side0():
    n = 5
    inst = BipartiteInstance.from_matrix(np.full((n, n), 9.0))
    phi = ZeroPotential(n, 9)
    phi_out, forest, layers = step2(phi, EmptyMatching(n), make_params(),
                                    inst.cost, Backend.exact())
    assert layers == 0
    for i in range(n):
        assert forest.contains(v0(i))          # F0 = V0
        assert phi_out.eval(v0(i)) == 1
        assert phi_out.eval(v1(i)) == 0


def test_step2_star_pulls_in_mate():
    # free u0 with a tight edge to matched w1 whose mate is u1
    n = 3
    costs = np.full((n, n), 9.0)
    costs[0, 1] = 1.0   # u0 - w1 tight at c+1: 2 + 0 == 2
    costs[1, 1] = 2.0   # (u1, w1) matched, tight at c
    inst = BipartiteInstance.from_matrix(costs)
    phi = FixedPotential([2, 2, 0], [0, 0, 0], range_bound=9)
    matching = ArrayMatching.from_pairs(n, [(1, 1)])
    params = make_params(gamma=0.5, C=2, T=4, k=4)
    phi_out, forest, layers = step2(phi, matching, params, inst.cost,
                                    Backend.exact())
    assert layers >= 1
    assert forest.contains(v0(0)) and forest.contains(v1(1)) and forest.contains(v0(1))
    assert phi_out.eval(v0(0)) == 3
    assert phi_out.eval(v1(1)) == -1
    assert phi_out.eval(v0(1)) == 3
    assert phi_out.eval(v1(0)) == 0  # untouched vertex


def test_step2_layer_cap_bounds_depth():
    params = make_params(gamma=0.2, C=1, T=4, k=5)
    n = 8
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    phi = FixedPotential(np.full(n, 2), np.zeros(n), range_bound=9)
    phi_out, forest, layers = step2(phi, EmptyMatching(n), params, inst.cost,
                                    Backend.exact())
    assert layers <= params.k // 2


# -- sampling estimator ------------------------------------------------------------

def test_sample_and_estimate_equal_costs():
    n = 40
    gamma = 0.1
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    inst = BipartiteInstance.from_matrix(np.full((n, n), 3.0))
    c_hat, w, alpha_w = sample_and_estimate(matching, gamma, 3, n, 0, inst.cost)
    s = sample_size(gamma, 3, n)
    d = math.ceil(3 * gamma * s)
    assert c_hat == pytest.approx((s - d) / s * n * 3.0)
    assert w == 3.0
    assert alpha_w == 0.0  # ties at w are kept


def test_sample_and_estimate_single_edge():
    n = 10
    matching = ArrayMatching.from_pairs(n, [(4, 7)])
    costs = np.full((n, n), 2.0)
    inst = BipartiteInstance.from_matrix(costs)
    c_hat, w, alpha_w = sample_and_estimate(matching, 0.1, 2, n, 1, inst.cost)
    assert c_hat == pytest.approx(0.7 * n * 2.0, rel=0.01)


def test_sample_and_estimate_empty_matching_fails():
    inst = BipartiteInstance.from_matrix(np.ones((5, 5)))
    with pytest.raises(ValueError):
        sample_and_estimate(EmptyMatching(5), 0.1, 1, 5, 0, inst.cost)


def test_sample_and_estimate_discards_expensive_tail():
    n = 50
    costs = np.full((n, n), 1.0)
    for i in range(5):
        costs[i, i] = 20.0  # 10% expensive edges
    inst = BipartiteInstance.from_matrix(costs)
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    gamma = 0.05
    c_hat, w, alpha_w = sample_and_estimate(matching, gamma, 20, n, 3, inst.cost)
    exact_sorted = np.sort(costs[np.arange(n), np.arange(n)])
    s = sample_size(gamma, 20, n)
    d = math.ceil(3 * gamma * s)
    trimmed_mean_target = n * (1 - d / s) * np.mean(exact_sorted[: int(n * 0.85)])
    assert c_hat < n * np.mean(exact_sorted)       # discard lowered the estimate
    assert c_hat == pytest.approx(trimmed_mean_target, rel=0.08)
    # only ~10% of samples cost >= 20, so the 3*gamma = 15% quantile sits at 1
    assert w == 1.0
    assert alpha_w == pytest.approx(5 / 50)


def _sort_based_sample_and_estimate(matching, gamma, C, n, seed, cost):
    """The estimator as it was before draw counts: materialize and sort |S|."""
    rng = np.random.default_rng(seed)
    s = sample_size(gamma, C, n)
    picks = np.empty(s, dtype=np.int64)
    got = 0
    misses = 0
    while got < s:
        chunk = rng.integers(0, n, size=max(2 * (s - got), 64))
        mates = matching.mates(v0(chunk))
        hit = mates != UNMATCHED
        take = min(int(hit.sum()), s - got)
        picks[got:got + take] = chunk[hit][:take]
        got += take
        misses += len(chunk) - int(hit.sum())
        if got == 0 and misses > 64 * max(n, 64):
            if matching.size() == 0:
                raise ValueError("cannot sample from an empty matching")
            misses = 0
    uniq, inv = np.unique(picks, return_inverse=True)
    mates_u = matching.mates(v0(uniq)) >> 1
    costs_u = cost.pairs(uniq, mates_u)
    samples = costs_u[inv]
    d = min(math.ceil(3 * gamma * s), s)
    order = np.argsort(samples, kind="stable")
    kept = samples[order[: s - d]]
    w = float(samples[order[s - d]]) if d > 0 else float("inf")
    c_hat = (n / s) * float(kept.sum())
    m0 = matching.mate_of_v0()
    rows = np.nonzero(m0 != UNMATCHED)[0]
    if len(rows):
        all_costs = cost.pairs(rows, m0[rows])
        alpha_w = float(np.count_nonzero(all_costs > w)) / n
    else:
        alpha_w = 0.0
    return c_hat, w, alpha_w


def _full_matching(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    return ArrayMatching.from_pairs(n, [(i, int(perm[i])) for i in range(n)])


def _sparse_matching(n, frac, seed):
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=max(1, int(frac * n)), replace=False)
    cols = rng.choice(n, size=len(rows), replace=False)
    return ArrayMatching.from_pairs(n, [(int(i), int(j)) for i, j in zip(rows, cols)])


@pytest.mark.parametrize("case", ["full-noninteger", "sparse-10pct", "ties-at-w",
                                  "gamma-third-keeps-nothing"])
@pytest.mark.parametrize("seed", [0, 5])
def test_sample_and_estimate_bit_identical_to_sort_based(case, seed):
    n = 300
    rng = np.random.default_rng(100 + seed)
    gamma, C = 0.1, 3
    if case == "full-noninteger":
        costs = rng.uniform(0.0, 7.0, size=(n, n))
        matching = _full_matching(n, seed)
    elif case == "sparse-10pct":
        costs = rng.uniform(0.0, 7.0, size=(n, n))
        matching = _sparse_matching(n, 0.1, seed)
    elif case == "ties-at-w":
        # most matched edges cost 2, a few 3: the trim boundary lands inside
        # the large block of 2s
        costs = np.where(rng.uniform(size=(n, n)) < 0.05, 3.0, 2.0)
        costs[rng.uniform(size=(n, n)) < 0.5] = 1.0
        matching = _full_matching(n, seed)
    else:
        gamma = 0.4  # 3 * gamma >= 1: every draw is discarded
        costs = rng.integers(1, C + 1, size=(n, n)).astype(np.float64)
        matching = _full_matching(n, seed)
    results = []
    for estimator in (sample_and_estimate, _sort_based_sample_and_estimate):
        inst = BipartiteInstance.from_matrix(costs)
        # the template hands the estimator costs rescaled by 1/gamma
        cost = ScaledCost(inst.cost, 1.0 / gamma)
        before = inst.query_count
        out = estimator(matching, gamma, C, n, seed, cost)
        results.append((out, inst.query_count - before))
    assert results[0] == results[1]
    c_hat, w, _ = results[0][0]
    if case == "ties-at-w":
        assert w == 2.0 / gamma
    if case == "gamma-third-keeps-nothing":
        assert c_hat == 0.0


def test_sample_and_estimate_trim_boundary_between_cost_blocks():
    # one cheap edge among ten; at this seed the cheap edge is drawn exactly
    # s - d times, so the kept prefix ends where its block ends and w is the
    # first value of the next block
    n, gamma, seed = 10, 0.3, 44
    costs = np.full((n, n), 2.0)
    costs[0, 0] = 1.0
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    s = sample_size(gamma, 1, n)
    keep = s - math.ceil(3 * gamma * s)
    outs = [estimator(matching, gamma, 1, n, seed,
                      BipartiteInstance.from_matrix(costs).cost)
            for estimator in (sample_and_estimate, _sort_based_sample_and_estimate)]
    assert outs[0] == outs[1] == ((n / s) * keep, 2.0, 0.0)


def _chunked_sample_and_estimate(matching, gamma, C, n, seed, cost, chunk_log=None):
    """The estimator as it was before drawing in pieces: each chunk of
    max(2 (|S| - got), 64) indices is drawn whole and its hits past |S| are
    dropped.  Appends (hits, taken, last draw hit) per chunk to chunk_log."""
    rng = np.random.default_rng(seed)
    s = sample_size(gamma, C, n)
    m0 = matching.mate_of_v0()
    matched = m0 != UNMATCHED
    counts = np.zeros(n, dtype=np.int64)
    got = 0
    while got < s:
        chunk = rng.integers(0, n, size=max(2 * (s - got), 64), dtype=np.int32)
        hit = matched[chunk]
        hits = int(hit.sum())
        take = min(hits, s - got)
        counts += np.bincount(chunk[hit][:take], minlength=n)
        got += take
        if chunk_log is not None:
            chunk_log.append((hits, take, bool(hit[-1])))
    drawn = np.nonzero(counts)[0]
    costs_u = cost.pairs(drawn, m0[drawn])
    order = np.argsort(costs_u, kind="stable")
    sorted_costs = costs_u[order]
    cum = np.cumsum(counts[drawn][order])
    d = min(math.ceil(3 * gamma * s), s)
    keep = s - d
    kept = np.repeat(sorted_costs, np.diff(np.minimum(cum, keep), prepend=0))
    w = float(sorted_costs[np.searchsorted(cum, keep, side="right")]) if d > 0 else float("inf")
    c_hat = (n / s) * float(kept.sum())
    rows = np.nonzero(matched)[0]
    alpha_w = float(np.count_nonzero(cost.pairs(rows, m0[rows]) > w)) / n
    return c_hat, w, alpha_w


def test_bounded_int32_draws_are_prefix_consistent():
    # sample_and_estimate draws its index stream in pieces; its answers at
    # a seed are fixed only if split draws reproduce one long draw
    for n in (1 << 10, 690, (1 << 20) + 7):
        for a in (1, 333, 1 << 18):
            b = 1001
            whole = np.random.default_rng(n + a).integers(0, n, size=a + b, dtype=np.int32)
            rng = np.random.default_rng(n + a)
            split = np.concatenate([rng.integers(0, n, size=a, dtype=np.int32),
                                    rng.integers(0, n, size=b, dtype=np.int32)])
            assert np.array_equal(whole, split), (
                f"numpy's bounded int32 draws at n={n} differ when split after "
                f"{a}; sample_and_estimate depends on them being the same")


@pytest.mark.parametrize("case", ["one-edge", "below-min-chunk", "later-piece",
                                  "hit-ends-chunk"])
def test_sample_and_estimate_equals_chunked_reference(case, monkeypatch):
    n, gamma, C, seed = 300, 0.3, 1, 3
    if case == "one-edge":
        matching = ArrayMatching.from_pairs(n, [(17, 42)])
    elif case == "below-min-chunk":
        monkeypatch.setattr(template, "SAMPLE_SIZE_CAP", 40)
        matching = _sparse_matching(n, 0.1, seed)
    elif case == "later-piece":
        gamma, C, seed = 0.1, 4, 0
        matching = _sparse_matching(n, 0.5, seed)
    else:
        seed = 63  # pinned: the |S|-th hit is the last draw of the second chunk
        matching = _sparse_matching(n, 0.5, 0)
    s = sample_size(gamma, C, n)
    costs = np.random.default_rng(7).integers(1, C + 1, size=(n, n)).astype(np.float64)
    chunk_log = []
    results = []
    for estimator in (sample_and_estimate,
                      functools.partial(_chunked_sample_and_estimate, chunk_log=chunk_log)):
        inst = BipartiteInstance.from_matrix(costs)
        cost = ScaledCost(inst.cost, 1.0 / gamma)
        out = estimator(matching, gamma, C, n, seed, cost)
        results.append((out, inst.query_count))
    assert results[0] == results[1]
    # each case reaches the edge it is named for
    if case == "one-edge":
        assert len(chunk_log) > 100
    elif case == "below-min-chunk":
        assert s < 64 and len(chunk_log) > 1
    elif case == "later-piece":
        # more hits taken from the last chunk than a piece holds draws
        assert chunk_log[-1][1] > template._DRAW_PIECE
    else:
        hits, taken, last_hit = chunk_log[-1]
        assert len(chunk_log) > 1 and hits == taken and last_hit


def test_sample_and_estimate_memory_does_not_grow_with_draws():
    # at the |S| cap a whole 2|S|-long draw chunk alone would take 16 MB;
    # the kept prefix the sum is taken over is about 11 MB
    n, gamma, C = 600, 0.1, 10
    assert sample_size(gamma, C, n) == SAMPLE_SIZE_CAP
    costs = np.random.default_rng(4).integers(1, C + 1, size=(n, n)).astype(np.float64)
    inst = BipartiteInstance.from_matrix(costs)
    matching = _full_matching(n, 4)
    tracemalloc.start()
    try:
        sample_and_estimate(matching, gamma, C, n, 0, inst.cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"sample_and_estimate peaked at {peak / 1e6:.1f} MB"


# -- full template runs --------------------------------------------------------------

def test_run_template_all_ones():
    # every cost 1: matching becomes perfect once potentials reach 2 and the
    # estimate lands at (1 - trim) * n
    n = 20
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    params = make_params(gamma=0.25, C=1, T=4, k=3)
    res = run_template(inst, params, Backend.exact(), seed=7, collect_trace=True)
    assert res.matching.base.size() == n
    s = sample_size(params.gamma, params.C, n)
    d = math.ceil(3 * params.gamma * s)
    assert res.estimate == pytest.approx(n * (s - d) / s, rel=1e-6)
    assert res.matching.size() == n  # all costs tie at w = 1, everything kept
    # Lemma "phi(u) = t on F0" holds exactly on every iteration
    assert len(res.trace) == params.T
    for rec in res.trace:
        assert rec["phi0_on_free0"] in ([rec["t"]], [])


def test_run_template_empty_eligibility_keeps_empty_matching():
    # one iteration, costs >= 1 mean nothing is eligible at phi == 0
    n = 25
    inst = BipartiteInstance.from_matrix(np.full((n, n), 3.0))
    params = make_params(gamma=0.05, C=3, T=1, k=3)
    res = run_template(inst, params, Backend.exact(), seed=0)
    assert res.estimate == 0.0
    assert res.matching.size() == 0


def test_run_template_rejects_malformed_costs():
    n = 30
    costs = np.full((n, n), 2.5)  # not integral
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=3, T=2, k=3)
    with pytest.raises(ValueError):
        run_template(inst, params, Backend.exact(), seed=0)
    inst2 = BipartiteInstance.from_matrix(np.full((n, n), 9.0))
    params2 = make_params(gamma=0.2, C=3, T=2, k=3)  # 9 > C
    with pytest.raises(ValueError):
        run_template(inst2, params2, Backend.exact(), seed=0)


def test_run_template_phi_range_and_invariants():
    rng = np.random.default_rng(11)
    n = 40
    costs = rng.integers(1, 6, (n, n)).astype(float)
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=5, T=7, k=5)
    res = run_template(inst, params, Backend.exact(), seed=5, collect_trace=True)
    for state in res.states:
        t = state.t
        phi0 = state.potential.on_v0()
        phi1 = state.potential.on_v1()
        assert np.all(phi0 >= 0) and np.all(phi0 <= t)
        assert np.all(phi1 <= 0) and np.all(phi1 >= -t)
    # free side-0 potential == t exactly (Lemma 4.1 analogue), from the trace
    assert len(res.trace) == params.T
    for rec in res.trace:
        assert rec["phi0_on_free0"] in ([rec["t"]], [])


def test_run_template_forest_component_bounds():
    # step-2 forest: depth <= k and component size <= 2^k, checked on the
    # explicit layer matchings recorded during the run
    rng = np.random.default_rng(13)
    n = 30
    costs = rng.integers(1, 4, (n, n)).astype(float)
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=3, T=5, k=5)
    res = run_template(inst, params, Backend.exact(), seed=2)
    for state in res.states[1:]:
        forest = state.forest
        if forest is None:
            continue
        # walk the membership chain, collecting layer edges
        edges = []
        node = forest
        while node is not None and node.kind != "roots":
            if node.kind == "fwd":
                m = node.matching
                for i, j in m.edges():
                    edges.append((v0(i), v1(j)))
            node = node.prev
        # matched-mate edges: for every side-1 forest vertex its mate is in
        members = [u for u in (list(map(v0, range(n))) + list(map(v1, range(n))))
                   if forest.contains(u)]
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(members)
        prev_m = state.matching
        for u in members:
            if u & 1:
                mate = prev_m.mate(u)
                if mate is not None and forest.contains(mate):
                    g.add_edge(u, mate)
        for u, v in edges:
            if forest.contains(u) and forest.contains(v):
                g.add_edge(u, v)
        for comp in nx.connected_components(g):
            assert len(comp) <= 2 ** params.k


def test_oracle_layering_depth_is_bounded_by_configuration():
    # evaluating phi_T touches a bounded number of layered oracles: the
    # chain has exactly 2 potential layers per iteration
    n = 30
    rng = np.random.default_rng(17)
    costs = rng.integers(1, 4, (n, n)).astype(float)
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=3, T=6, k=3)
    res = run_template(inst, params, Backend.exact(), seed=1)
    depth = 0
    node = res.states[-1].potential
    while hasattr(node, "base"):
        depth += 1
        node = node.base
    assert depth == 2 * params.T
