from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from submatch.core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, CostOracle, EmptyMatching, LevelCost,
    MatchingOracle, MatrixCost, MembershipOracle, PotentialOracle, ZeroPotential, v0, v1,
)
from submatch.mcm import Backend
from submatch.template import (
    TemplateParams, _ValidatingCost, run_template, sample_and_estimate, sample_size,
    step1, step2,
)
from tests.test_mcm import FixedPotential


def make_params(gamma=0.2, C=1, T=4, k=3):
    return TemplateParams.practical(gamma=gamma, C=C, T=T, k=k)


def test_params_validation_and_practical_defaults():
    p = make_params(gamma=0.1, C=5, T=10, k=5)
    assert p.xi == pytest.approx(0.01)
    assert p.range_bound == 21
    with pytest.raises(ValueError):
        TemplateParams.practical(gamma=1.5, C=1, T=1, k=1)
    with pytest.raises(ValueError):
        TemplateParams.practical(gamma=0.1, C=0, T=1, k=1)


def test_run_template_on_raw_integer_costs_keeps_their_units():
    # a cost that is not a LevelCost is checked and, on the exact backend,
    # held as an int16 level matrix; the estimate and w are read back from
    # it as float64 costs, with no further counted read
    rng = np.random.default_rng(5)
    n, C = 60, 9
    costs = rng.integers(1, C + 1, (n, n)).astype(float)
    costs[rng.random((n, n)) < 0.2] = np.inf
    inst = BipartiteInstance.from_matrix(costs)
    res = run_template(inst, make_params(gamma=0.02, C=C, T=6, k=3),
                       Backend.exact(seed=2), seed=4)
    assert res.estimate == 57.799181999259744  # the answer before int16 levels
    assert res.w == 2.0 and type(res.w) is float
    assert inst.query_count == n * n
    levels = Backend.exact().prepare_levels(MatrixCost(costs))
    before = levels.counter.count
    got = levels.readout.block(np.arange(n), np.arange(n))
    assert got.dtype == np.float64 and np.array_equal(got, costs)
    assert np.array_equal(levels.readout.pairs([0, 1], [2, 3]), costs[[0, 1], [2, 3]])
    assert levels.counter.count == before
    # nothing but its holders keeps the matrix alive: no reference cycle
    # waits for the cyclic collector
    gc.disable()
    try:
        held = weakref.ref(levels)
        del levels
        assert held() is None
    finally:
        gc.enable()


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


# -- the layered oracles of the template before its state became arrays ----------

class _Layered:
    """The old base of the layered recipes below: each vertex's answer is
    computed once (here all 2n at the first query) and the per-side arrays
    the backend reads are cut from those answers."""

    def __init__(self, n, range_bound=None):
        self.n = n
        self.range_bound = range_bound
        self._answers = None

    def _all(self, compute):
        if self._answers is None:
            self._answers = compute(np.arange(2 * self.n, dtype=np.int64))
        return self._answers


class _LayeredPotential(_Layered):
    def eval_many(self, us):
        return self._all(self._eval_missing)[np.asarray(us, dtype=np.int64)]

    phi0 = property(lambda self: self._all(self._eval_missing)[0::2])
    phi1 = property(lambda self: self._all(self._eval_missing)[1::2])


class _LayeredMembership(_Layered):
    def contains_many(self, us):
        return self._all(self._contains_missing)[np.asarray(us, dtype=np.int64)]

    in0 = property(lambda self: self._all(self._contains_missing)[0::2])
    in1 = property(lambda self: self._all(self._contains_missing)[1::2])


class _LayeredMatching(_Layered, MatchingOracle):
    def mates(self, us):
        return self._all(self._mates_impl)[np.asarray(us, dtype=np.int64)]

    def mate_of_v0(self):
        out = self._all(self._mates_impl)[0::2]
        return np.where(out == UNMATCHED, UNMATCHED, out >> 1)

    def mate_of_v1(self):
        out = self._all(self._mates_impl)[1::2]
        return np.where(out == UNMATCHED, UNMATCHED, out >> 1)


class _OverlayMatching(_LayeredMatching):
    """A matching expressed as a small patch over a base oracle.

    Holds a reference to the base (never a copy); only the vertices whose
    mate changed are stored explicitly.
    """

    def __init__(self, base: MatchingOracle, changed: dict[int, int]):
        # changed maps global id -> new mate global id (UNMATCHED to free it)
        super().__init__(base.n)
        self.base = base
        keys = np.fromiter(changed.keys(), dtype=np.int64, count=len(changed))
        order = np.argsort(keys)
        self._keys = keys[order]
        self._vals = np.fromiter(changed.values(), dtype=np.int64, count=len(changed))[order]

    def _mates_impl(self, us):
        out = self.base.mates(us)
        if len(self._keys):
            pos = np.clip(np.searchsorted(self._keys, us), 0, len(self._keys) - 1)
            hit = self._keys[pos] == us
            out = np.where(hit, self._vals[pos], out)
        return out


def _reference_augment_overlay(m_in: MatchingOracle, paths: list[list[int]]) -> "_OverlayMatching":
    """Flip a set of node-disjoint augmenting paths into an overlay oracle."""
    changed: dict[int, int] = {}
    for path in paths:
        # path = [i0, j1, i1, j2, ...]: new matched pairs are (i_t, j_{t+1})
        for t in range(0, len(path) - 1, 2):
            i, j = path[t], path[t + 1]
            changed[v0(i)] = v1(j)
            changed[v1(j)] = v0(i)
    out = _OverlayMatching(m_in, changed)
    out.augmenting_paths = paths
    return out


class _Step1Potential(_LayeredPotential):
    """Potential after Step 1.

    Side-0 values pass through.  A side-1 vertex drops by one exactly when
    its mate in ``m_out`` differs from its mate in ``m_in``: it lies on one
    of Step 1's augmenting paths.  No cost is read.  This is the paper's
    recipe (drop the vertices whose matched edge is eligible, tight at
    c + 1, under ``base``) because every matched edge of ``m_in`` is
    tight: Step 1 leaves its new edges tight, and Step 2 moves both ends
    of a matched edge together.  A column's mate changes at most once per
    Step 1, since inner hops take only tight matched edges, so every
    changed mate is along an eligible edge and every unchanged one tight.
    """

    def __init__(self, base: PotentialOracle, m_in: MatchingOracle,
                 m_out: MatchingOracle, range_bound: int):
        super().__init__(base.n, range_bound)
        self.base = base
        self.m_in = m_in
        self.m_out = m_out

    def _eval_missing(self, us):
        out = self.base.eval_many(us).copy()
        is1 = (us & 1).astype(bool)
        if is1.any():
            u1 = us[is1]
            out[is1] -= self.m_out.mates(u1) != self.m_in.mates(u1)
        return out


class _Step2Potential(_LayeredPotential):
    """Potential after Step 2: +1 on forest side-0, -1 on forest side-1."""

    def __init__(self, base: PotentialOracle, forest: MembershipOracle,
                 range_bound: int):
        super().__init__(base.n, range_bound)
        self.base = base
        self.forest = forest

    def _eval_missing(self, us):
        out = self.base.eval_many(us).copy()
        inf = self.forest.contains_many(us)
        is1 = (us & 1).astype(bool)
        out[inf & ~is1] += 1
        out[inf & is1] -= 1
        return out


class _ForestMembership(_LayeredMembership):
    """One growth layer of the quasi-maximal forest.

    With no ``prev`` it is the roots layer: the free side-0 vertices of
    ``matching``.  Otherwise it is ``prev`` plus every vertex whose mate
    under ``matching`` is in ``prev``.  Step 2 stacks two such layers per
    round: one over a forward-graph matching adds the partners of forest
    vertices, and one over the template matching then pulls in their mates,
    so matched edges never cross the forest boundary.
    """

    def __init__(self, n: int, matching: MatchingOracle,
                 prev: "_ForestMembership | None" = None):
        super().__init__(n)
        self.matching = matching
        self.prev = prev

    def _contains_missing(self, us):
        if self.prev is None:
            is0 = (us & 1) == 0
            out = np.zeros(len(us), dtype=bool)
            if is0.any():
                out[is0] = self.matching.mates(us[is0]) == UNMATCHED
            return out
        out = self.prev.contains_many(us).copy()
        need = ~out
        if need.any():
            mates = self.matching.mates(us[need])
            has = mates != UNMATCHED
            hit = np.zeros(len(us[need]), dtype=bool)
            if has.any():
                hit[has] = self.prev.contains_many(mates[has])
            out[np.nonzero(need)[0][hit]] = True
        return out


class _StepAMembership(_LayeredMembership):
    """The restriction set A = (forest on side 0) union (side 1 off-forest)."""

    def __init__(self, forest: MembershipOracle):
        super().__init__(forest.n)
        self.forest = forest

    def _contains_missing(self, us):
        inf = self.forest.contains_many(us)
        is1 = (us & 1).astype(bool)
        return np.where(is1, ~inf, inf)


def _reference_step1(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Augment until no further short eligible path set is found.

    Eligibility during the loop is always with respect to phi_in and the
    current matching; the output potential is the layered Step-1 recipe.
    The loop runs only while the matching has a free side-0 vertex, the
    start every augmenting path needs, so a perfect matching passes
    through with no backend call; on the exact backend the rounds share
    one eligibility snapshot (see :meth:`Backend.augment_eligible`).
    Returns (m_out, phi_out, rounds) where rounds counts successful
    augmentation calls.
    """
    m = m_in
    rounds = 0
    while np.any(m.mate_of_v0() == UNMATCHED):
        nxt = backend.augment_eligible(phi_in, m, params.k, params.xi, cost)
        if nxt is None:
            break
        m = _reference_augment_overlay(m, nxt.augmenting_paths)
        rounds += 1
    phi_out = _Step1Potential(phi_in, m_in, m, params.range_bound)
    return m, phi_out, rounds


def _reference_step2(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Grow the quasi-maximal forest and shift potentials across it.

    The forest is a chain of membership layers over the matchings returned
    by successive forward-matching calls; the loop stops at the first
    bottom or after floor(k/2) layers, which caps the forest depth at k.
    A matching with no free side-0 vertex gives the forest no root, so it
    grows no layer and makes no backend call.  Returns (phi_out, forest,
    layers).
    """
    n = cost.n
    forest = _ForestMembership(n, m_in)
    layers = 0
    max_layers = params.k // 2 if np.any(m_in.mate_of_v0() == UNMATCHED) else 0
    while layers < max_layers:
        A = _StepAMembership(forest)
        m_t = backend.large_matching_forward(phi_in, A, params.xi, m_in, cost)
        if m_t is None:
            break
        forest = _ForestMembership(n, m_in, _ForestMembership(n, m_t, forest))
        layers += 1
    phi_out = _Step2Potential(phi_in, forest, params.range_bound)
    return phi_out, forest, layers


class _ReferenceStep1Potential(_LayeredPotential):
    """The Step 1 potential that re-tested each matched edge's eligibility
    against the cost, kept verbatim."""

    def __init__(self, base, m_out, cost, range_bound):
        super().__init__(base.n, range_bound)
        self.base = base
        self.m_out = m_out
        self.cost = cost

    def _eval_missing(self, us):
        out = self.base.eval_many(us).copy()
        is1 = (us & 1).astype(bool)
        if not is1.any():
            return out
        u1 = us[is1]
        mates = self.m_out.mates(u1)
        matched = mates != UNMATCHED
        if matched.any():
            um = u1[matched]
            vm = mates[matched]
            c = self.cost.pairs(vm >> 1, um >> 1)
            tight = self.base.eval_many(um) + self.base.eval_many(vm) == c + 1
            dec = np.zeros(len(u1), dtype=np.int64)
            dec[np.nonzero(matched)[0][tight]] = 1
            sub = np.zeros(len(us), dtype=np.int64)
            sub[is1] = dec
            out -= sub
        return out


def _assert_matched_edges_tight(m, phi, cost):
    rows = np.nonzero(m.mate_of_v0() != UNMATCHED)[0]
    cols = m.mate_of_v0()[rows]
    assert np.array_equal(phi.eval_many(v0(rows)) + phi.eval_many(v1(cols)),
                          cost.peek_pairs(rows, cols))


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_step1_potential_reads_no_cost_and_equals_the_tightness_recipe(variant):
    # every matched edge is tight after each iteration, so the Step 1
    # potential can read which side-1 vertices Step 1 rematched off the
    # matchings alone; on a raw cost and on a padded level cost
    n = 40
    rng = np.random.default_rng(17)
    raw = BipartiteInstance.from_matrix(rng.integers(1, 6, (n, n)).astype(float))
    base = BipartiteInstance.from_matrix(rng.random((n, n)))
    levels = LevelCost(base.cost, math.sqrt(2.0 / 3.0), 0.5, 5, n + 4)
    params = make_params(gamma=0.2, C=5, T=8, k=5)
    for inst, cost in ((raw, raw.cost), (base, levels)):
        backend = Backend(variant, seed=5)
        every = np.arange(2 * cost.n, dtype=np.int64)
        m, phi = EmptyMatching(cost.n), ZeroPotential(cost.n, params.range_bound)
        dropped = 0
        for _ in range(params.T):
            m_in, phi_in = m, phi
            m, phi, _ = step1(phi_in, m_in, params, cost, backend)
            reads = inst.query_count
            got = phi.eval_many(every)
            assert inst.query_count == reads
            ref = _ReferenceStep1Potential(phi_in, m, cost, params.range_bound)
            assert np.array_equal(got, ref.eval_many(every))
            dropped += int(np.count_nonzero(got != phi_in.eval_many(every)))
            _assert_matched_edges_tight(m, phi, cost)
            phi, _, _ = step2(phi, m, params, cost, backend)
            _assert_matched_edges_tight(m, phi, cost)
        assert dropped >= n // 2 and m.size() >= n // 2, (variant, dropped, m.size())


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


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_steps_call_no_backend_on_a_perfect_matching(variant):
    # no free side-0 vertex: Step 1 has no path to augment along and Step 2
    # no root to grow from, so neither calls the backend or logs a record,
    # although every non-matched edge is eligible
    n = 6
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    matching = ArrayMatching.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
    phi = FixedPotential(np.full(n, 2), np.zeros(n), range_bound=9)
    backend = Backend(variant, seed=1)
    m, _, rounds = step1(phi, matching, make_params(), inst.cost, backend)
    _, forest, layers = step2(phi, m, make_params(), inst.cost, backend)
    assert m is matching and rounds == layers == 0
    assert not forest.contains_many(v0(np.arange(n))).any()
    assert backend.call_log == []


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
    c_hat, w, alpha_w, thresholded = sample_and_estimate(matching, gamma, 3, n, 0,
                                                         inst.cost)
    s = sample_size(gamma, 3, n)
    d = math.ceil(3 * gamma * s)
    assert c_hat == pytest.approx((s - d) / s * n * 3.0)
    assert w == 3.0
    assert alpha_w == 0.0  # ties at w are kept
    assert thresholded.size() == n and thresholded.base is matching


def test_sample_and_estimate_single_edge():
    n = 10
    matching = ArrayMatching.from_pairs(n, [(4, 7)])
    costs = np.full((n, n), 2.0)
    inst = BipartiteInstance.from_matrix(costs)
    c_hat, w, alpha_w, _ = sample_and_estimate(matching, 0.1, 2, n, 1, inst.cost)
    # every draw is the one matched edge: the kept 70% of it, times |M| = 1
    assert c_hat == pytest.approx(0.7 * 1 * 2.0, rel=0.01)


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
    c_hat, w, alpha_w, thresholded = sample_and_estimate(matching, gamma, 20, n, 3,
                                                         inst.cost)
    exact_sorted = np.sort(costs[np.arange(n), np.arange(n)])
    s = sample_size(gamma, 20, n)
    d = math.ceil(3 * gamma * s)
    trimmed_mean_target = n * (1 - d / s) * np.mean(exact_sorted[: int(n * 0.85)])
    assert c_hat < n * np.mean(exact_sorted)       # discard lowered the estimate
    assert c_hat == pytest.approx(trimmed_mean_target, rel=0.08)
    # only ~10% of samples cost >= 20, so the 3*gamma = 15% quantile sits at 1
    assert w == 1.0
    assert alpha_w == pytest.approx(5 / 50)
    assert thresholded.edges() == [(i, i) for i in range(5, n)]  # the 20s are cut


def test_sample_and_estimate_keeps_ties_at_the_level_of_w():
    # ten dearer edges, distinct costs on one level: the cut at w's cost
    # drops some of them, the cut at w's level none; c_hat and w are the same
    n = 50
    costs = np.ones((n, n))
    costs[np.arange(10), np.arange(10)] = np.linspace(2.1, 2.9, 10)
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    cost = BipartiteInstance.from_matrix(costs).cost
    by_cost = sample_and_estimate(matching, 0.05, 3, n, 3, cost)
    by_level = sample_and_estimate(matching, 0.05, 3, n, 3, cost, level=np.ceil)
    assert by_cost[:2] == by_level[:2] and 2.1 < by_cost[1] < 2.9
    assert by_cost[2] > 0 and by_cost[3].size() == n - round(by_cost[2] * n)
    assert by_level[2] == 0.0 and by_level[3].size() == n


def _sort_based_sample_and_estimate(matching, gamma, C, n, seed, cost):
    """The estimator without draw counts: the same multinomial draw
    materialized as |S| samples, sorted and trimmed."""
    rng = np.random.default_rng(seed)
    s = sample_size(gamma, C, n)
    m0 = matching.mate_of_v0()
    rows = np.nonzero(m0 != UNMATCHED)[0]
    counts = rng.multinomial(s, np.full(len(rows), 1.0 / len(rows)))
    all_costs = cost.pairs(rows, m0[rows])
    samples = np.sort(np.repeat(all_costs, counts))
    d = min(math.ceil(3 * gamma * s), s)
    w = float(samples[s - d]) if d > 0 else float("inf")
    c_hat = (len(rows) / s) * float(samples[: s - d].sum())
    alpha_w = float(np.count_nonzero(all_costs > w)) / len(rows)
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
    # w and alpha_w are bit-identical; the kept sum is a dot product of
    # distinct costs and counts, which rounds differently from a long sum
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
        out = estimator(matching, gamma, C, n, seed, inst.cost)
        results.append((out[:3], inst.query_count))
    (c_hat, w, alpha_w), reads = results[0]
    (ref_c_hat, ref_w, ref_alpha_w), ref_reads = results[1]
    assert (w, alpha_w, reads) == (ref_w, ref_alpha_w, ref_reads)
    assert reads == matching.size()  # each matched edge is read once
    assert c_hat == pytest.approx(ref_c_hat, rel=1e-12, abs=0.0)
    if case == "ties-at-w":
        assert w == 2.0
    if case == "gamma-third-keeps-nothing":
        assert c_hat == 0.0


def test_sample_and_estimate_trim_boundary_between_cost_blocks():
    # one cheap edge among ten; at this seed the cheap edge is drawn exactly
    # s - d times, so the kept prefix ends where its block ends and w is the
    # first value of the next block
    n, gamma, seed = 10, 0.3, 1
    costs = np.full((n, n), 2.0)
    costs[0, 0] = 1.0
    matching = ArrayMatching.from_pairs(n, [(i, i) for i in range(n)])
    s = sample_size(gamma, 1, n)
    keep = s - math.ceil(3 * gamma * s)
    outs = [estimator(matching, gamma, 1, n, seed,
                      BipartiteInstance.from_matrix(costs).cost)[:3]
            for estimator in (sample_and_estimate, _sort_based_sample_and_estimate)]
    assert outs[0] == outs[1] == ((n / s) * keep, 2.0, 0.0)


def test_sample_and_estimate_memory_does_not_grow_with_draws():
    # |S| is about 3 * 10^8: the draws as indices would take 2.5 GB, while
    # per-row draw counts and one read of the matched edges take a few n
    n, gamma, C = 600, 0.1, 100
    assert sample_size(gamma, C, n) > 3 * 10 ** 8
    costs = np.random.default_rng(4).integers(1, C + 1, size=(n, n)).astype(np.float64)
    inst = BipartiteInstance.from_matrix(costs)
    matching = _full_matching(n, 4)
    tracemalloc.start()
    try:
        sample_and_estimate(matching, gamma, C, n, 0, inst.cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"sample_and_estimate peaked at {peak / 1e6:.1f} MB"


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
    # the same kind of result as a non-empty run: an ArrayMatching cut from
    # the final matching
    assert isinstance(res.matching, ArrayMatching)
    assert res.matching.base is res.states[-1].matching


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


@pytest.mark.parametrize("variant", ["exact", "sampled"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_run_template_rejects_nan_and_negative_infinity(bad, variant):
    # only +inf is a non-edge: a check on finite values alone would let
    # both through, and the template would answer without a word
    costs = np.ones((20, 20))
    costs[3, 7] = bad
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=3, T=2, k=3)
    with pytest.raises(ValueError, match=rf"malformed cost: {bad!r} is not an integer in \[1, 3\]"):
        run_template(inst, params, Backend(variant, seed=0), seed=0)


def test_run_template_phi_range_and_invariants():
    rng = np.random.default_rng(11)
    n = 40
    costs = rng.integers(1, 6, (n, n)).astype(float)
    inst = BipartiteInstance.from_matrix(costs)
    params = make_params(gamma=0.2, C=5, T=7, k=5)
    res = run_template(inst, params, Backend.exact(), seed=5, collect_trace=True)
    for state in res.states:
        t = state.t
        phi0 = state.potential.phi0
        phi1 = state.potential.phi1
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
        # the forward-layer matchings the forest grew by, in growth order
        edges = [(v0(i), v1(j)) for fwd in forest.forward for i, j in fwd.edges()]
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


def _reference_cases():
    """(instance, its cost as the template holds it on a backend, params):
    a padded level cost, and sparse integer costs with non-edges, of nine,
    four and two values, that grow forests of up to k // 2 layers."""
    rng = np.random.default_rng(31)
    base = BipartiteInstance.from_matrix(rng.random((36, 36)))
    levels = LevelCost(base.cost, math.sqrt(2.0 / 3.0), 0.5, 5, 40)
    cases = [(BipartiteInstance(levels.n, levels), lambda b: b.prepare_levels(levels),
              make_params(gamma=0.2, C=5, T=8, k=5))]
    for n, C, p, T, k, gamma in ((40, 9, 0.5, 12, 5, 0.2), (40, 4, 0.85, 10, 7, 0.2),
                                 (30, 2, 0.9, 8, 7, 0.1)):
        costs = rng.integers(1, C + 1, (n, n)).astype(float)
        costs[rng.random((n, n)) < p] = np.inf
        inst = BipartiteInstance.from_matrix(costs)
        cases.append((inst, lambda b, cost=inst.cost, C=C: b.prepare_levels(_ValidatingCost(cost, C)),
                      make_params(gamma=gamma, C=C, T=T, k=k)))
    return cases


def _recording_forward_sets(backend):
    """Log the side arrays of the set A of every forward call on ``backend``."""
    seen, forward = [], backend.large_matching_forward

    def recording(phi, A, *args):
        seen.append((np.array(A.in0), np.array(A.in1)))
        return forward(phi, A, *args)

    backend.large_matching_forward = recording
    return seen


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_template_state_equals_the_layered_recipes(variant):
    # the layered recipes, run on a second backend of the same seed, reach
    # the same matching, potential, forest and A at every iteration, and
    # make the same backend calls
    rounds = layers = 0
    for inst, prepare, params in _reference_cases():
        n = inst.n
        backend = Backend(variant, seed=11)
        sets = _recording_forward_sets(backend)
        res = run_template(inst, params, backend, seed=1)
        ref_backend = Backend(variant, seed=11)
        ref_sets = _recording_forward_sets(ref_backend)
        cost = prepare(ref_backend)
        m, phi = EmptyMatching(n), ZeroPotential(n, params.range_bound)
        every0, every1 = v0(np.arange(n)), v1(np.arange(n))
        for state, rec in zip(res.states[1:], res.iterations):
            m, phi, _ = _reference_step1(phi, m, params, cost, ref_backend)
            phi, forest, _ = _reference_step2(phi, m, params, cost, ref_backend)
            assert np.array_equal(state.matching.mate_of_v0(), m.mate_of_v0())
            assert np.array_equal(state.matching.mate_of_v1(), m.mate_of_v1())
            assert np.array_equal(state.potential.phi0, phi.eval_many(every0))
            assert np.array_equal(state.potential.phi1, phi.eval_many(every1))
            assert np.array_equal(state.forest.in0, forest.contains_many(every0))
            assert np.array_equal(state.forest.in1, forest.contains_many(every1))
            rounds += rec["step1_rounds"]
            layers += rec["step2_layers"]
        assert len(sets) == len(ref_sets)
        for (a0, a1), (r0, r1) in zip(sets, ref_sets):
            assert np.array_equal(a0, r0) and np.array_equal(a1, r1)
        assert backend.call_log == ref_backend.call_log
    assert rounds >= 15 and layers >= 20, (rounds, layers)


def test_an_idle_iteration_returns_its_input_objects():
    # every cost 1: the matching is perfect after a few iterations, and each
    # iteration after that hands its matching and potential on unchanged
    n = 20
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    res = run_template(inst, make_params(gamma=0.25, C=1, T=6, k=3), Backend.exact(), seed=7)
    idle = [t for t in range(1, len(res.states))
            if res.states[t - 1].matching.size() == n]
    assert idle
    for t in idle:
        prev, state = res.states[t - 1], res.states[t]
        assert state.matching is prev.matching and state.potential is prev.potential
        assert not state.forest.in0.any() and not state.forest.in1.any()
