"""The primal-dual template on integer costs in [1, C].

One iteration is Step 1 (augment the matching along a quasi-maximal set of
short eligible augmenting paths, then drop the potential of the newly
matched side-1 vertices) followed by Step 2 (grow a quasi-maximal forest
of eligible edges rooted at the free side-0 vertices, then raise the
potential of its side-0 vertices and lower its side-1 vertices).  After T
iterations the matched-edge costs are sampled with replacement, the top
3*gamma fraction of the samples is discarded and the trimmed sum is
extrapolated to the whole matching.

Nothing here is ever materialized: matchings, potentials and forest
memberships are oracles layered over the oracles of the previous
iteration, exactly mirroring the per-iteration recipes of the sublinear
construction.  Every oracle answer is memoized (``core._Memo``) so the
layered evaluation stays linear in depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    UNMATCHED, BipartiteInstance, CostOracle, EmptyMatching, MatchingOracle,
    MembershipOracle, PotentialOracle, ScaledCost, ZeroPotential, _AdapterCost,
)
from .mcm import Backend

__all__ = [
    "TemplateParams", "IterationState", "ThresholdedMatching",
    "TemplateResult", "run_template", "step1", "step2", "sample_and_estimate",
    "SAMPLE_SIZE_CONSTANT",
]

#: multiplier `a` in |S| = ceil(a * (C/gamma)^2 * ln n); chosen so the
#: multiplicative Chernoff bound on the discarded fraction fails with
#: probability <= n^-3.
SAMPLE_SIZE_CONSTANT = 48

#: cap on |S|: sampling with replacement from at most n distinct edges
#: saturates statistically long before this point (every edge has been
#: seen ~|S|/n times), so larger sample sizes only cost random draws.  The
#: estimator keeps per-vertex counts and draws in pieces of at most
#: ``_DRAW_PIECE`` indices, so its memory does not grow with |S| beyond the
#: kept prefix it sums.
SAMPLE_SIZE_CAP = 2_000_000

#: most indices drawn per ``rng.integers`` call by the sampling estimator
#: (1 MB of int32).
_DRAW_PIECE = 1 << 18


@dataclass(frozen=True)
class TemplateParams:
    """Template knobs: small (T, k) set by the caller.

    The paper's constants (T = C / gamma^3, k = 6000 (2T+1)^10 / delta^5)
    are far too large to run, so T and k are practical values and the
    slack parameters are derived as xi = delta = gamma / T.
    """

    gamma: float
    C: int
    T: int
    k: int

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.C < 1 or self.T < 1:
            raise ValueError("C and T must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def xi(self) -> float:
        return self.gamma / self.T

    @property
    def delta(self) -> float:
        return self.gamma / self.T

    @property
    def range_bound(self) -> int:
        # potentials move by at most 1 per iteration, so phi is a
        # (2T+1)-potential throughout
        return 2 * self.T + 1

    @classmethod
    def practical(cls, gamma: float, C: int, T: int, k: int) -> "TemplateParams":
        return cls(gamma, C, T, k)


@dataclass
class IterationState:
    """Snapshot after iteration t: the matching and potential oracles."""

    t: int
    matching: MatchingOracle
    potential: PotentialOracle
    forest: "ForestMembership | None" = None


# ---------------------------------------------------------------------------
# Layered oracles
# ---------------------------------------------------------------------------

class Step1Potential(PotentialOracle):
    """Potential after Step 1.

    Side-0 values pass through.  A side-1 vertex drops by one exactly when
    it is matched in the output matching and that matched edge was eligible
    (tight at c+1) under the input potential, i.e. the vertex lies on one
    of the augmenting paths.
    """

    def __init__(self, base: PotentialOracle, m_out: MatchingOracle,
                 cost: CostOracle, range_bound: int):
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


class Step2Potential(PotentialOracle):
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


class ForestMembership(MembershipOracle):
    """One growth layer of the quasi-maximal forest.

    ``kind='roots'`` is the base layer (free side-0 vertices of the
    iteration's matching).  ``kind='fwd'`` adds the partners matched to
    forest vertices by a forward-graph matching; ``kind='mate'`` then pulls
    in their mates under the template matching so matched edges never cross
    the forest boundary.
    """

    def __init__(self, n: int, kind: str, prev: "ForestMembership | None" = None,
                 matching: MatchingOracle | None = None):
        super().__init__(n)
        self.kind = kind
        self.prev = prev
        self.matching = matching

    def _contains_missing(self, us):
        if self.kind == "roots":
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


class StepAMembership(MembershipOracle):
    """The restriction set A = (forest on side 0) union (side 1 off-forest)."""

    def __init__(self, forest: MembershipOracle):
        super().__init__(forest.n)
        self.forest = forest

    def _contains_missing(self, us):
        inf = self.forest.contains_many(us)
        is1 = (us & 1).astype(bool)
        return np.where(is1, ~inf, inf)


class ThresholdedMatching(MatchingOracle):
    """The final matching with its most expensive edges cut at threshold w.

    ``mate(u)`` reports the base mate only for matched edges of cost at
    most w; the realized discarded fraction alpha_w (edges costing
    strictly more than w) is recorded at construction.  Integer costs tie
    heavily at the threshold, and dropping a whole tie block would gut the
    matching, so the boundary value is kept.
    """

    cache_mates = True

    def __init__(self, base: MatchingOracle, w: float, cost: CostOracle,
                 alpha_w: float):
        super().__init__(base.n)
        self.base = base
        self.w = float(w)
        self.cost = cost
        self.alpha_w = float(alpha_w)

    def _mates_impl(self, us):
        out = self.base.mates(us).copy()
        has = out != UNMATCHED
        if has.any():
            uu = us[has]
            vv = out[has]
            i = np.where((uu & 1) == 0, uu >> 1, vv >> 1)
            j = np.where((uu & 1) == 0, vv >> 1, uu >> 1)
            c = self.cost.pairs(i, j)
            drop = c > self.w
            sel = np.nonzero(has)[0][drop]
            out[sel] = UNMATCHED
        return out


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def step1(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Augment until no further short eligible path set is found.

    Eligibility during the loop is always with respect to phi_in and the
    current matching; the output potential is the layered Step-1 recipe.
    Returns (m_out, phi_out, rounds) where rounds counts successful
    augmentation calls.
    """
    m = m_in
    rounds = 0
    while True:
        nxt = backend.augment_eligible(phi_in, m, params.k, params.xi, cost)
        if nxt is None:
            break
        m = nxt
        rounds += 1
    phi_out = Step1Potential(phi_in, m, cost, params.range_bound)
    return m, phi_out, rounds


def step2(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Grow the quasi-maximal forest and shift potentials across it.

    The forest is a chain of membership layers over the matchings returned
    by successive forward-matching calls; the loop stops at the first
    bottom or after floor(k/2) layers, which caps the forest depth at k.
    Returns (phi_out, forest, layers).
    """
    n = cost.n
    forest = ForestMembership(n, "roots", matching=m_in)
    layers = 0
    max_layers = params.k // 2
    while layers < max_layers:
        A = StepAMembership(forest)
        m_t = backend.large_matching_forward(phi_in, A, params.delta, m_in, cost)
        if m_t is None:
            break
        grown = ForestMembership(n, "fwd", prev=forest, matching=m_t)
        forest = ForestMembership(n, "mate", prev=grown, matching=m_in)
        layers += 1
    phi_out = Step2Potential(phi_in, forest, params.range_bound)
    return phi_out, forest, layers


# ---------------------------------------------------------------------------
# Sampling estimator
# ---------------------------------------------------------------------------

def sample_size(gamma: float, C: int, n: int) -> int:
    raw = math.ceil(SAMPLE_SIZE_CONSTANT * (C / gamma) ** 2 * math.log(max(n, 2)))
    return min(raw, SAMPLE_SIZE_CAP)


def sample_and_estimate(matching: MatchingOracle, gamma: float, C: int, n: int,
                        seed, cost: CostOracle):
    """Trimmed-sum estimate of the matching cost from mate-oracle access.

    Samples |S| = ceil(48 (C/gamma)^2 ln n) matched edges with replacement
    by rejection-sampling side-0 vertices, discards the ceil(3 gamma |S|)
    most expensive samples and extrapolates: c_hat = (n / |S|) * sum(kept).
    Returns (c_hat, w, alpha_w) where w is the cheapest discarded value and
    alpha_w the exact fraction of matching edges costing > w.

    The sample is the first |S| matched draws of one stream of uniform
    side-0 indices.  The stream is drawn in pieces of
    min(max(2 (|S| - got), 64), ``_DRAW_PIECE``) indices and drawing stops
    at the |S|-th hit; numpy's bounded integer draws are the same whether
    taken in one call or in successive pieces, so how the stream is cut
    into pieces does not change the sample.

    The sample is kept as per-vertex draw counts, never as an |S|-long
    array: each distinct drawn edge's cost is read once, the distinct
    costs are sorted, and the kept prefix is rebuilt by repeating each cost
    by its count.  Which of several tied draws is dropped cannot change
    the kept values, so the sum is that of the sorted sample's prefix.
    """
    rng = np.random.default_rng(seed)
    s = sample_size(gamma, C, n)
    m0 = matching.mate_of_v0()
    matched = m0 != UNMATCHED
    if not matched.any():
        raise ValueError("cannot sample from an empty matching")
    unmatched = np.flatnonzero(~matched)
    counts = np.zeros(n, dtype=np.int64)
    got = 0
    while got < s:
        need = s - got
        piece = rng.integers(0, n, size=min(max(2 * need, 64), _DRAW_PIECE),
                             dtype=np.int32)
        piece_counts = np.bincount(piece, minlength=n)
        piece_counts[unmatched] = 0
        hits = int(piece_counts.sum())
        if hits > need:
            # the |S|-th hit lies inside this piece: count up to it only
            end = np.flatnonzero(matched[piece])[need - 1] + 1
            piece_counts = np.bincount(piece[:end], minlength=n)
            piece_counts[unmatched] = 0
            hits = need
        counts += piece_counts
        got += hits
    # read each distinct drawn edge's cost once, in ascending vertex order
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
    # realized discard fraction under the keep-ties-at-w rule, by exact scan
    rows = np.flatnonzero(matched)
    alpha_w = float(np.count_nonzero(cost.pairs(rows, m0[rows]) > w)) / n
    return c_hat, w, alpha_w


# ---------------------------------------------------------------------------
# The template driver
# ---------------------------------------------------------------------------

class _ValidatingCost(_AdapterCost):
    """Checks integrality and the [1, C] range at first access.

    The +inf non-edge sentinel passes through untouched.
    """

    def __init__(self, base: CostOracle, C: int):
        super().__init__(base)
        self.C = C

    def _map(self, vals):
        finite = np.isfinite(vals)
        bad = finite & ((vals < 1) | (vals > self.C) | (vals != np.rint(vals)))
        if bad.any():
            first = vals[bad].ravel()[0]
            raise ValueError(
                f"malformed cost: {first!r} is not an integer in [1, {self.C}]")
        return vals


@dataclass
class TemplateResult:
    estimate: float
    matching: ThresholdedMatching
    w: float
    alpha_w: float
    states: list[IterationState]
    trace: list[dict] = field(default_factory=list)


def _diagnostics(t, state, instance):
    """Per-iteration structured record (desk scale; uses uncounted reads)."""
    from .baseline import min_vertex_cover_bipartite
    n = instance.n
    m0 = state.matching.mate_of_v0()
    m1 = state.matching.mate_of_v1()
    f0 = np.nonzero(m0 == UNMATCHED)[0]
    f1 = np.nonzero(m1 == UNMATCHED)[0]
    phi0 = state.potential.on_v0()
    phi1 = state.potential.on_v1()
    spurious = int(np.count_nonzero(phi1[f1] != 0))
    dense = instance.cost.peek_dense()
    viol = (phi0[:, None] + phi1[None, :]) > dense + 1
    edges = list(zip(*np.nonzero(viol)))
    broken = len(min_vertex_cover_bipartite(n, n, edges)) if edges else 0
    return {
        "t": t,
        "free0": int(len(f0)),
        "spurious": spurious,
        "broken_vc": broken,
        "queries": instance.query_count,
        "phi0_on_free0": [int(x) for x in np.unique(phi0[f0])],
    }


def run_template(instance: BipartiteInstance, params: TemplateParams,
                 backend: Backend, seed=0, collect_trace: bool = False) -> TemplateResult:
    """Run T iterations of Step 1 / Step 2 and the trimmed sampling estimate.

    Costs must be integers in [1, params.C] (checked when read; the exact
    backend reads and checks them all once, up front); +inf marks a
    non-edge.  The internal rescale c <- c/gamma is folded into a
    lazy cost adapter used by the estimator, whose output is scaled back,
    so the returned estimate is in the instance's own cost units.

    ``collect_trace`` fills ``result.trace`` with one diagnostic record per
    iteration, each a dense read plus a vertex cover, so it is off by default.

    There is no small-n fallback: the template runs at every size.  The
    pipeline answers n < 1/gamma with the exact baseline before it gets
    here (``pipeline._degenerate_estimate``), and the padded instance it
    hands over is larger still.
    """
    n = instance.n
    cost = backend.prepare_cost(_ValidatingCost(instance.cost, params.C))
    matching: MatchingOracle = EmptyMatching(n)
    phi: PotentialOracle = ZeroPotential(n, params.range_bound)
    states = [IterationState(0, matching, phi)]
    trace = []
    for t in range(1, params.T + 1):
        matching, phi, s1_rounds = step1(phi, matching, params, cost, backend)
        phi, forest, s2_layers = step2(phi, matching, params, cost, backend)
        state = IterationState(t, matching, phi, forest)
        states.append(state)
        if collect_trace:
            rec = _diagnostics(t, state, instance)
            rec["step1_rounds"] = s1_rounds
            rec["step2_layers"] = s2_layers
            trace.append(rec)
    if matching.size() == 0:
        # nothing ever became eligible: the estimate of an empty matching is 0
        thresholded = ThresholdedMatching(matching, float("inf"), cost, 0.0)
        return TemplateResult(0.0, thresholded, float("inf"), 0.0, states, trace)
    rescaled = ScaledCost(cost, 1.0 / params.gamma)
    c_hat_r, w_r, alpha_w = sample_and_estimate(
        matching, params.gamma, params.C, n, seed, rescaled)
    c_hat = params.gamma * c_hat_r      # back to instance units
    w = params.gamma * w_r
    if np.isfinite(w) and abs(w - round(w)) < 1e-6:
        w = float(round(w))  # costs are integers; undo rescale float fuzz
    thresholded = ThresholdedMatching(matching, w, cost, alpha_w)
    return TemplateResult(c_hat, thresholded, w, alpha_w, states, trace)
