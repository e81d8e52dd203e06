"""The primal-dual template on integer costs in [1, C].

One iteration is Step 1 (augment the matching along a quasi-maximal set of
short eligible augmenting paths, then drop the potential of the newly
matched side-1 vertices) followed by Step 2 (grow a quasi-maximal forest
of eligible edges rooted at the free side-0 vertices, then raise the
potential of its side-0 vertices and lower its side-1 vertices).  After T
iterations the matched edges' costs, in the input's own units, are sampled
with replacement, the top 3*gamma fraction of the samples is discarded and
the trimmed sum is extrapolated to the whole matching.

Each iteration's matching, potential and forest are held as per-side
arrays over V0 and V1, read-only and shared with the states before them:
Step 1's potential is the previous one with the rematched side-1 vertices
lowered, and Step 2 grows its forest by gathers over the matchings.  No
cost is read for them.  An iteration that changes nothing returns the
objects it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LEVEL_SENTINEL, UNMATCHED, ArrayMatching, BipartiteInstance, CostOracle,
    EmptyMatching, LevelCost, LevelMatrix, MatchingOracle, MembershipOracle,
    PotentialOracle, ZeroPotential, _AdapterCost,
)
from .mcm import Backend

__all__ = [
    "TemplateParams", "IterationState", "Forest", "TemplateResult", "run_template",
    "step1", "step2", "sample_and_estimate", "SAMPLE_SIZE_CONSTANT", "MAX_T",
]

#: multiplier `a` in |S| = ceil(a * (C/gamma)^2 * ln n); chosen so the
#: multiplicative Chernoff bound on the discarded fraction fails with
#: probability <= n^-3.
SAMPLE_SIZE_CONSTANT = 48

#: the largest T: potentials stay in phi0 in [0, T] and phi1 in [-2T, 0], so
#: every sum the eligibility test forms, (phi0 - 1) + phi1 and phi0 + phi1,
#: lies in [-2T - 1, T] and fits an int16 without reaching LEVEL_SENTINEL
MAX_T = (LEVEL_SENTINEL - 1) // 2


@dataclass(frozen=True)
class TemplateParams:
    """Template knobs: small (T, k) set by the caller.

    The paper's constants (T = C / gamma^3, k = 6000 (2T+1)^10 / delta^5)
    are far too large to run, so T and k are practical values and the one
    slack is derived as xi = gamma / T.  It serves both of the paper's
    slacks: Step 1's bar (xi n / k paths) and Step 2's density (delta).
    T above ``MAX_T`` (16383) or C at or above ``LEVEL_SENTINEL`` (32767)
    raises: the exact backend holds the levels and potentials in int16.
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
        if self.T > MAX_T:
            raise ValueError(f"T must be <= {MAX_T}")
        if self.C >= LEVEL_SENTINEL:
            raise ValueError(f"C must be < {LEVEL_SENTINEL}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def xi(self) -> float:
        return self.gamma / self.T

    @property
    def range_bound(self) -> int:
        # potentials move by at most 1 per iteration, so phi is a
        # (2T+1)-potential throughout
        return 2 * self.T + 1

    @classmethod
    def practical(cls, gamma: float, C: int, T: int, k: int) -> "TemplateParams":
        return cls(gamma, C, T, k)


class Forest(MembershipOracle):
    """Step 2's forest: its membership arrays and, in ``forward``, the
    forward-graph matchings of its layers in growth order."""

    def __init__(self, in0, in1, forward: tuple[MatchingOracle, ...] = ()):
        super().__init__(in0, in1)
        self.forward = forward


@dataclass
class IterationState:
    """Snapshot after iteration t: the matching, potential and forest."""

    t: int
    matching: MatchingOracle
    potential: PotentialOracle
    forest: Forest | None = None


def _grow(in0, in1, matching: MatchingOracle):
    """The forest plus every vertex whose mate under ``matching`` is in it."""
    m0, m1 = matching.mate_of_v0(), matching.mate_of_v1()
    # an unmatched vertex's index of -1 gathers the last entry; the mask drops it
    return (in0 | ((m0 != UNMATCHED) & in1[m0]),
            in1 | ((m1 != UNMATCHED) & in0[m1]))


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def step1(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Augment until no further short eligible path set is found.

    Eligibility during the loop is always with respect to phi_in and the
    current matching.  The loop runs only while the matching has a free
    side-0 vertex, the start every augmenting path needs, so a perfect
    matching passes through with no backend call; on the exact backend
    the rounds share one eligibility snapshot (see
    :meth:`Backend.augment_eligible`).

    The output potential reads no cost: side 0 passes through, and a
    side-1 vertex drops by one exactly when its mate changed, that is when
    it lies on one of the augmenting paths.  This is the paper's recipe
    (drop the vertices whose matched edge is eligible, tight at c + 1,
    under phi_in) because every matched edge of ``m_in`` is tight: Step 1
    leaves its new edges tight, and Step 2 moves both ends of a matched
    edge together.  A column's mate changes at most once per Step 1, since
    inner hops take only tight matched edges, so every changed mate is
    along an eligible edge and every unchanged one tight.  A Step 1 that
    augments nothing returns ``m_in`` and ``phi_in`` themselves.

    Returns (m_out, phi_out, rounds) where rounds counts successful
    augmentation calls.
    """
    m = m_in
    rounds = 0
    while np.any(m.mate_of_v0() == UNMATCHED):
        nxt = backend.augment_eligible(phi_in, m, params.k, params.xi, cost)
        if nxt is None:
            break
        m = nxt
        rounds += 1
    if m is m_in:
        return m_in, phi_in, 0
    moved = m.mate_of_v1() != m_in.mate_of_v1()
    return m, PotentialOracle(phi_in.phi0, phi_in.phi1 - moved, params.range_bound), rounds


def step2(phi_in: PotentialOracle, m_in: MatchingOracle, params: TemplateParams,
          cost: CostOracle, backend: Backend):
    """Grow the quasi-maximal forest and shift potentials across it.

    The forest starts at the free side-0 vertices.  Each layer is one
    forward-matching call inside A = (forest on side 0) + (side 1 off the
    forest), after which the forest takes in the vertices matched to it by
    the forward matching and then their mates under ``m_in``, so matched
    edges never cross the forest boundary.  The loop stops at the first
    bottom or after floor(k/2) layers, which caps the forest depth at k.
    The potential then rises by 1 on the forest's side 0 and drops by 1 on
    its side 1.  A matching with no free side-0 vertex gives the forest no
    root, so it grows no layer, makes no backend call and returns
    ``phi_in`` itself.  Returns (phi_out, forest, layers), the forest a
    :class:`Forest` that keeps its layers' forward matchings.
    """
    in0 = m_in.mate_of_v0() == UNMATCHED
    in1 = np.zeros(cost.n, dtype=bool)
    if not in0.any():
        return phi_in, Forest(in0, in1), 0
    forward = []
    while len(forward) < params.k // 2:
        A = MembershipOracle(in0, ~in1)
        m_t = backend.large_matching_forward(phi_in, A, params.xi, m_in, cost)
        if m_t is None:
            break
        forward.append(m_t)
        in0, in1 = _grow(*_grow(in0, in1, m_t), m_in)
    phi_out = PotentialOracle(phi_in.phi0 + in0, phi_in.phi1 - in1, params.range_bound)
    return phi_out, Forest(in0, in1, tuple(forward)), len(forward)


# ---------------------------------------------------------------------------
# Sampling estimator
# ---------------------------------------------------------------------------

def sample_size(gamma: float, C: int, n: int) -> int:
    return math.ceil(SAMPLE_SIZE_CONSTANT * (C / gamma) ** 2 * math.log(max(n, 2)))


def sample_and_estimate(matching: MatchingOracle, gamma: float, C: int, n: int,
                        seed, cost: CostOracle, level=None):
    """Trimmed-sum estimate of the matching cost from mate-oracle access.

    Draws |S| = ceil(48 (C/gamma)^2 ln n) of the |M| matched edges uniformly
    with replacement, as per-row draw counts from one multinomial over the
    matched side-0 rows, discards the ceil(3 gamma |S|) most expensive draws
    and extrapolates the rest: c_hat = (|M| / |S|) * sum(kept).  The kept
    sum is the dot product of the drawn edges' sorted costs with their kept
    counts; which of several tied draws is dropped cannot change it.

    ``cost`` is read once per matched edge, and that one read serves the
    draw, w, alpha_w and the thresholded matching.  Returns
    (c_hat, w, alpha_w, thresholded), c_hat and w in ``cost``'s units: w
    is the cheapest discarded draw's cost (+inf when nothing is discarded)
    and ``thresholded`` an :class:`ArrayMatching` of the matched edges kept
    by the cut at w, whose ``base`` is ``matching``; alpha_w is the
    fraction of the matched edges the cut drops.  The cut drops the edges
    costing more than w, or, when ``level`` maps costs to the levels the
    matching was built on, the edges at a level above w's: edges tied with
    w at its level are kept, so the cut drops at most the edges above the
    discarded draws' cheapest level.
    """
    rng = np.random.default_rng(seed)
    s = sample_size(gamma, C, n)
    m0 = matching.mate_of_v0()
    rows = np.flatnonzero(m0 != UNMATCHED)
    if len(rows) == 0:
        raise ValueError("cannot sample from an empty matching")
    cols = m0[rows]
    costs = cost.pairs(rows, cols)
    counts = rng.multinomial(s, np.full(len(rows), 1.0 / len(rows)))
    drawn = np.flatnonzero(counts)
    drawn = drawn[np.argsort(costs[drawn], kind="stable")]
    sorted_costs = costs[drawn]
    cum = np.cumsum(counts[drawn])
    d = min(math.ceil(3 * gamma * s), s)
    keep = s - d
    kept = np.diff(np.minimum(cum, keep), prepend=0)
    c_hat = (len(rows) / s) * float(sorted_costs @ kept)
    w = float(sorted_costs[np.searchsorted(cum, keep, side="right")]) if d > 0 else math.inf
    if level is None:
        over = costs > w
    else:
        over = level(costs) > level(np.float64(w))
    alpha_w = float(np.count_nonzero(over)) / len(rows)
    mate0 = np.full(n, UNMATCHED, dtype=np.int64)
    mate1 = mate0.copy()
    mate0[rows[~over]] = cols[~over]
    mate1[cols[~over]] = rows[~over]
    return c_hat, w, alpha_w, ArrayMatching(mate0, mate1, matching)


# ---------------------------------------------------------------------------
# The template driver
# ---------------------------------------------------------------------------

class _ValidatingCost(_AdapterCost):
    """Checks integrality and the [1, C] range of a cost at first access;
    the +inf non-edge passes, NaN and -inf are malformed."""

    def __init__(self, base: CostOracle, C: int):
        super().__init__(base)
        self.C = C

    def _map(self, vals):
        # NaN fails rint equality, -inf the lower bound
        bad = (vals != np.inf) & ((vals < 1) | (vals > self.C) | (vals != np.rint(vals)))
        if bad.any():
            first = float(vals[bad].ravel()[0])
            raise ValueError(f"malformed cost: {first!r} is not an integer in [1, {self.C}]")
        return vals


@dataclass
class TemplateResult:
    estimate: float
    matching: MatchingOracle
    w: float
    alpha_w: float
    states: list[IterationState]
    iterations: list[dict]
    trace: list[dict] = field(default_factory=list)


def _diagnostics(t, state, instance):
    """Per-iteration structured record (desk scale; uses uncounted reads)."""
    from .baseline import min_vertex_cover_bipartite
    n = instance.n
    m0 = state.matching.mate_of_v0()
    m1 = state.matching.mate_of_v1()
    f0 = np.nonzero(m0 == UNMATCHED)[0]
    f1 = np.nonzero(m1 == UNMATCHED)[0]
    phi0 = state.potential.phi0
    phi1 = state.potential.phi1
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

    Costs must be integers in [1, params.C], +inf marking a non-edge: a
    ``LevelCost`` with ``C <= params.C`` is so by construction, and any
    other cost is checked when read (on the exact backend all at once).
    The iterations run on these levels, which the exact backend holds as
    an int16 :class:`LevelMatrix` (:meth:`Backend.prepare_levels`); the
    estimate and w are read by :func:`sample_and_estimate` in the
    instance's own units: from a ``LevelCost``'s ``readout`` (each real
    pair's base cost, 0 on pairs that touch a dummy), and from the checked
    cost otherwise, as float64 and with no further counted read.  So
    the estimate is the trimmed sample of the final matching's costs,
    extrapolated by |M| / |S|.  ``result.matching`` is an
    :class:`ArrayMatching` of the final matching's edges at a level no
    higher than w's, edges tied with w at its level kept, and alpha_w the
    fraction cut; its ``base`` is the untrimmed final matching, also when
    that is empty and the estimate 0.

    ``result.iterations`` holds one cheap record per iteration, always:
    ``t``, Step 1's successful rounds (``step1_rounds``), Step 2's forest
    layers (``step2_layers``), whether they hit the cap of k // 2
    (``step2_capped``) and the pairs of the matching after the iteration,
    dummies included (``matched``).  ``collect_trace`` fills
    ``result.trace`` with the same records plus diagnostics, each a dense
    read and a vertex cover, so it is off by default.

    There is no small-n fallback: the template runs at every size.  The
    pipeline answers n < 1/gamma with the exact baseline before it gets
    here (``pipeline._degenerate_estimate``), and the padded instance it
    hands over is larger still.
    """
    n = instance.n
    cost = instance.cost
    if isinstance(cost, LevelCost) and cost.C <= params.C:
        readout, level = cost.readout, cost.level
        cost = backend.prepare_levels(cost)
    else:
        cost = backend.prepare_levels(_ValidatingCost(cost, params.C))
        # the costs are their own levels, read back as float64 from an int16 matrix
        readout = cost.readout if isinstance(cost, LevelMatrix) else cost
        level = None
    matching: MatchingOracle = EmptyMatching(n)
    phi: PotentialOracle = ZeroPotential(n, params.range_bound)
    states = [IterationState(0, matching, phi)]
    iterations, trace = [], []
    for t in range(1, params.T + 1):
        matching, phi, s1_rounds = step1(phi, matching, params, cost, backend)
        phi, forest, s2_layers = step2(phi, matching, params, cost, backend)
        state = IterationState(t, matching, phi, forest)
        states.append(state)
        iterations.append({"t": t, "step1_rounds": s1_rounds, "step2_layers": s2_layers,
                           "step2_capped": s2_layers == params.k // 2,
                           "matched": matching.size()})
        if collect_trace:
            trace.append({**_diagnostics(t, state, instance), **iterations[-1]})
    if matching.size() == 0:
        # nothing ever became eligible: the estimate of an empty matching is 0
        unmatched = np.full(n, UNMATCHED, dtype=np.int64)
        return TemplateResult(0.0, ArrayMatching(unmatched, unmatched.copy(), matching),
                              math.inf, 0.0, states, iterations, trace)
    c_hat, w, alpha_w, thresholded = sample_and_estimate(
        matching, params.gamma, params.C, n, seed, readout, level)
    return TemplateResult(c_hat, thresholded, w, alpha_w, states, iterations, trace)
