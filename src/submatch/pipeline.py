"""Reductions composing the template into the full estimator.

The stack, in order: find a characteristic cost w_bar by sampling a cost
ladder and binary-searching it with approximate matching-size probes;
read the root through one :class:`core.LevelCost`, which in one pass drops
every edge above w_bar, rounds the rest to integers in [1, C] and pads
both sides with dummies so a size-beta matching becomes an (almost)
perfect one; run the template on those levels, which reads its estimate
through the level cost's ``readout``, the real edges' own costs with the
dummy pairs at 0, so the estimate is already in the input's units.  A
budgeted max-matching search (grid over target sizes with the
estimator as a monotone certificate) sits on top.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, CostOracle, EmptyMatching, LevelCost,
    MatchingOracle, _AdapterCost, _reject_negative, as_seed_sequence, seed_label,
)
from .mcm import Backend
from .template import MAX_T, TemplateParams, run_template

__all__ = [
    "ReductionConfig", "CharacteristicCost", "find_characteristic_cost",
    "RoundedCost", "round_costs", "PaddedInstance", "pad_dummies",
    "PipelineResult", "estimate_min_weight_matching", "max_matching_under_budget",
    "DEFAULT_T", "DEFAULT_K",
]

#: defaults when the caller does not pin (T, k); chosen so
#: the usable dual range T covers the rounded cost levels C = T - 1 with a
#: resolution fine enough for desk-scale accuracy at tolerable runtime
DEFAULT_T = 42
DEFAULT_K = 7


@dataclass(frozen=True)
class ReductionConfig:
    """Target window [alpha, beta] and the reduction slack gamma.

    The reduction lemmas need their internal slack strictly below
    (beta - alpha) / 4; ``gamma_effective`` derives a compliant value from
    the requested gamma, so callers may pass a coarser gamma (the knapsack
    and acceptance parameterizations do) without violating the range
    invariants.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < self.beta <= 1.0:
            raise ValueError("need 0 <= alpha < beta <= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")

    @property
    def gamma_effective(self) -> float:
        return min(self.gamma, (self.beta - self.alpha) / 5.0)

    @property
    def padding_slack(self) -> float:
        # beta = 1, alpha = 1 - gamma is the EMD case: gamma/2 with margin
        return min(self.gamma / 2.0, (self.beta - self.alpha) / 2.0)


# ---------------------------------------------------------------------------
# Characteristic cost
# ---------------------------------------------------------------------------

@dataclass
class CharacteristicCost:
    w_bar: float
    ladder: np.ndarray = field(repr=False)
    probes: int = 0


def find_characteristic_cost(instance: BipartiteInstance, config: ReductionConfig,
                             backend: Backend, seed=0) -> CharacteristicCost:
    """Sample a cost ladder and binary-search the matching-size threshold.

    Returns the largest sampled cost w_i whose gamma*w_i threshold graph
    still has approximate matching size below (beta - 2*gamma) * n, or the
    smallest ladder value when none qualifies.

    Each probe asks only whether its size reaches the bar, so it passes
    ``need`` = ceil((beta - 2*gamma) * n): a size below ``need`` is the
    backend's size, and one at or above it may stop there.  On the
    exact backend a size below ``need`` is the maximum, however the probe
    was started or answered (see :meth:`Backend.approx_match`), so the
    probes and w_bar are those of cold, full Hopcroft-Karp runs; the
    probes' matchings are discarded.
    """
    n = instance.n
    g = config.gamma_effective
    rng = np.random.default_rng(seed)
    s = max(1, math.ceil(n * math.log(max(n, 2)) / g))
    is_ = rng.integers(0, n, size=s)
    js = rng.integers(0, n, size=s)
    ladder = np.sort(instance.cost.pairs(is_, js))
    if np.isnan(ladder[-1]):  # np.sort puts NaN last
        raise ValueError("malformed cost: the sampled costs include NaN")
    _reject_negative(ladder)
    # sizes are integers, so size < (beta - 2 gamma) n is size < need
    need = math.ceil((config.beta - 2.0 * g) * n)
    probes = 0

    def sparse(idx: int) -> bool:
        nonlocal probes
        probes += 1
        size, _ = backend.approx_match(instance.cost, g * float(ladder[idx]), need)
        return size < need

    lo, hi = 0, s - 1
    if not sparse(lo):
        return CharacteristicCost(float(ladder[0]), ladder, probes)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sparse(mid):
            lo = mid
        else:
            hi = mid - 1
    return CharacteristicCost(float(ladder[lo]), ladder, probes)


# ---------------------------------------------------------------------------
# Rounding and dummy padding, each alone
# ---------------------------------------------------------------------------

class RoundedCost(LevelCost):
    """:class:`LevelCost` with no dummies and C = ceil(2 / gamma^2) + 2."""

    def __init__(self, base: CostOracle, gamma: float, w: float):
        super().__init__(base, gamma, w, math.ceil(2.0 / gamma ** 2) + 2)


def round_costs(cost: CostOracle, gamma: float, w: float) -> RoundedCost:
    return RoundedCost(cost, gamma, w)


@dataclass
class PaddedInstance:
    instance: BipartiteInstance
    n_real: int
    dummies: int


def pad_dummies(instance: BipartiteInstance, beta: float, xi_pad: float) -> PaddedInstance:
    """Add (1 - beta + xi_pad) * n dummies per side (at least one)."""
    if not xi_pad > 0:  # also rejects NaN
        raise ValueError("xi_pad must be positive")
    n = instance.n
    d = max(1, math.ceil((1.0 - beta + xi_pad) * n))
    padded = BipartiteInstance(n + d, _AdapterCost(instance.cost, n + d))
    return PaddedInstance(padded, n, d)


# ---------------------------------------------------------------------------
# The composed estimator
# ---------------------------------------------------------------------------

def _template_budget(T: int | None, k: int | None) -> tuple[int, int]:
    """(T, k) with the defaults filled in; T < 4, T > ``MAX_T`` (16383) or
    k < 1 raises ``ValueError``."""
    T, k = DEFAULT_T if T is None else T, DEFAULT_K if k is None else k
    if T < 4:
        raise ValueError("T must be >= 4")
    if T > MAX_T:
        raise ValueError(f"T must be <= {MAX_T}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return T, k


@dataclass
class PipelineResult:
    estimate: float
    matching: MatchingOracle
    report: dict
    stages: SimpleNamespace = field(repr=False, default=None)


def estimate_min_weight_matching(instance: BipartiteInstance, config: ReductionConfig,
                                 backend: Backend, seed=0,
                                 T: int | None = None, k: int | None = None,
                                 collect_trace: bool = False) -> PipelineResult:
    """Estimate the min cost of a size-beta*n matching down to size-alpha*n.

    The rounding resolution is coupled to the iteration budget: with T
    template iterations the potentials span T levels, so costs are rounded
    to C = T - 1 integer levels.  The rounding gamma is back-derived from
    C as sqrt(2 / (C - 2)), which puts w_bar at level C - 1 (level C
    under float fuzz), and the template, the report and the template's
    cost (``stages.padded.instance.cost.C``) use C itself.

    ``report["matched_fraction"]`` is the exact matched size over n of the
    returned matching, an :class:`ArrayMatching` on the real vertices whose
    ``base`` is the template's matching (``stages.template.matching``).  It
    holds the template's final matching on the real pairs, less the edges
    at a level above w's (``stages.template.alpha_w`` of them; the discarded
    draws are 3 gamma_effective of the sample, and edges tied with w at its
    level stay).  Nothing forces it to alpha * n; on uniform instances at
    the defaults it holds about 0.9 n on both backends.  ``stages.prepared``
    is the instance over ``backend.prepare_cost``'s cost, degenerate sizes
    included; a later call on it with the same backend reads no cost again.

    The estimate is the template's, read in the input's units: a trimmed
    sample of the real edges' costs in its final matching, extrapolated by
    the matched size, with every edge to a dummy counting 0.  So at
    w_bar = 0, where every real edge left after thresholding costs 0, the
    answer is 0.  At w_bar = +inf every sampled cost is +inf, so
    c(M^{beta n}) is +inf: the answer is +inf with an empty matching, and
    the template does not run.

    T < 4, T > 16383 or k < 1 raises ``ValueError`` before any cost is
    read, at degenerate sizes too.
    """
    T, k = _template_budget(T, k)
    n = instance.n
    g = config.gamma_effective
    seq = as_seed_sequence(seed)
    seeds = seq.spawn(4)  # seeds[0], seeds[1] used; a caller's sequence advances by 4
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    instance = BipartiteInstance(n, backend.prepare_cost(instance.cost))
    if n < 1.0 / g:
        return _degenerate_estimate(instance, config, seed, timings, t0)
    C = T - 1
    tparams = TemplateParams.practical(g, C, T, k)

    characteristic = find_characteristic_cost(instance, config, backend, seeds[0])
    timings["characteristic"] = time.perf_counter() - t0
    w_bar = max(characteristic.w_bar, 1e-300)  # all-zero ladders stay usable

    if w_bar == math.inf:
        estimate, matching = math.inf, EmptyMatching(n)
        stages = SimpleNamespace(prepared=instance, characteristic=characteristic,
                                 template_params=tparams, config=config)
    else:
        t1 = time.perf_counter()
        padded = pad_dummies(instance, config.beta, config.padding_slack)
        # the template reads the root through one oracle of the padded size
        levels = LevelCost(instance.cost, math.sqrt(2.0 / (C - 2)), w_bar, C,
                           padded.instance.n)
        padded = replace(padded, instance=BipartiteInstance(levels.n, levels))
        timings["reductions"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        tres = run_template(padded.instance, tparams, backend,
                            seed=seeds[1], collect_trace=collect_trace)
        timings["template"] = time.perf_counter() - t2

        estimate = tres.estimate
        # the real vertices' pairs; a pair with a dummy leaves both unmatched
        m0, m1 = tres.matching.mate_of_v0()[:n], tres.matching.mate_of_v1()[:n]
        matching = ArrayMatching(np.where(m0 < n, m0, UNMATCHED),
                                 np.where(m1 < n, m1, UNMATCHED), tres.matching)
        stages = SimpleNamespace(
            prepared=instance, characteristic=characteristic, padded=padded,
            template=tres, template_params=tparams, config=config)
    report = {
        "alpha": config.alpha,
        "beta": config.beta,
        "gamma": config.gamma,
        "gamma_effective": g,
        "w_bar": w_bar,
        "C": C,
        "T": tparams.T,
        "k": tparams.k,
        "estimate": estimate,
        "matched_fraction": matching.size() / n,
        "total_queries": instance.query_count,
        "backend": backend.variant,
        "seed": seed_label(seed),
        "stage_timings": timings,
        "degenerate": False,
    }
    return PipelineResult(estimate, matching, report, stages)


def _floor_size(fraction: float, n: int) -> int:
    """floor(fraction * n) without the float fuzz of the product: 0.7 * 90
    is 62.99999999999999, and 70% of 90 vertices is 63."""
    return math.floor(fraction * n + 1e-9)


def _degenerate_estimate(instance, config, seed, timings, t0):
    """n below 1/gamma: answer with the exact baseline directly."""
    from .baseline import exact_min_weight_k_matching
    n = instance.n
    k_target = _floor_size(config.beta, n)
    dense = instance.cost.dense()
    res = exact_min_weight_k_matching(dense, k_target)
    matching = ArrayMatching.from_pairs(n, res.witness)
    timings["baseline"] = time.perf_counter() - t0
    report = {
        "alpha": config.alpha, "beta": config.beta, "gamma": config.gamma,
        "gamma_effective": config.gamma_effective,
        "w_bar": None, "C": None, "T": 0, "k": 0,
        "estimate": res.value, "matched_fraction": k_target / n,
        "total_queries": instance.query_count, "backend": "baseline",
        "seed": seed_label(seed), "stage_timings": timings, "degenerate": True,
    }
    return PipelineResult(res.value, matching, report,
                          SimpleNamespace(prepared=instance, baseline=res))


# ---------------------------------------------------------------------------
# Knapsack matching
# ---------------------------------------------------------------------------

def max_matching_under_budget(instance: BipartiteInstance, B: float, gamma: float,
                              backend: Backend, seed=0,
                              T: int | None = None, k: int | None = None) -> float:
    """Estimate the max size of a matching of total cost <= B, within gamma*n.

    Grid-search over target fractions xi in {0, gamma/4, gamma/2, ..., 1}:
    an estimator run at (alpha, beta) = (xi - gamma/4, xi) returning
    c_hat <= B certifies a size-(xi - gamma/4) n matching within budget,
    while c_hat > B certifies that no size-xi n matching fits.  The
    certificates are monotone in xi, so a binary search over the grid
    suffices; per-grid-point seeds depend only on the grid index, which
    makes the search monotone in B for a fixed master seed.  The first
    estimator call prepares the cost (``stages.prepared``; on the exact
    backend one n^2 read per answer), and every later grid point runs on
    that prepared instance.
    """
    if not B >= 0:  # also rejects NaN; B = inf is a valid budget
        raise ValueError(f"budget B must be nonnegative, got {B!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma!r}")
    n = instance.n
    step = gamma / 4.0
    m = int(math.floor(1.0 / step))
    grid = [i * step for i in range(m + 1)]
    if grid[-1] < 1.0:
        grid.append(1.0)
    seq = as_seed_sequence(seed)
    sub = seq.spawn(len(grid))

    def fits(idx: int) -> bool:
        nonlocal instance
        xi = min(grid[idx], 1.0)  # guard float accumulation at the top point
        if xi <= 0.0:
            return True  # the empty matching always fits
        config = ReductionConfig(max(xi - step, 0.0), xi, gamma)
        res = estimate_min_weight_matching(instance, config, backend,
                                           seed=sub[idx], T=T, k=k)
        instance = res.stages.prepared
        return res.estimate <= B

    lo, hi = 0, len(grid) - 1
    if fits(hi):
        return grid[hi] * n
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return grid[lo] * n
