"""Reductions composing the template into the full estimator.

The stack, in order: find a characteristic cost w_bar by sampling a cost
ladder and binary-searching it with approximate matching-size probes;
drop every edge above w_bar; round the survivors to integers in [1, C];
pad both sides with dummy vertices so a size-beta matching becomes an
(almost) perfect matching; run the template; undo the padding offset and
the rounding scale.  A budgeted max-matching search (grid over target
sizes with the estimator as a monotone certificate) sits on top.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .core import (
    UNMATCHED, BipartiteInstance, CostOracle, MatchingOracle,
    ThresholdedCostView, _AdapterCost, as_seed_sequence, seed_label,
)
from .mcm import Backend
from .template import TemplateParams, run_template

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


def _reject_negative(vals: np.ndarray):
    neg = vals < 0
    if neg.any():
        raise ValueError(f"malformed cost: negative cost {float(vals[neg][0])!r}; "
                         "costs must be non-negative")


def find_characteristic_cost(instance: BipartiteInstance, config: ReductionConfig,
                             backend: Backend, seed=0) -> CharacteristicCost:
    """Sample a cost ladder and binary-search the matching-size threshold.

    Returns the largest sampled cost w_i whose gamma*w_i threshold graph
    still has approximate matching size below (beta - 2*gamma) * n, or the
    smallest ladder value when none qualifies.
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
    bar = (config.beta - 2.0 * g) * n
    probes = 0

    def sparse(idx: int) -> bool:
        nonlocal probes
        probes += 1
        size, _ = backend.approx_match(instance.cost, g * float(ladder[idx]))
        return size < bar

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
# Rounding
# ---------------------------------------------------------------------------

class RoundedCost(_AdapterCost):
    """Lazy integer rounding c_bar = ceil(2 c / (gamma^2 w)) + 1.

    Finite inputs above w are clamped to w and counted (the composed
    pipeline thresholds first, so none occur there); +inf passes through
    as a non-edge.  The scale-back factor gamma^2 w / 2 satisfies
    c <= (gamma^2 w / 2) * c_bar <= c + gamma^2 w edge by edge.  Levels
    lie in [1, C] with C = ceil(2 / gamma^2) + 2, one above the level of w,
    so float fuzz in 2 c / (gamma^2 w) cannot push a level past C.
    """

    def __init__(self, base: CostOracle, gamma: float, w: float):
        super().__init__(base)
        self.gamma = float(gamma)
        self.w = float(w)
        if not self.w > 0:  # NaN fails this test too
            raise ValueError(f"w must be positive, not {w!r}")
        self.C = math.ceil(2.0 / gamma ** 2) + 2
        self.scale_back = gamma ** 2 * w / 2.0
        self.clamped = 0

    def _map(self, vals):
        _reject_negative(vals)
        finite = np.isfinite(vals)
        over = finite & (vals > self.w)
        if over.any():
            self.clamped += int(over.sum())
            vals = np.where(over, self.w, vals)
        return np.where(finite, np.ceil(2.0 * vals / (self.gamma ** 2 * self.w)) + 1.0,
                        np.inf)


def round_costs(cost: CostOracle, gamma: float, w: float) -> RoundedCost:
    return RoundedCost(cost, gamma, w)


# ---------------------------------------------------------------------------
# Dummy padding
# ---------------------------------------------------------------------------

class _PaddedCost(_AdapterCost):
    """Dummy-real edges cost 1; dummy-dummy pairs are non-edges (+inf)."""

    def __init__(self, base: CostOracle, n_real: int, n_padded: int):
        super().__init__(base, n_padded)
        self.n_real = n_real

    def _block(self, rows, cols, counted):
        out = np.empty((len(rows), len(cols)), dtype=np.float64)
        r_real = rows < self.n_real
        c_real = cols < self.n_real
        out[np.ix_(r_real, ~c_real)] = 1.0
        out[np.ix_(~r_real, c_real)] = 1.0
        out[np.ix_(~r_real, ~c_real)] = np.inf
        if r_real.any() and c_real.any():
            out[np.ix_(r_real, c_real)] = self.base._block(
                rows[r_real], cols[c_real], counted)
        return out

    def _pairs(self, is_, js, counted):
        r_real = is_ < self.n_real
        c_real = js < self.n_real
        out = np.where(r_real ^ c_real, 1.0, np.inf)
        both = r_real & c_real
        if both.any():
            out[both] = self.base._pairs(is_[both], js[both], counted)
        return out


class FilteredMatching(MatchingOracle):
    """Unpadded view of a padded matching: any pair touching a dummy is dropped."""

    cache_mates = True

    def __init__(self, base: MatchingOracle, n_real: int):
        super().__init__(n_real)
        self.base = base
        self.n_real = n_real

    def _mates_impl(self, us):
        out = self.base.mates(us)
        out = np.where((us >> 1) >= self.n_real, UNMATCHED, out)
        return np.where((out >> 1) >= self.n_real, UNMATCHED, out)


@dataclass
class PaddedInstance:
    instance: BipartiteInstance
    n_real: int
    dummies: int
    offset: float  # template-unit estimate correction


def pad_dummies(instance: BipartiteInstance, beta: float, xi_pad: float) -> PaddedInstance:
    """Add (1 - beta + xi_pad) * n dummies per side (at least one).

    The estimate offset (2 - 2 beta + xi_pad) * n is expressed through the
    realized integer dummy count d as 2 d - xi_pad * n, so rounding d up
    never desynchronizes the correction.
    """
    if not xi_pad > 0:  # also rejects NaN
        raise ValueError("xi_pad must be positive")
    n = instance.n
    d = max(1, math.ceil((1.0 - beta + xi_pad) * n))
    n_padded = n + d
    padded = BipartiteInstance(n_padded, _PaddedCost(instance.cost, n, n_padded))
    offset = 2.0 * d - xi_pad * n
    return PaddedInstance(padded, n, d, offset)


# ---------------------------------------------------------------------------
# The composed estimator
# ---------------------------------------------------------------------------

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
    under float fuzz), and the template and the report use C itself.

    ``report["matched_fraction"]`` is the exact matched size over n, read
    through the returned matching (at most n cost reads).
    """
    n = instance.n
    g = config.gamma_effective
    seq = as_seed_sequence(seed)
    seeds = seq.spawn(4)  # seeds[0], seeds[1] used; a caller's sequence advances by 4
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    if n < 1.0 / g:
        return _degenerate_estimate(instance, config, seed, timings, t0)
    instance = BipartiteInstance(n, backend.prepare_cost(instance.cost))

    characteristic = find_characteristic_cost(instance, config, backend, seeds[0])
    timings["characteristic"] = time.perf_counter() - t0
    w_bar = max(characteristic.w_bar, 1e-300)  # all-zero ladders stay usable

    t1 = time.perf_counter()
    thresholded = ThresholdedCostView(instance.cost, w_bar)
    T = DEFAULT_T if T is None else T
    k = DEFAULT_K if k is None else k
    if T < 4:
        raise ValueError("T must be >= 4")
    C = T - 1
    rounded = round_costs(thresholded, math.sqrt(2.0 / (C - 2)), w_bar)
    tparams = TemplateParams.practical(g, C, T, k)
    padded = pad_dummies(BipartiteInstance(n, rounded), config.beta,
                         config.padding_slack)
    timings["reductions"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    tres = run_template(padded.instance, tparams, backend,
                        seed=seeds[1], collect_trace=collect_trace)
    timings["template"] = time.perf_counter() - t2

    estimate = (tres.estimate - padded.offset) * rounded.scale_back
    if characteristic.w_bar == 0.0:
        estimate = 0.0  # every real edge left after thresholding costs 0
    matching = FilteredMatching(tres.matching, n)
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
    stages = SimpleNamespace(
        characteristic=characteristic, rounded=rounded, padded=padded,
        template=tres, template_params=tparams, config=config)
    return PipelineResult(estimate, matching, report, stages)


def _degenerate_estimate(instance, config, seed, timings, t0):
    """n below 1/gamma: answer with the exact baseline directly."""
    from .baseline import exact_min_weight_k_matching
    from .core import ArrayMatching
    n = instance.n
    k_target = max(int(math.floor(config.beta * n)), 0)
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
                          SimpleNamespace(baseline=res))


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
    makes the search monotone in B for a fixed master seed.
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
        xi = min(grid[idx], 1.0)  # guard float accumulation at the top point
        if xi <= 0.0:
            return True  # the empty matching always fits
        config = ReductionConfig(max(xi - step, 0.0), xi, gamma)
        res = estimate_min_weight_matching(instance, config, backend,
                                           seed=sub[idx], T=T, k=k)
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
