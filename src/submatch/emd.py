"""Earth Mover's Distance estimation from sample access.

Draw m = ceil(4 n ln n) points from each distribution, build the m x m
bipartite instance whose costs are the ground metric on the drawn points
(duplicates stay distinct vertices), estimate the min-weight matching
between sizes (1 - gamma/5) m and m, and divide by m.  No metric axioms
are assumed of the ground cost table beyond values in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import BipartiteInstance, FunctionCost, as_seed_sequence
from .mcm import Backend
from .pipeline import PipelineResult, ReductionConfig, estimate_min_weight_matching

__all__ = [
    "DistributionSource", "DiscreteDistribution", "StreamSource",
    "EmpiricalPair", "sample_empirical", "estimate_emd", "estimate_emd_detailed",
    "sample_complexity", "empirical_sample_size",
]

SAMPLE_CONSTANT = 4  # b in m = ceil(b * n * ln n)


def empirical_sample_size(n: int) -> int:
    return math.ceil(SAMPLE_CONSTANT * n * math.log(max(n, 2)))


def sample_complexity(n: int) -> int:
    """Total draws consumed by estimate_emd: m from each source."""
    return 2 * empirical_sample_size(n)


class DistributionSource:
    """Sample access to a distribution over points of a costed space.

    ``draw_many`` returns point ids and counts every draw; ``metric_block``
    evaluates the ground cost between id arrays.  Values must lie in
    [0, 1]; nothing else (not even d(p, p) = 0) is assumed.
    """

    def __init__(self, support_bound: int):
        self.support_bound = int(support_bound)
        self.draw_count = 0

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def metric_block(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric_pairs(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _metric_table(metric_table) -> np.ndarray:
    """The table as float64, or ValueError if it is not square or names its
    first value outside [0, 1] (NaN included: it fails both comparisons)."""
    table = np.asarray(metric_table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"metric table must be square, not of shape {table.shape}")
    bad = np.argwhere(~((table >= 0) & (table <= 1)))
    if len(bad):
        at = tuple(int(x) for x in bad[0])
        raise ValueError(f"metric values must lie in [0, 1]; entry {at} is {table[at]}")
    return table


class DiscreteDistribution(DistributionSource):
    """In-memory {point id -> mass} distribution over a metric table."""

    def __init__(self, masses, metric_table):
        masses = np.asarray(masses, dtype=np.float64)
        bad = np.nonzero(~(np.isfinite(masses) & (masses >= 0)))[0]
        if len(bad):
            raise ValueError(f"masses must be finite and nonnegative; "
                             f"mass {int(bad[0])} is {masses[bad[0]]}")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, not {masses.sum()}")
        table = _metric_table(metric_table)
        if len(table) != len(masses):
            raise ValueError(f"metric table has {len(table)} rows for {len(masses)} "
                             "masses; it needs one row per mass")
        super().__init__(support_bound=int(np.count_nonzero(masses)))
        self.masses = masses
        self.table = table

    def draw_many(self, rng, size):
        self.draw_count += int(size)
        return rng.choice(len(self.masses), size=size, p=self.masses)

    def metric_block(self, ids_a, ids_b):
        return self.table[np.ix_(np.asarray(ids_a), np.asarray(ids_b))]

    def metric_pairs(self, ids_a, ids_b):
        return self.table[np.asarray(ids_a), np.asarray(ids_b)]


class StreamSource(DistributionSource):
    """Draws read sequentially from a file of point ids.

    The id file holds one integer per line; the metric is a cost-matrix
    file in the standard instance format.  An id outside the table is
    rejected at construction.  Exhausting the file raises, and the failure
    propagates to the caller.
    """

    def __init__(self, ids_path, metric_table, support_bound: int):
        super().__init__(support_bound)
        self._ids = np.loadtxt(Path(ids_path), dtype=np.int64, ndmin=1)
        self._pos = 0
        self.table = _metric_table(metric_table)
        bad = np.nonzero((self._ids < 0) | (self._ids >= len(self.table)))[0]
        if len(bad):
            raise ValueError(f"point ids must lie in [0, {len(self.table)}); "
                             f"draw {int(bad[0])} of the stream is {int(self._ids[bad[0]])}")

    def draw_many(self, rng, size):
        if self._pos + size > len(self._ids):
            raise RuntimeError(
                f"draw stream exhausted: need {size}, have {len(self._ids) - self._pos}")
        out = self._ids[self._pos:self._pos + size]
        self._pos += size
        self.draw_count += int(size)
        return out

    def metric_block(self, ids_a, ids_b):
        return self.table[np.ix_(np.asarray(ids_a), np.asarray(ids_b))]

    def metric_pairs(self, ids_a, ids_b):
        return self.table[np.asarray(ids_a), np.asarray(ids_b)]


@dataclass
class EmpiricalPair:
    """Multisets of m draws from each source plus the induced cost oracle."""

    ids_mu: np.ndarray = field(repr=False)
    ids_nu: np.ndarray = field(repr=False)
    instance: BipartiteInstance = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.ids_mu)


def sample_empirical(mu: DistributionSource, nu: DistributionSource, n: int,
                     seed=0) -> EmpiricalPair:
    """Draw m = ceil(4 n ln n) points from each source (duplicates kept)."""
    if n < 1:
        raise ValueError("support bound must be at least 1")
    m = empirical_sample_size(n)
    seq = as_seed_sequence(seed)
    rng_mu, rng_nu = (np.random.default_rng(s) for s in seq.spawn(2))
    ids_mu = np.asarray(mu.draw_many(rng_mu, m))
    ids_nu = np.asarray(nu.draw_many(rng_nu, m))

    def block(rows, cols):
        return mu.metric_block(ids_mu[rows], ids_nu[cols])

    def pair(is_, js):
        return mu.metric_pairs(ids_mu[is_], ids_nu[js])

    instance = BipartiteInstance(m, FunctionCost(m, block, pair))
    return EmpiricalPair(ids_mu, ids_nu, instance)


def estimate_emd_detailed(mu: DistributionSource, nu: DistributionSource, n: int,
                          gamma: float, backend: Backend, seed=0,
                          T: int | None = None, k: int | None = None
                          ) -> tuple[float, EmpiricalPair, PipelineResult]:
    """EMD estimate plus the empirical pair and the pipeline result."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    seq = as_seed_sequence(seed)
    s_draw, s_est = seq.spawn(2)
    pair = sample_empirical(mu, nu, n, seed=s_draw)
    g = gamma / 5.0  # the final union bound spends gamma across five slacks
    config = ReductionConfig(alpha=1.0 - g, beta=1.0, gamma=g)
    res = estimate_min_weight_matching(pair.instance, config, backend,
                                       seed=s_est, T=T, k=k)
    return res.estimate / pair.m, pair, res


def estimate_emd(mu: DistributionSource, nu: DistributionSource, n: int,
                 gamma: float, backend: Backend, seed=0,
                 T: int | None = None, k: int | None = None) -> float:
    value, _, _ = estimate_emd_detailed(mu, nu, n, gamma, backend, seed, T=T, k=k)
    return value
