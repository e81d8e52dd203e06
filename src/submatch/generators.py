"""Deterministic instance generators.

Every generator is backed by a vectorized block function so instances can
be evaluated lazily at any size; costs depend only on (name, params, seed,
i, j), never on query order.  A seed is an integer (a numpy integer counts
as its ``int``); anything else raises ``TypeError``.

Uniform and (1,2)-metric entries come from SplitMix64, so no matrix is ever
materialized.  Construction mixes each index once, into a row key
``splitmix(i + seed) * GOLD`` and a column key ``splitmix(j ^ 0xA5A5...)``
(``instance.keys``); entry (i, j) is one more pass over their sum, its top
53 bits read as a float in [0, 1).  Arithmetic wraps mod 2^64, and so does
the seed.  The seed only offsets the row index, so seed s + k gives the
rows of seed s moved up by k: rows k.. of ``uniform_instance(n, s)`` are
rows ..n-k of ``uniform_instance(n, s + k)``.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import BipartiteInstance, FunctionCost

__all__ = [
    "uniform_instance", "euclidean_instance", "one_two_metric_instance",
    "permutation_instance", "make_instance", "GENERATORS",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _seed(seed) -> int:
    try:
        return operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None


def _splitmix(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 pass over the uint64 array ``x``, in place."""
    x += _GOLD
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _hashed_instance(n: int, seed, to_cost) -> BipartiteInstance:
    """Instance whose entry (i, j) is ``to_cost`` of a hashed uniform in [0, 1)."""
    idx = np.arange(n, dtype=np.uint64)
    row_keys = _splitmix(idx + np.uint64(_seed(seed) % 2 ** 64)) * _GOLD
    col_keys = _splitmix(idx ^ np.uint64(0xA5A5A5A5A5A5A5A5))

    def unit(sums):  # sums is a fresh array, so mixing it in place is safe
        _splitmix(sums)
        sums >>= np.uint64(11)
        u = sums.astype(np.float64)
        u /= float(2 ** 53)
        return to_cost(u)

    inst = BipartiteInstance(n, FunctionCost(
        n, lambda r, c: unit(row_keys[r][:, None] + col_keys[c][None, :]),
        lambda i, j: unit(row_keys[i] + col_keys[j])))
    inst.keys = (row_keys, col_keys)  # exposed so tests can check reads leave them alone
    return inst


def uniform_instance(n: int, seed: int) -> BipartiteInstance:
    """iid Uniform[0,1] costs."""
    return _hashed_instance(n, seed, lambda u: u)


def euclidean_instance(n: int, seed: int, dim: int = 2) -> BipartiteInstance:
    """Pairwise Euclidean distances between two point clouds in [0,1]^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    rng = np.random.default_rng(np.random.SeedSequence([_seed(seed), dim, n]))
    p0 = rng.random((n, dim))
    p1 = rng.random((n, dim))

    def block(rows, cols):
        diff = p0[rows][:, None, :] - p1[cols][None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))

    def pair(is_, js):
        return np.sqrt(((p0[is_] - p1[js]) ** 2).sum(axis=1))

    inst = BipartiteInstance(n, FunctionCost(n, block, pair))
    inst.points = (p0, p1)  # exposed so tests can recompute distances
    return inst


def one_two_metric_instance(n: int, seed: int, p: float = 0.5) -> BipartiteInstance:
    """Costs in {1, 2}: cost 1 with probability p (always a metric)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return _hashed_instance(n, seed, lambda u: np.where(u < p, 1.0, 2.0))


def permutation_instance(n: int, seed: int) -> BipartiteInstance:
    """A planted zero-cost perfect matching; every other edge costs 1."""
    rng = np.random.default_rng(np.random.SeedSequence([_seed(seed), n]))
    perm = rng.permutation(n)

    def block(rows, cols):
        return np.where(perm[rows][:, None] == np.asarray(cols)[None, :], 0.0, 1.0)

    def pair(is_, js):
        return np.where(perm[is_] == js, 0.0, 1.0)

    inst = BipartiteInstance(n, FunctionCost(n, block, pair))
    inst.permutation = perm
    return inst


GENERATORS = {
    "uniform": uniform_instance,
    "euclidean": euclidean_instance,
    "one-two-metric": one_two_metric_instance,
    "permutation": permutation_instance,
}


def make_instance(name: str, n: int, seed: int, **params) -> BipartiteInstance:
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
    return gen(n, seed, **params)
