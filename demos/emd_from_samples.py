"""Estimate Earth Mover's Distance from sample access only.

Two discrete distributions over a shared 25-point space with an arbitrary
cost table (no triangle inequality, nonzero diagonal): the estimator
draws m = ceil(4 n ln n) points from each, builds the m x m empirical
instance lazily, and estimates the min-weight near-perfect matching.
"""

import numpy as np

from submatch import baseline
from submatch.emd import DiscreteDistribution, estimate_emd_detailed, sample_complexity
from submatch.mcm import Backend

rng = np.random.default_rng(21)
n = 25
masses_mu = rng.dirichlet(np.ones(n))
masses_nu = rng.dirichlet(np.ones(n) * 0.5)
table = rng.random((n, n))  # deliberately not a metric

mu = DiscreteDistribution(masses_mu, table)
nu = DiscreteDistribution(masses_nu, table)

gamma = 0.15
value, pair, res = estimate_emd_detailed(mu, nu, n, gamma,
                                         Backend.exact(seed=4), seed=4)

print(f"support bound n = {n}, gamma = {gamma}")
print(f"drew m = {pair.m} points per source "
      f"(declared budget {sample_complexity(n)} draws total, "
      f"used {mu.draw_count + nu.draw_count})")
print(f"EMD estimate = {value:.4f}")

exact = baseline.exact_emd(masses_mu, masses_nu, table)
print(f"exact EMD (baseline LP/flow) = {exact:.4f}")
print(f"|error| = {abs(value - exact):.4f} (tolerance gamma = {gamma})")
reads = res.report['total_queries'] / pair.m ** 2
print(f"\nthe exact backend re-read the m x m cost matrix ~{reads:.0f} times "
      f"({res.report['total_queries']:,} queries); the sampled backend "
      f"keeps the growth rate below quadratic instead")
