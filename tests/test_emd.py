import math

import numpy as np
import pytest

from submatch import baseline
from submatch.emd import (
    DiscreteDistribution, StreamSource, empirical_sample_size, estimate_emd,
    estimate_emd_detailed, sample_complexity, sample_empirical,
)
from submatch.mcm import Backend


def test_sample_size_formula():
    assert empirical_sample_size(1) == 3            # ceil(4 ln 2)
    assert empirical_sample_size(100) == 1843       # ceil(400 ln 100)
    assert sample_complexity(100) == 3686
    assert sample_complexity(1) == 6


def test_point_mass_sampling():
    table = np.zeros((1, 1))
    mu = DiscreteDistribution([1.0], table)
    nu = DiscreteDistribution([1.0], table)
    pair = sample_empirical(mu, nu, 1, seed=0)
    assert pair.m == 3
    assert np.all(pair.ids_mu == 0) and np.all(pair.ids_nu == 0)


def test_draw_counter_matches_reported_complexity():
    n = 12
    rng = np.random.default_rng(0)
    table = rng.random((n, n))
    mu = DiscreteDistribution(np.full(n, 1 / n), table)
    nu = DiscreteDistribution(np.full(n, 1 / n), table)
    sample_empirical(mu, nu, n, seed=1)
    assert mu.draw_count + nu.draw_count == sample_complexity(n)


def test_duplicates_stay_distinct_vertices():
    table = np.array([[0.0, 0.5], [0.5, 0.0]])
    mu = DiscreteDistribution([0.5, 0.5], table)
    nu = DiscreteDistribution([0.5, 0.5], table)
    pair = sample_empirical(mu, nu, 2, seed=2)
    assert pair.m == empirical_sample_size(2)
    assert pair.instance.n == pair.m  # one vertex per draw, duplicates kept


def test_multiplicity_concentration_uniform_support():
    # At m = ceil(4 n ln n) the +-25% band is under one binomial standard
    # deviation per point, so "every point in band" holds almost never; a
    # direct multinomial simulation puts the mean per-point in-band rate at
    # 0.62.  Assert the simulated reality (see the decisions ledger).
    n = 10
    table = np.zeros((n, n))
    masses = np.full(n, 1 / n)
    rates = []
    trials = 60
    for t in range(trials):
        mu = DiscreteDistribution(masses, table)
        nu = DiscreteDistribution(masses, table)
        pair = sample_empirical(mu, nu, n, seed=t)
        counts = np.bincount(pair.ids_mu, minlength=n)
        m = pair.m
        rates.append(np.mean(np.abs(counts - m / n) <= m / n / 4))
    assert np.mean(rates) >= 0.5


def test_emd_same_source_is_small():
    n = 12
    rng = np.random.default_rng(3)
    table = rng.random((n, n))
    np.fill_diagonal(table, 0.0)
    masses = rng.dirichlet(np.ones(n))
    mu = DiscreteDistribution(masses, table)
    nu = DiscreteDistribution(masses, table)
    est = estimate_emd(mu, nu, n, 0.2, Backend.exact(seed=0), seed=0)
    assert est <= 0.2


def test_emd_two_point_masses():
    d = 0.7
    table = np.array([[0.0, d], [d, 0.0]])
    mu = DiscreteDistribution([1.0, 0.0], table)
    nu = DiscreteDistribution([0.0, 1.0], table)
    est = estimate_emd(mu, nu, 2, 0.2, Backend.exact(seed=1), seed=1)
    assert abs(est - d) <= 0.2


def test_emd_shifted_uniform_against_exact_ot():
    # uniform over {0..9} vs shifted, d(x, y) = min(|x - y|, 1)
    n = 10
    xs = np.arange(n)
    table = np.minimum(np.abs(xs[:, None] - xs[None, :]), 1).astype(float)
    mu_m = np.full(n, 1 / n)
    nu_m = np.roll(mu_m * (xs + 1), 2)
    nu_m = nu_m / nu_m.sum()
    mu = DiscreteDistribution(mu_m, table)
    nu = DiscreteDistribution(nu_m, table)
    exact = baseline.exact_emd(mu_m, nu_m, table)
    est = estimate_emd(mu, nu, n, 0.15, Backend.exact(seed=2), seed=2)
    assert abs(est - exact) <= 0.15


def test_emd_symmetry():
    n = 10
    rng = np.random.default_rng(5)
    table = rng.random((n, n))
    table = (table + table.T) / 2
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    gamma = 0.2
    e_ab = estimate_emd(DiscreteDistribution(a, table), DiscreteDistribution(b, table),
                        n, gamma, Backend.exact(seed=6), seed=6)
    e_ba = estimate_emd(DiscreteDistribution(b, table.T), DiscreteDistribution(a, table.T),
                        n, gamma, Backend.exact(seed=6), seed=7)
    exact = baseline.exact_emd(a, b, table)
    assert abs(e_ab - e_ba) <= 2 * gamma
    assert abs(e_ab - exact) <= gamma


def test_emd_non_metric_table_still_within_tolerance():
    # deliberately violate the triangle inequality and d(p, p) = 0
    n = 8
    rng = np.random.default_rng(8)
    table = rng.random((n, n))  # diagonal nonzero, asymmetric
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    exact = baseline.exact_emd(a, b, table)
    est = estimate_emd(DiscreteDistribution(a, table), DiscreteDistribution(b, table),
                       n, 0.2, Backend.exact(seed=9), seed=9)
    assert abs(est - exact) <= 0.2


def test_metric_range_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0], np.array([[1.5]]))
    with pytest.raises(ValueError):
        DiscreteDistribution([0.7, 0.7], np.zeros((2, 2)))


def test_nan_or_infinite_mass_is_rejected_at_construction():
    table = np.zeros((3, 3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"mass 1 is {bad}"):
            DiscreteDistribution([0.5, bad, 0.5], table)


def test_nan_metric_entry_is_rejected_at_construction():
    m = 20
    masses = np.full(m, 1.0 / m)
    table = np.random.default_rng(0).random((m, m))
    table[3, 5] = np.nan
    with pytest.raises(ValueError, match=r"entry \(3, 5\) is nan"):
        DiscreteDistribution(masses, table)
    table[3, 5] = np.inf
    with pytest.raises(ValueError, match=r"entry \(3, 5\) is inf"):
        DiscreteDistribution(masses, table)


def test_stream_source_rejects_nan_metric_entry(tmp_path):
    ids = tmp_path / "draws.txt"
    ids.write_text("0\n1\n")
    table = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is nan"):
        StreamSource(ids, table, support_bound=2)


def test_table_must_be_square_with_one_row_per_mass():
    with pytest.raises(ValueError, match="10 rows for 20 masses"):
        DiscreteDistribution(np.full(20, 1 / 20), np.zeros((10, 10)))
    with pytest.raises(ValueError, match="must be square"):
        DiscreteDistribution([0.5, 0.5], np.zeros((2, 3)))


def test_stream_source_rejects_ids_outside_the_table(tmp_path):
    ids = tmp_path / "draws.txt"
    ids.write_text("\n".join(["0", "1", "2", "-1"]))
    with pytest.raises(ValueError, match=r"\[0, 2\); draw 2 of the stream is 2"):
        StreamSource(ids, np.array([[0.0, 1.0], [1.0, 0.0]]), support_bound=2)


def test_stream_source_reads_and_exhausts(tmp_path):
    ids = tmp_path / "draws.txt"
    ids.write_text("\n".join(["0", "1", "0", "1", "1"]))
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    src = StreamSource(ids, table, support_bound=2)
    rng = np.random.default_rng(0)
    got = src.draw_many(rng, 4)
    assert got.tolist() == [0, 1, 0, 1]
    assert src.draw_count == 4
    with pytest.raises(RuntimeError):
        src.draw_many(rng, 2)  # only one id left: failure propagates


def test_detailed_result_exposes_pipeline_report():
    n = 6
    rng = np.random.default_rng(10)
    table = rng.random((n, n))
    a = rng.dirichlet(np.ones(n))
    value, pair, res = estimate_emd_detailed(
        DiscreteDistribution(a, table), DiscreteDistribution(a, table),
        n, 0.25, Backend.exact(seed=3), seed=3)
    assert value == pytest.approx(res.estimate / pair.m)
    assert res.report["beta"] == 1.0
    assert res.report["alpha"] == pytest.approx(1.0 - 0.25 / 5)


def test_exact_emd_estimate_is_pinned_and_reads_the_draws_once():
    # the answer must not move with how often the costs are read; it is
    # read from the true costs (0.11865249551048879 from the rounded levels)
    support = 16
    rng = np.random.default_rng(0)
    table = rng.random((support, support))
    masses = np.full(support, 1.0 / support)
    value, pair, res = estimate_emd_detailed(
        DiscreteDistribution(masses, table), DiscreteDistribution(masses, table),
        support, 0.15, Backend.exact(seed=0), seed=0)
    assert value == 0.08186886173352347
    assert not res.report["degenerate"]
    assert pair.instance.query_count == pair.m ** 2


@pytest.mark.parametrize("T, k, named", [(3, None, "T must be >= 4"), (None, 0, "k must be >= 1")])
def test_bad_T_or_k_is_rejected_before_any_draw(tmp_path, T, k, named):
    # a stream is single-use, so the template budget is checked before drawing
    ids = tmp_path / "draws.txt"
    ids.write_text("\n".join(str(i % 20) for i in range(400)))
    table = np.abs(np.subtract.outer(np.arange(20), np.arange(20))) / 20.0
    src = StreamSource(ids, table, support_bound=20)
    with pytest.raises(ValueError, match=named):
        estimate_emd(src, src, 5, 0.2, Backend.exact(seed=0), seed=0, T=T, k=k)
    assert src.draw_count == 0
