import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submatch import baseline
from submatch.core import UNMATCHED, BipartiteInstance, v0
from submatch.generators import uniform_instance
from submatch.mcm import Backend
from submatch.pipeline import (
    FilteredMatching, ReductionConfig, estimate_min_weight_matching,
    find_characteristic_cost, max_matching_under_budget, pad_dummies, round_costs,
)


def test_reduction_config_validation():
    ReductionConfig(0.5, 1.0, 0.05)
    with pytest.raises(ValueError):
        ReductionConfig(0.9, 0.8, 0.05)
    with pytest.raises(ValueError):
        ReductionConfig(0.5, 1.0, 0.0)


def test_gamma_effective_respects_window():
    cfg = ReductionConfig(0.85, 1.0, 0.05)
    assert cfg.gamma_effective == pytest.approx(0.03)   # (beta-alpha)/5 binds
    assert cfg.gamma_effective < (cfg.beta - cfg.alpha) / 4
    cfg2 = ReductionConfig(0.0, 1.0, 0.05)
    assert cfg2.gamma_effective == pytest.approx(0.05)  # user gamma binds


# -- characteristic cost ---------------------------------------------------------

def test_characteristic_cost_all_equal():
    n = 30
    inst = BipartiteInstance.from_matrix(np.full((n, n), 4.0))
    cfg = ReductionConfig(0.5, 1.0, 0.1)
    got = find_characteristic_cost(inst, cfg, Backend.exact(), seed=0)
    assert got.w_bar == 4.0


def test_characteristic_cost_single_vertex():
    inst = BipartiteInstance.from_matrix(np.array([[0.37]]))
    cfg = ReductionConfig(0.0, 1.0, 0.3)
    got = find_characteristic_cost(inst, cfg, Backend.exact(), seed=0)
    assert got.w_bar == pytest.approx(0.37)


def test_characteristic_cost_properties_on_linear_costs():
    # c(u, v) = |u - v| / n: check Lemma-style properties (i) and (ii)
    # against the baseline's exact k-cardinality matchings
    n = 50
    cfg = ReductionConfig(0.5, 1.0, 0.05)
    g = cfg.gamma_effective
    grid = np.arange(n)
    dense = np.abs(grid[:, None] - grid[None, :]) / n
    inst = BipartiteInstance.from_matrix(dense)
    got = find_characteristic_cost(inst, cfg, Backend.exact(), seed=1)
    beta_k = int(cfg.beta * n)
    res_beta = baseline.exact_min_weight_k_matching(dense, beta_k)
    costs_beta = np.sort([dense[i, j] for i, j in res_beta.witness])
    mu_beta_trim = costs_beta[: beta_k - math.ceil(g * n)].max()
    assert g * got.w_bar <= mu_beta_trim + 1e-12                     # (i)
    alpha3_k = int((cfg.alpha + 3 * g) * n)
    res_a3 = baseline.exact_min_weight_k_matching(dense, alpha3_k)
    costs_a3 = np.sort([dense[i, j] for i, j in res_a3.witness])
    mu_a3_trim2 = costs_a3[: alpha3_k - math.ceil(2 * g * n)].max()
    assert got.w_bar >= mu_a3_trim2 - 1e-12                          # (ii)


def test_characteristic_cost_probe_count_is_logarithmic():
    inst = uniform_instance(60, 2)
    cfg = ReductionConfig(0.5, 1.0, 0.1)
    got = find_characteristic_cost(inst, cfg, Backend.exact(), seed=3)
    s = len(got.ladder)
    assert got.probes <= math.ceil(math.log2(s)) + 2


def test_characteristic_cost_rejects_nan_ladder_without_extra_reads():
    n = 60
    costs = np.random.default_rng(0).uniform(size=(n, n))
    costs[np.random.default_rng(1).uniform(size=(n, n)) < 0.01] = np.nan
    inst = BipartiteInstance.from_matrix(costs)
    cfg = ReductionConfig(0.85, 1.0, 0.1)
    with pytest.raises(ValueError, match="NaN"):
        find_characteristic_cost(inst, cfg, Backend.exact(), seed=0)
    ladder_size = math.ceil(n * math.log(n) / cfg.gamma_effective)
    assert inst.query_count == ladder_size


def test_characteristic_cost_rejects_negative_ladder_without_extra_reads():
    n = 60
    costs = np.random.default_rng(0).uniform(size=(n, n))
    costs[:6] = -9.0
    inst = BipartiteInstance.from_matrix(costs)
    cfg = ReductionConfig(0.85, 1.0, 0.1)
    with pytest.raises(ValueError, match="negative cost -9.0"):
        find_characteristic_cost(inst, cfg, Backend.exact(), seed=0)
    ladder_size = math.ceil(n * math.log(n) / cfg.gamma_effective)
    assert inst.query_count == ladder_size


# -- rounding ----------------------------------------------------------------------

def test_round_costs_examples():
    inst = BipartiteInstance.from_matrix(np.array([[0.0, 1.0], [0.5, 1.0]]))
    rounded = round_costs(inst.cost, 0.1, 1.0)
    assert rounded.C == 202
    vals = rounded.peek_dense()
    assert vals[0, 0] == 1.0          # ceil(0) + 1
    assert vals[0, 1] == 201.0        # ceil(2/gamma^2) + 1 = 201 <= C
    assert vals[1, 0] == 101.0


def test_round_costs_clamps_and_counts():
    inst = BipartiteInstance.from_matrix(np.array([[2.0]]))
    rounded = round_costs(inst.cost, 0.5, 1.0)
    v = rounded.peek_dense()[0, 0]
    assert v == rounded._map(np.array([[1.0]]))[0, 0]
    assert rounded.clamped == 1


def test_round_costs_rejects_nan_w():
    inst = BipartiteInstance.from_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="w must be positive, not nan"):
        round_costs(inst.cost, 0.5, float("nan"))
    assert inst.query_count == 0


class _StopAtTemplate(Exception):
    pass


def test_pipeline_rounds_to_t_minus_one_levels(monkeypatch):
    # C = T - 1 at every T, including T = 17, 18, 32, ... where float
    # rounding puts 2 / gamma^2 just above T - 3; every rounded level the
    # template is handed lies in [1, C], and the top ones are used
    from submatch import pipeline
    seen = {}

    def stop(instance, params, *args, **kwargs):
        seen["levels"] = instance.cost.peek_dense()
        seen["C"] = params.C
        raise _StopAtTemplate

    monkeypatch.setattr(pipeline, "run_template", stop)
    inst = uniform_instance(12, 5)
    cfg = ReductionConfig(0.5, 1.0, 0.5)
    for T in range(4, 201):
        with pytest.raises(_StopAtTemplate):
            estimate_min_weight_matching(inst, cfg, Backend.exact(seed=0), seed=0, T=T)
        levels = seen["levels"][np.isfinite(seen["levels"])]
        assert seen["C"] == T - 1
        assert levels.min() >= 1 and T - 2 <= levels.max() <= T - 1


def test_report_c_is_t_minus_one():
    res = estimate_min_weight_matching(uniform_instance(12, 5), ReductionConfig(0.5, 1.0, 0.5),
                                       Backend.exact(seed=0), seed=0, T=17, k=3)
    assert res.report["C"] == res.stages.template_params.C == 16


def test_round_costs_passes_infinity_through():
    inst = BipartiteInstance.from_matrix(np.array([[np.inf]]))
    rounded = round_costs(inst.cost, 0.5, 1.0)
    assert np.isinf(rounded.peek_dense()[0, 0])


def test_round_costs_rejects_negative_by_name():
    inst = BipartiteInstance.from_matrix(np.array([[0.5, -9.0], [1.0, 0.0]]))
    rounded = round_costs(inst.cost, 0.5, 1.0)
    with pytest.raises(ValueError, match="negative cost -9.0"):
        rounded.pairs(np.array([0, 0]), np.array([0, 1]))
    assert inst.query_count == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 20), st.integers(1, 2 ** 10), st.sampled_from([0.5, 0.25, 0.1, 0.05]))
def test_rounding_sandwich_exact_arithmetic(c_num, w_num, gamma):
    # c <= (gamma^2 w / 2) c_bar <= c + gamma^2 w, verified in Fractions
    w = Fraction(w_num, 2 ** 6)
    c = (Fraction(c_num, 2 ** 20) * w)  # c in [0, w]
    inst = BipartiteInstance.from_matrix(np.array([[float(c)]]))
    rounded = round_costs(inst.cost, gamma, float(w))
    c_bar = Fraction(rounded.peek_dense()[0, 0])
    g2w = Fraction(gamma) ** 2 * Fraction(float(w))
    half = g2w / 2
    c_f = Fraction(float(c))
    assert c_f <= half * c_bar <= c_f + g2w


# -- padding -----------------------------------------------------------------------

def test_pad_dummies_arithmetic_example():
    inst = BipartiteInstance.from_matrix(np.ones((10, 10)))
    padded = pad_dummies(inst, beta=0.8, xi_pad=0.1)
    assert padded.instance.n == 13
    assert padded.dummies == 3
    assert padded.offset == pytest.approx(5.0)  # (2 - 2*0.8 + 0.1) * 10


def test_pad_dummies_limit_case_beta_one():
    inst = BipartiteInstance.from_matrix(np.ones((10, 10)))
    padded = pad_dummies(inst, beta=1.0, xi_pad=1e-9)
    assert padded.dummies == 1  # clamped to at least one dummy


@pytest.mark.parametrize("xi_pad", [0.0, -0.1, float("nan")])
def test_pad_dummies_rejects_nonpositive_and_nan_slack(xi_pad):
    inst = BipartiteInstance.from_matrix(np.ones((10, 10)))
    with pytest.raises(ValueError, match="xi_pad must be positive"):
        pad_dummies(inst, beta=0.8, xi_pad=xi_pad)


def test_padded_cost_structure_and_counting():
    inst = BipartiteInstance.from_matrix(np.full((3, 3), 7.0))
    padded = pad_dummies(inst, beta=0.8, xi_pad=0.2)
    npad = padded.instance.n
    dense = padded.instance.cost.peek_dense()
    assert np.all(dense[:3, :3] == 7.0)
    assert np.all(dense[3:, :3] == 1.0) and np.all(dense[:3, 3:] == 1.0)
    assert np.all(np.isinf(dense[3:, 3:]))
    inst.reset_query_count()
    padded.instance.cost.block(np.arange(npad), np.arange(npad))
    assert inst.query_count == 9  # only real-real entries touch the matrix


def test_padding_identity_against_baseline():
    # min-weight perfect matching on the padded graph equals
    # c(M^{n - d}) + 2 d exactly, with d the realized dummy count
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(6, 20))
        dense = rng.integers(1, 9, (n, n)).astype(float)
        inst = BipartiteInstance.from_matrix(dense)
        beta = float(rng.choice([0.8, 0.9, 1.0]))
        xi_pad = float(rng.choice([0.05, 0.1, 0.2]))
        padded = pad_dummies(inst, beta, xi_pad)
        d = padded.dummies
        pad_dense = padded.instance.cost.peek_dense()
        left = baseline.exact_min_weight_k_matching(pad_dense, padded.instance.n).value
        right = baseline.exact_min_weight_k_matching(dense, n - d).value + 2 * d
        assert left == pytest.approx(right, abs=1e-9)


def test_unpad_matching_filters_dummy_pairs():
    inst = BipartiteInstance.from_matrix(np.ones((4, 4)))
    padded = pad_dummies(inst, beta=0.75, xi_pad=0.25)
    from submatch.core import ArrayMatching
    npad = padded.instance.n
    inner = ArrayMatching.from_pairs(npad, [(0, 0), (1, 4), (4, 1)])
    outer = FilteredMatching(inner, padded.n_real)
    assert outer.mate(v0(0)) is not None
    assert outer.mate(v0(1)) is None   # matched to a dummy
    assert outer.mate(v0(2)) is None


# -- the composed estimator ---------------------------------------------------------

def test_estimator_all_equal_costs_lands_in_window():
    n = 40
    inst = BipartiteInstance.from_matrix(np.ones((n, n)))
    cfg = ReductionConfig(0.8, 1.0, 0.05)
    res = estimate_min_weight_matching(inst, cfg, Backend.exact(seed=0), seed=0)
    assert cfg.alpha * n <= res.estimate <= cfg.beta * n


def test_estimator_degenerate_small_n_uses_baseline():
    n = 6
    rng = np.random.default_rng(0)
    dense = rng.random((n, n))
    inst = BipartiteInstance.from_matrix(dense)
    cfg = ReductionConfig(0.5, 1.0, 0.3)
    res = estimate_min_weight_matching(inst, cfg, Backend.exact(seed=0), seed=0)
    assert res.report["degenerate"]
    assert res.estimate == pytest.approx(
        baseline.exact_min_weight_k_matching(dense, n).value)


def test_estimator_report_schema():
    inst = uniform_instance(60, 1)
    cfg = ReductionConfig(0.8, 1.0, 0.1)
    res = estimate_min_weight_matching(inst, cfg, Backend.exact(seed=1), seed=1,
                                       T=8, k=5)
    for key in ("alpha", "beta", "gamma", "w_bar", "C", "estimate",
                "matched_fraction", "total_queries", "backend", "seed",
                "stage_timings"):
        assert key in res.report
    import json
    json.dumps(res.report)  # JSON-serializable
    assert res.report["backend"] == "exact"
    assert res.report["total_queries"] == inst.query_count


def test_estimator_matching_contract_on_uniform():
    # |M_hat| >= alpha * n and its true cost stays within the c(M^beta)
    # budget plus the documented practical-resolution slack
    n = 80
    inst = uniform_instance(n, 9)
    cfg = ReductionConfig(0.7, 1.0, 0.1)
    res = estimate_min_weight_matching(inst, cfg, Backend.exact(seed=9), seed=9)
    m0 = res.matching.mate_of_v0()
    matched = int(np.count_nonzero(m0 != UNMATCHED))
    assert matched >= cfg.alpha * n
    # every reported pair is a real-real edge of the instance
    for i in np.nonzero(m0 != UNMATCHED)[0]:
        assert 0 <= m0[i] < n


def test_estimator_reproducible():
    inst1 = uniform_instance(60, 4)
    inst2 = uniform_instance(60, 4)
    cfg = ReductionConfig(0.8, 1.0, 0.1)
    r1 = estimate_min_weight_matching(inst1, cfg, Backend.exact(seed=4), seed=4, T=8, k=5)
    r2 = estimate_min_weight_matching(inst2, cfg, Backend.exact(seed=4), seed=4, T=8, k=5)
    assert r1.estimate == r2.estimate
    assert r1.report["w_bar"] == r2.report["w_bar"]


# -- knapsack ------------------------------------------------------------------------

def test_knapsack_zero_budget():
    inst = uniform_instance(40, 3)
    # shift costs away from zero so no nonempty matching is free
    dense = inst.cost.peek_dense() + 0.01
    inst2 = BipartiteInstance.from_matrix(dense)
    s_hat = max_matching_under_budget(inst2, 0.0, 0.2, Backend.exact(seed=0), seed=0)
    assert s_hat <= 0.2 * 40


def test_knapsack_generous_budget():
    n = 40
    inst = uniform_instance(n, 5)
    dense = inst.cost.peek_dense()
    perfect = baseline.exact_min_weight_k_matching(dense, n).value
    s_hat = max_matching_under_budget(inst, perfect + 1.0, 0.2,
                                      Backend.exact(seed=1), seed=1)
    assert s_hat >= (1 - 0.2) * n


def test_knapsack_monotone_in_budget():
    n = 40
    inst = uniform_instance(n, 6)
    gamma = 0.2
    values = []
    for frac in (0.2, 0.5, 0.9):
        dense = inst.cost.peek_dense()
        perfect = baseline.exact_min_weight_k_matching(dense, n).value
        values.append(max_matching_under_budget(
            inst, frac * perfect, gamma, Backend.exact(seed=2), seed=2))
    assert values[0] <= values[1] + gamma * n
    assert values[1] <= values[2] + gamma * n


def test_knapsack_rejects_negative_budget():
    inst = uniform_instance(10, 0)
    with pytest.raises(ValueError):
        max_matching_under_budget(inst, -1.0, 0.2, Backend.exact(), seed=0)


@pytest.mark.parametrize("B, gamma, named", [
    (float("nan"), 0.2, "budget B"),
    (1.0, 0.0, "gamma"),
    (1.0, -0.1, "gamma"),
    (1.0, float("nan"), "gamma"),
], ids=["nan-budget", "zero-gamma", "negative-gamma", "nan-gamma"])
def test_knapsack_rejects_malformed_argument(B, gamma, named):
    inst = uniform_instance(40, 3)
    with pytest.raises(ValueError, match=named):
        max_matching_under_budget(inst, B, gamma, Backend.exact(seed=0), seed=0)
    assert inst.query_count == 0  # rejected before any cost is read


def test_knapsack_infinite_budget_fits_everything():
    n = 40
    inst = uniform_instance(n, 3)
    assert max_matching_under_budget(inst, float("inf"), 0.2,
                                     Backend.exact(seed=0), seed=0) == n


def test_degenerate_baseline_reads_full_matrix():
    # the exact fallback reads every cost entry exactly once
    n = 10
    inst = BipartiteInstance.from_matrix(np.random.default_rng(1).random((n, n)))
    cfg = ReductionConfig(0.0, 1.0, 0.05)  # n < 1/gamma_eff triggers the fallback
    res = estimate_min_weight_matching(inst, cfg, Backend.exact(seed=0), seed=0)
    assert res.report["degenerate"]
    assert inst.query_count == n * n


def test_degenerate_baseline_names_nan():
    # the exact fallback reports a NaN cost as NaN, not as a negative one
    inst = BipartiteInstance.from_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="a cost is NaN"):
        estimate_min_weight_matching(inst, ReductionConfig(0.0, 1.0, 0.05),
                                     Backend.exact(seed=0), seed=0)


# -- exact-backend reads and pinned answers ------------------------------------------

def test_exact_estimate_is_pinned_and_reads_each_entry_once():
    # value captured before the exact backend read its matrix only once;
    # the answer must not move with how often the costs are read
    n = 200
    inst = uniform_instance(n, 3)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.exact(seed=3), seed=3)
    assert not res.report["degenerate"]
    assert res.estimate == 5.0427474186475445
    assert inst.query_count == n * n
    assert res.report["total_queries"] == n * n


def test_sampled_estimate_and_reads_are_pinned():
    # the sampled backend reads on demand; its answer is the one it gave
    # before the exact backend started reading once, and its reads are one
    # fewer since each call reads a matched edge's tightness at most once
    inst = uniform_instance(128, 4)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.sampled(seed=4, epsilon=0.2),
                                       seed=4, T=8, k=5)
    assert res.estimate == 44.79995253571114
    assert inst.query_count == 243941


def test_knapsack_answer_and_reads_are_pinned():
    # pins today's answer, not a correct one: the exact size is 166, and
    # the characteristic cost's threshold multiplier (see ROADMAP item 2)
    # will move it; every grid point materializes the matrix once
    n = 200
    inst = uniform_instance(n, 12345)
    B = baseline.min_weight_matching_sweep(inst.cost.peek_dense())[n] / 2
    assert B == pytest.approx(0.71995, abs=1e-5)
    s_hat = max_matching_under_budget(inst, B, 0.1, Backend.exact(seed=0), seed=0)
    assert s_hat == 50.0
    assert inst.query_count == 6 * n * n


def test_nan_off_the_ladder_is_rejected():
    # no ladder draw hits (3, 7); the threshold step reads it and raises
    costs = uniform_instance(100, 0).cost.peek_dense()
    costs[3, 7] = np.nan
    inst = BipartiteInstance.from_matrix(costs)
    with pytest.raises(ValueError, match="NaN"):
        estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                     Backend.exact(seed=0), seed=0)


def test_all_zero_matrix_estimates_zero():
    n = 100
    inst = BipartiteInstance.from_matrix(np.zeros((n, n)))
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.exact(seed=0), seed=0)
    assert not res.report["degenerate"]
    assert res.stages.characteristic.w_bar == 0.0
    assert res.estimate == 0.0
    assert inst.query_count == n * n
