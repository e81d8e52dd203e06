import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submatch import baseline
from submatch.core import (
    UNMATCHED, BipartiteInstance, CostOracle, LevelCost, MatrixCost, QueryCounter, v0,
)
from submatch.generators import uniform_instance
from submatch.mcm import Backend
from submatch.pipeline import (
    ReductionConfig, RoundedCost, estimate_min_weight_matching,
    find_characteristic_cost, max_matching_under_budget, pad_dummies, round_costs,
)
from submatch.template import sample_and_estimate


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

def test_sampled_approx_match_is_a_valid_matching_never_above_the_maximum():
    # at the limits the sampled characteristic-cost search probes, the probe
    # greedy returns a matching of edges within the limit, and its size is
    # no more than the maximum the exact backend finds
    config = ReductionConfig(0.85, 1.0, 0.1)
    for seed in (1, 2):
        inst = uniform_instance(200, seed)
        dense = inst.cost.peek_dense()
        backend = Backend.sampled(seed=seed)
        probes = []
        probe = backend.approx_match

        def recording(cost, limit, need):
            size, matching = probe(cost, limit, need)
            probes.append((limit, size, matching))
            return size, matching

        backend.approx_match = recording
        find_characteristic_cost(inst, config, backend, seed)
        assert len(probes) >= 5
        exact = Backend.exact()
        for limit, size, matching in probes:
            m0, m1 = matching.mate_of_v0(), matching.mate_of_v1()
            rows = np.nonzero(m0 != UNMATCHED)[0]
            assert size == len(rows) == np.count_nonzero(m1 != UNMATCHED)
            assert np.array_equal(m1[m0[rows]], rows)
            assert np.all(dense[rows, m0[rows]] <= limit)
            assert size <= exact.approx_match(MatrixCost(dense), limit)[0]


def test_round_costs_examples():
    inst = BipartiteInstance.from_matrix(np.array([[0.0, 1.0], [0.5, 1.0]]))
    rounded = round_costs(inst.cost, 0.1, 1.0)
    assert rounded.C == 202
    vals = rounded.peek_dense()
    assert vals[0, 0] == 1.0          # ceil(0) + 1
    assert vals[0, 1] == 201.0        # ceil(2/gamma^2) + 1 = 201 <= C
    assert vals[1, 0] == 101.0


def test_round_costs_masks_above_w_with_inf():
    # rounding thresholds too: a cost above w is a non-edge, w itself is kept
    inst = BipartiteInstance.from_matrix(np.array([[1.0, 5.0], [2.5, 3.0]]))
    rounded = round_costs(inst.cost, 0.5, 2.5)
    out = rounded.block(np.arange(2), np.arange(2))
    assert out[0, 0] == 5.0           # ceil(2 / 0.625) + 1
    assert out[1, 0] == 9.0 == rounded.C - 1
    assert np.isinf(out[0, 1]) and np.isinf(out[1, 1])
    assert inst.query_count == 4


def test_round_costs_rejects_nan_reads():
    inst = BipartiteInstance.from_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]))
    rounded = round_costs(inst.cost, 0.5, 2.5)
    assert rounded.pairs([0, 1], [0, 1])[0] == 5.0  # NaN-free reads still answer
    with pytest.raises(ValueError, match="a cost read is NaN"):
        rounded.pairs([1, 0], [0, 1])
    with pytest.raises(ValueError, match="a cost read is NaN"):
        rounded.block(np.arange(2), np.arange(2))
    assert inst.query_count == 2 + 2 + 4  # no read beyond the ones asked for


def test_round_costs_rejects_nan_w():
    # a NaN threshold would compare false everywhere and drop every edge
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
        seen["C"] = params.C  # what report["C"] holds
        seen["cost_C"] = instance.cost.C  # stages.padded.instance.cost.C
        raise _StopAtTemplate

    monkeypatch.setattr(pipeline, "run_template", stop)
    inst = uniform_instance(12, 5)
    cfg = ReductionConfig(0.5, 1.0, 0.5)
    for T in range(4, 201):
        with pytest.raises(_StopAtTemplate):
            estimate_min_weight_matching(inst, cfg, Backend.exact(seed=0), seed=0, T=T)
        levels = seen["levels"][np.isfinite(seen["levels"])]
        assert seen["C"] == seen["cost_C"] == T - 1
        assert levels.min() >= 1 and T - 2 <= levels.max() <= T - 1


def test_report_c_is_t_minus_one():
    res = estimate_min_weight_matching(uniform_instance(12, 5), ReductionConfig(0.5, 1.0, 0.5),
                                       Backend.exact(seed=0), seed=0, T=17, k=3)
    assert res.report["C"] == res.stages.template_params.C == 16
    assert res.stages.padded.instance.cost.C == 16


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
    # an estimate's matching holds the template matching's real-real pairs
    # and leaves unmatched every real vertex whose mate there is a dummy
    n = 60
    for variant in ("exact", "sampled"):
        res = estimate_min_weight_matching(uniform_instance(n, 1),
                                           ReductionConfig(0.85, 1.0, 0.1),
                                           Backend(variant, seed=1), seed=1)
        inner = res.matching.base
        assert inner is res.stages.template.matching and res.matching.n == n
        to_dummy = 0
        for got, mates in ((res.matching.mate_of_v0(), inner.mate_of_v0()[:n]),
                           (res.matching.mate_of_v1(), inner.mate_of_v1()[:n])):
            real = mates < n  # a real mate, or none
            assert np.array_equal(got[real], mates[real])
            assert np.all(got[~real] == UNMATCHED)
            to_dummy += int(np.count_nonzero(~real))
        assert to_dummy > 0 and res.matching.size() > 0.8 * n, variant


# -- the one level oracle against the three adapters it replaced --------------------

class _ReferenceAdapterCost(CostOracle):
    """The adapter base the three adapters below were written against, kept verbatim."""

    def __init__(self, base: CostOracle, n: int | None = None):
        super().__init__(base.n if n is None else n)
        self.base = base

    @property
    def counter(self) -> QueryCounter:
        return self.base.counter

    def _map(self, vals: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _block(self, rows, cols, counted):
        return self._map(self.base._block(rows, cols, counted))

    def _pairs(self, is_, js, counted):
        return self._map(self.base._pairs(is_, js, counted))


def _reference_reject_negative(vals: np.ndarray):
    neg = vals < 0
    if neg.any():
        raise ValueError(f"malformed cost: negative cost {float(vals[neg][0])!r}; "
                         "costs must be non-negative")


class _ReferenceRoundedCost(_ReferenceAdapterCost):
    """``pipeline.RoundedCost`` before the one level oracle, kept verbatim."""

    def __init__(self, base: CostOracle, gamma: float, w: float):
        super().__init__(base)
        self.gamma = float(gamma)
        self.w = float(w)
        if not self.w > 0:  # NaN fails this test too
            raise ValueError(f"w must be positive, not {w!r}")
        if self.w == math.inf:  # the levels would divide inf by inf
            raise ValueError("w must be finite, not inf")
        self.C = math.ceil(2.0 / gamma ** 2) + 2
        self.scale_back = gamma ** 2 * w / 2.0

    def _map(self, vals):
        if np.isnan(vals).any():
            raise ValueError("malformed cost: a cost read is NaN")
        _reference_reject_negative(vals)
        edge = vals <= self.w  # w is finite, so a +inf cost is a non-edge
        return np.where(edge, np.ceil(2.0 * vals / (self.gamma ** 2 * self.w)) + 1.0,
                        np.inf)


class _ReferencePaddedCost(_ReferenceAdapterCost):
    """``pipeline._PaddedCost``, kept verbatim."""

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


class _ReferenceValidatingCost(_ReferenceAdapterCost):
    """``template._ValidatingCost``, kept verbatim."""

    def __init__(self, base: CostOracle, C: int):
        super().__init__(base)
        self.C = C

    def _map(self, vals):
        # NaN fails rint equality, -inf the lower bound
        bad = (vals != np.inf) & ((vals < 1) | (vals > self.C) | (vals != np.rint(vals)))
        if bad.any():
            first = float(vals[bad].ravel()[0])
            raise ValueError(
                f"malformed cost: {first!r} is not an integer in [1, {self.C}]")
        return vals


def _level_pair(costs, gamma, w, C, d):
    """The pipeline's level oracle and the three-adapter reference stack,
    each over its own root holding ``costs``."""
    n = len(costs)
    got = LevelCost(MatrixCost(costs), gamma, w, C, n + d)
    ref = _ReferenceValidatingCost(_ReferencePaddedCost(
        _ReferenceRoundedCost(MatrixCost(costs), gamma, w), n, n + d), C)
    return got, ref


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_level_cost_equals_the_three_adapter_reference():
    rng = np.random.default_rng(2121)
    kinds = set()
    for trial in range(60):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 8))
        C = int(rng.integers(3, 120))
        gamma = math.sqrt(2.0 / (C - 2))
        costs = rng.random((n, n)) * rng.choice([1.0, 1e-3, 50.0])
        w = float(np.quantile(costs, rng.uniform(0.2, 0.9)))
        pick = rng.random((n, n))
        costs[pick < 0.1] = 0.0
        costs[(pick >= 0.1) & (pick < 0.2)] = w
        costs[(pick >= 0.2) & (pick < 0.25)] = np.inf
        kinds |= {v for v, hit in [("zero", (costs == 0).any()), ("w", (costs == w).any()),
                                   ("above", ((costs > w) & np.isfinite(costs)).any()),
                                   ("inf", np.isinf(costs).any())] if hit}
        got, ref = _level_pair(costs, gamma, w, C, d)
        assert got.n == ref.n == n + d and got.C == C
        npad = n + d
        everything = np.arange(npad)
        assert _same_bits(got.block(everything, everything), ref.block(everything, everything))
        for _ in range(6):
            rows = rng.integers(0, npad, size=int(rng.integers(0, 2 * npad)))
            cols = rng.integers(0, npad, size=int(rng.integers(0, 2 * npad)))
            assert _same_bits(got.block(rows, cols), ref.block(rows, cols))
            assert got.counter.count == ref.counter.count
            lo = int(rng.choice([0, n]))  # some reads only among the dummies
            size = int(rng.integers(0, 3 * npad))
            is_ = rng.integers(lo, npad, size=size)
            js = rng.integers(0, npad, size=size)
            if rng.random() < 0.3:
                js = rng.integers(0, n, size=size)  # the all-real shortcut
                is_ = rng.integers(0, n, size=size)
            assert _same_bits(got.pairs(is_, js), ref.pairs(is_, js))
            assert got.counter.count == ref.counter.count
        # rounding alone, as round_costs and the acceptance suite use it
        alone, ref_alone = RoundedCost(MatrixCost(costs), gamma, w), \
            _ReferenceRoundedCost(MatrixCost(costs), gamma, w)
        assert alone.C == ref_alone.C
        assert _same_bits(alone.peek_dense(), ref_alone.peek_dense())
    assert kinds == {"zero", "w", "above", "inf"}


@pytest.mark.parametrize("bad", [np.nan, -0.5, -np.inf])
def test_level_cost_rejects_bad_reads_like_the_reference(bad):
    rng = np.random.default_rng(7)
    costs = rng.random((6, 6))
    costs[2, 4] = bad
    got, ref = _level_pair(costs, math.sqrt(2.0 / 39), 0.5, 41, 3)
    reads = [
        ("pairs", np.array([5, 2, 7, 0]), np.array([1, 4, 8, 7])),
        ("pairs", np.array([2]), np.array([4])),
        ("block", np.array([0, 2, 6]), np.array([4, 8])),
        ("block", np.arange(9), np.arange(9)),
    ]
    for how, a, b in reads:
        errors = []
        for oracle in (got, ref):
            with pytest.raises(ValueError) as err:
                getattr(oracle, how)(a, b)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert got.counter.count == ref.counter.count
    # reads that miss the bad entry, or touch only dummies, still answer
    assert _same_bits(got.pairs([6, 2, 2], [7, 3, 8]), ref.pairs([6, 2, 2], [7, 3, 8]))
    assert got.counter.count == ref.counter.count


def test_level_cost_rejects_a_bound_below_the_level_of_w():
    inst = BipartiteInstance.from_matrix(np.ones((2, 2)))
    gamma = math.sqrt(2.0 / 39)  # the level of w is 40 or 41
    LevelCost(inst.cost, gamma, 1.0, 41)
    with pytest.raises(ValueError, match="below the level of w"):
        LevelCost(inst.cost, gamma, 1.0, 39)
    assert inst.query_count == 0


def test_run_template_does_not_check_the_level_oracle_again(monkeypatch):
    # the pipeline's oracle is in [1, C] by construction; any other cost is checked
    from submatch import template
    wrapped = []
    real = template._ValidatingCost

    def spy(base, C):
        wrapped.append(type(base).__name__)
        return real(base, C)

    monkeypatch.setattr(template, "_ValidatingCost", spy)
    inst = uniform_instance(60, 3)
    estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                 Backend.sampled(seed=1), seed=1, T=8, k=3)
    assert wrapped == []
    costs = np.ones((8, 8))
    template.run_template(BipartiteInstance.from_matrix(costs),
                          template.TemplateParams(0.5, 3, 4, 3), Backend.exact(), seed=0)
    assert wrapped == ["MatrixCost"]


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


def test_degenerate_estimate_matches_the_exact_floor_of_beta_n():
    # 0.7 * 90 is 62.99999999999999 in floats; the fallback must match 63
    n = 90
    inst = uniform_instance(n, 1)
    dense = inst.cost.peek_dense()
    res = estimate_min_weight_matching(inst, ReductionConfig(0.65, 0.7, 0.1),
                                       Backend.exact(seed=0), seed=0)
    assert res.report["degenerate"]
    assert res.estimate == baseline.exact_min_weight_k_matching(dense, 63).value
    assert res.report["matched_fraction"] == 63 / n
    assert res.matching.size() == 63


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


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_report_holds_one_record_per_template_iteration(variant):
    inst = uniform_instance(200, 5)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend(variant, seed=5), seed=5, T=8, k=5)
    its = res.report["iterations"]
    assert [rec["t"] for rec in its] == list(range(1, 9))
    assert its == res.stages.template.iterations
    matched = [rec["matched"] for rec in its]
    assert matched == sorted(matched) and matched[-1] > 0  # never decreases
    assert matched == [state.matching.size() for state in res.stages.template.states[1:]]
    for rec in its:
        assert rec["step2_capped"] == (rec["step2_layers"] == 5 // 2)
        assert rec["step1_rounds"] >= 0 and 0 <= rec["step2_layers"] <= 5 // 2
    assert sum(rec["step1_rounds"] for rec in its) >= 1
    # where the template does not run there are no records
    small = estimate_min_weight_matching(uniform_instance(6, 5), ReductionConfig(0.5, 1.0, 0.3),
                                         Backend(variant, seed=5), seed=5)
    assert small.report["degenerate"] and small.report["iterations"] == []


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


@pytest.mark.parametrize("B, gamma, T, k, named", [
    (float("nan"), 0.2, None, None, "budget B"),
    (1.0, 0.0, None, None, "gamma"),
    (1.0, -0.1, None, None, "gamma"),
    (1.0, float("nan"), None, None, "gamma"),
    (1.0, 0.2, 3, None, "T must be >= 4"),
    (1.0, 0.2, None, 0, "k must be >= 1"),
], ids=["nan-budget", "zero-gamma", "negative-gamma", "nan-gamma", "T3", "k0"])
def test_knapsack_rejects_malformed_argument(B, gamma, T, k, named):
    inst = uniform_instance(40, 3)
    with pytest.raises(ValueError, match=named):
        max_matching_under_budget(inst, B, gamma, Backend.exact(seed=0), seed=0, T=T, k=k)
    assert inst.query_count == 0  # rejected before any cost is read


@pytest.mark.parametrize("T, k, named", [(3, None, "T must be >= 4"),
                                         (None, 0, "k must be >= 1")], ids=["T3", "k0"])
@pytest.mark.parametrize("n", [200, 20], ids=["full", "degenerate"])
@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_estimator_rejects_bad_T_or_k_before_any_read(variant, n, T, k, named):
    inst = uniform_instance(n, 1)
    with pytest.raises(ValueError, match=named):
        estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                     Backend(variant, seed=0), seed=0, T=T, k=k)
    assert inst.query_count == 0


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_T_above_the_int16_range_is_rejected_before_any_read(variant):
    # the exact backend holds levels and potentials in int16, so T is capped
    # where every sum the eligibility test forms stays below the non-edge
    from submatch.template import MAX_T, TemplateParams
    assert MAX_T == 16383
    inst = uniform_instance(20, 1)  # answered by the baseline if T were not checked
    with pytest.raises(ValueError, match="T must be <= 16383"):
        estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                     Backend(variant, seed=0), seed=0, T=MAX_T + 1)
    assert inst.query_count == 0
    with pytest.raises(ValueError, match="T must be <= 16383"):
        TemplateParams(0.1, 5, MAX_T + 1, 3)
    with pytest.raises(ValueError, match="C must be < 32767"):
        TemplateParams(0.1, 32767, 10, 3)
    TemplateParams(0.1, 32766, MAX_T, 3)  # the largest allowed


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
    # the answer must not move with how often the costs are read; it is
    # read from the true costs (5.0427474186475445 when it was read from
    # the rounded levels, against the window [0.77, 1.61], and
    # 1.2291638903056794 while each forward call matched one potential
    # bucket)
    n = 200
    inst = uniform_instance(n, 3)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.exact(seed=3), seed=3)
    assert not res.report["degenerate"]
    assert res.estimate == 1.245526245349203
    assert inst.query_count == n * n
    assert res.report["total_queries"] == n * n


def test_sampled_estimate_and_reads_are_pinned():
    # the sampled backend reads on demand, only the probes that can change
    # its answer; read from the rounded levels, with target-0 forward
    # buckets probed and the matched edges read three times, the answer
    # was 44.79995253571114 from 120088 reads, and with one path search per
    # free start, not per group of starts, 10.027269439334248 from 118086;
    # the same answer read 117945 with a length-3 augmentation pass after
    # each sampled greedy, and 116603 while each Step 1 potential re-read
    # the cost of a side-1 vertex's matched edge; 10.379811412231367 from
    # 116013 while each forward call matched one potential bucket
    inst = uniform_instance(128, 4)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.sampled(seed=4, epsilon=0.2),
                                       seed=4, T=8, k=5)
    assert res.estimate == 9.657791778235614
    assert inst.query_count == 114334


def test_sampled_estimate_reads_each_real_matched_edge_once(monkeypatch):
    # from the end of the template through the report's matched fraction,
    # the reads are one per real-real matched edge and none of a dummy pair
    from submatch import template
    n = 128
    inst = uniform_instance(n, 4)
    entered = []

    def spy(*args):
        entered.append(inst.query_count)
        return sample_and_estimate(*args)

    monkeypatch.setattr(template, "sample_and_estimate", spy)
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.sampled(seed=4, epsilon=0.2),
                                       seed=4, T=8, k=5)
    m0 = res.stages.template.matching.base.mate_of_v0()
    real_real = int(np.count_nonzero((m0[:n] != UNMATCHED) & (m0[:n] < n)))
    assert len(entered) == 1 and real_real > 0
    assert inst.query_count - entered[0] == real_real


def test_exact_estimate_lands_in_window_at_the_defaults():
    # default T and k on uniform n = 200 instances: the estimate lies in
    # [c(M^0.85n), c(M^n)] and the returned matching is large enough
    n = 200
    config = ReductionConfig(0.85, 1.0, 0.1)
    for child in np.random.SeedSequence(22).spawn(4):
        seed = int(child.generate_state(1)[0])
        inst = uniform_instance(n, seed)
        res = estimate_min_weight_matching(inst, config, Backend.exact(seed=seed), seed=seed)
        sweep = baseline.min_weight_matching_sweep(inst.cost.peek_dense())
        assert sweep[math.ceil(config.alpha * n)] <= res.estimate <= sweep[n], seed
        assert res.report["matched_fraction"] >= config.alpha


def test_sampled_matching_is_large_enough_at_the_defaults():
    # the cut at w keeps the edges tied with w at its level, so the sampled
    # backend's returned matching holds alpha * n edges too, at the defaults
    # and at the sampled pin's T = 8, k = 5
    config = ReductionConfig(0.85, 1.0, 0.1)
    cases = [(200, int(child.generate_state(1)[0]), {}, {})
             for child in np.random.SeedSequence(22).spawn(4)]
    cases.append((128, 4, {"epsilon": 0.2}, {"T": 8, "k": 5}))
    for n, seed, sampler, budget in cases:
        res = estimate_min_weight_matching(uniform_instance(n, seed), config,
                                           Backend.sampled(seed=seed, **sampler),
                                           seed=seed, **budget)
        assert res.report["matched_fraction"] >= config.alpha, seed


def test_knapsack_answer_and_reads_are_pinned():
    # pins today's answer, not a correct one: the exact size is 166 (the
    # answer was 50.0 while the estimate was read from rounded levels), and
    # the characteristic cost's threshold multiplier (see ROADMAP item 4)
    # will move it; the whole grid shares one materialized matrix
    n = 200
    inst = uniform_instance(n, 12345)
    B = baseline.min_weight_matching_sweep(inst.cost.peek_dense())[n] / 2
    assert B == pytest.approx(0.71995, abs=1e-5)
    s_hat = max_matching_under_budget(inst, B, 0.1, Backend.exact(seed=0), seed=0)
    assert s_hat == 80.0
    assert inst.query_count == n * n


def test_nan_off_the_ladder_is_rejected():
    # no ladder draw hits (3, 7); the threshold step reads it and raises
    costs = uniform_instance(100, 0).cost.peek_dense()
    costs[3, 7] = np.nan
    inst = BipartiteInstance.from_matrix(costs)
    with pytest.raises(ValueError, match="NaN"):
        estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                     Backend.exact(seed=0), seed=0)


@pytest.mark.parametrize("variant", ["exact", "sampled"])
def test_all_infinite_matrix_estimates_infinity_without_warnings(variant):
    # no edge at all: c(M^{beta n}) is +inf, and the answer comes before rounding
    inst = BipartiteInstance.from_matrix(np.full((60, 60), np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimate_min_weight_matching(inst, ReductionConfig(0.5, 1.0, 0.5),
                                           Backend(variant, seed=0), seed=0)
    assert not res.report["degenerate"]
    assert res.estimate == math.inf and res.report["estimate"] == math.inf
    assert res.report["w_bar"] == math.inf
    assert res.matching.size() == 0 and res.report["matched_fraction"] == 0.0


def test_round_costs_rejects_infinite_w():
    inst = BipartiteInstance.from_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="w must be finite, not inf"):
        round_costs(inst.cost, 0.5, math.inf)
    assert inst.query_count == 0


@pytest.mark.parametrize("config", [ReductionConfig(0.85, 1.0, 0.1),
                                    ReductionConfig(0.99, 1.0, 0.1)])  # degenerate
def test_prepared_instance_reads_no_cost_again(config):
    n = 100
    inst = uniform_instance(n, 5)
    backend = Backend.exact(seed=0)
    first = estimate_min_weight_matching(inst, config, backend, seed=0)
    assert first.report["degenerate"] == (n < 1.0 / config.gamma_effective)
    assert inst.query_count == n * n
    again = estimate_min_weight_matching(first.stages.prepared, config, backend, seed=0)
    assert again.stages.prepared.cost is first.stages.prepared.cost
    assert again.estimate == first.estimate
    assert inst.query_count == n * n


def test_all_zero_matrix_estimates_zero():
    n = 100
    inst = BipartiteInstance.from_matrix(np.zeros((n, n)))
    res = estimate_min_weight_matching(inst, ReductionConfig(0.85, 1.0, 0.1),
                                       Backend.exact(seed=0), seed=0)
    assert not res.report["degenerate"]
    assert res.stages.characteristic.w_bar == 0.0
    assert res.estimate == 0.0
    assert inst.query_count == n * n
