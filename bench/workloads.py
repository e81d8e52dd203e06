"""The benchmark's workloads: seeded instance sets, the timed public-API call
and the judgement of each answer against its reference.

Every workload is a closed loop: one caller makes back-to-back calls over a
fixed set of instances derived from the workload seed.  Instance seeds are
hashed from the workload seed through ``np.random.SeedSequence``; consecutive
integers would give overlapping row-shifted copies of one uniform matrix.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from submatch import baseline, emd, generators, pipeline
from submatch.core import BipartiteInstance, FunctionCost
from submatch.emd import DiscreteDistribution
from submatch.mcm import Backend


@dataclass
class Case:
    """One instance of a workload and the seed of the call made on it."""

    index: int
    gen_seed: int
    call_seed: int
    payload: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one public-API call returned, as the benchmark judges it."""

    answer: float
    queries: int
    norm: int                       # n^2, or m^2 for EMD
    call_log: list
    matched_fraction: float | None  # only where the call returns a matching


def case_seeds(workload: str, seed: int, count: int) -> list[tuple[int, int]]:
    """(generator seed, call seed) per instance, hashed from the workload seed."""
    root = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return [tuple(int(x) for x in child.generate_state(2)) for child in root.spawn(count)]


def k_matching_cost(dense: np.ndarray, k: int) -> float:
    """Exact min cost of a size-k matching, by the assignment problem padded
    with n - k dummy rows and columns (dummy-dummy pairs forbidden)."""
    from scipy.optimize import linear_sum_assignment
    n = dense.shape[0]
    d = n - k
    padded = np.zeros((n + d, n + d))
    padded[:n, :n] = dense
    padded[n:, n:] = np.inf
    rows, cols = linear_sum_assignment(padded)
    real = (rows < n) & (cols < n)
    return float(dense[rows[real], cols[real]].sum())


class RootCost:
    """The generated instance's costs behind a counting oracle the benchmark owns.

    ``block``/``pairs`` read the generated instance through its uncounted
    ``peek_*`` methods, so the benchmark's ``FunctionCost`` counts every read
    exactly as the generator's own would.  Their calls are the
    ``generators.cost_eval`` span boundary in the traced run.
    """

    def __init__(self, source: BipartiteInstance):
        self.source = source

    def block(self, rows, cols):
        return self.source.cost.peek_block(rows, cols)

    def pairs(self, is_, js):
        return self.source.cost.peek_pairs(is_, js)


def counting_instance(source: BipartiteInstance) -> BipartiteInstance:
    root = RootCost(source)
    # look the methods up per call so the tracer can wrap them on the class
    cost = FunctionCost(source.n, lambda r, c: root.block(r, c),
                        lambda i, j: root.pairs(i, j))
    return BipartiteInstance(source.n, cost)


def called_instance(source: BipartiteInstance, traced: bool) -> BipartiteInstance:
    """The generated instance as the timed calls get it: as is, or behind
    the benchmark's counting oracle when the root cost is traced."""
    return counting_instance(source) if traced else source


class Workload:
    """A named, seeded instance set and the public-API call made on each."""

    #: answers must come with a matching of at least this matched fraction
    min_fraction: float | None = None

    def __init__(self, name: str, count: int, why: str):
        self.name = name
        self.count = count
        self.why = why

    @property
    def signature(self) -> str:
        """Everything the reference answers depend on besides the seed."""
        consts = {k: v for k, v in vars(type(self)).items()
                  if not k.startswith("_")
                  and isinstance(v, (int, float, str, pipeline.ReductionConfig))}
        return repr((type(self).__name__, consts, vars(self)))

    def build(self, seed: int, refs: list[dict], traced: bool) -> list[Case]:
        return [self.make(Case(i, g, c), refs[i], traced)
                for i, (g, c) in enumerate(case_seeds(self.name, seed, self.count))]

    def make(self, case: Case, ref: dict, traced: bool) -> Case:
        """Construct the case's inputs (set-up work, timed as such).  With
        ``traced`` false they come straight from the public API."""
        raise NotImplementedError

    def warm_up(self, traced: bool):
        raise NotImplementedError

    def call(self, case: Case) -> Outcome:
        raise NotImplementedError

    def reference(self, case: Case) -> dict:
        raise NotImplementedError

    def judge(self, answer: float, ref: dict) -> tuple[float, bool]:
        """(distance from the reference window, whether inside it)."""
        raise NotImplementedError


class Sandwich(Workload):
    """``estimate_min_weight_matching`` on uniform costs, judged against the
    window [c(M^alpha n), c(M^beta n)]."""

    config = pipeline.ReductionConfig(0.85, 1.0, 0.1)
    min_fraction = config.alpha
    warm_n = 64

    def __init__(self, name: str, n: int, variant: str, count: int, why: str):
        super().__init__(name, count, why)
        self.n = n
        self.variant = variant

    def backend(self, seed: int) -> Backend:
        if self.variant == "exact":
            return Backend.exact(seed=seed)
        return Backend.sampled(seed=seed, epsilon=0.1)

    def source(self, case: Case) -> BipartiteInstance:
        return generators.uniform_instance(self.n, case.gen_seed)

    def make(self, case, ref, traced):
        case.payload["instance"] = called_instance(self.source(case), traced)
        return case

    def warm_up(self, traced):
        inst = called_instance(generators.uniform_instance(self.warm_n, 0), traced)
        pipeline.estimate_min_weight_matching(inst, self.config, self.backend(0), seed=0)

    def call(self, case):
        instance = case.payload["instance"]
        instance.reset_query_count()
        backend = self.backend(case.call_seed)
        res = pipeline.estimate_min_weight_matching(
            instance, self.config, backend, seed=case.call_seed)
        return Outcome(res.estimate, instance.query_count, self.n ** 2,
                       backend.call_log, res.report["matched_fraction"])

    def reference(self, case):
        dense = self.source(case).cost.peek_dense()
        lo_k = math.floor(self.config.alpha * self.n + 1e-9)
        hi_k = math.floor(self.config.beta * self.n + 1e-9)
        return {"lo": k_matching_cost(dense, lo_k), "hi": k_matching_cost(dense, hi_k)}

    def judge(self, answer, ref):
        miss = max(ref["lo"] - answer, answer - ref["hi"], 0.0)
        return miss / ref["hi"], miss == 0.0


class Emd(Workload):
    """``estimate_emd`` between uniform distributions over an arbitrary cost
    table in [0, 1], judged against ``baseline.exact_emd`` within +-gamma."""

    # support 20 (m = 240 draws) rather than criterion 4's 30 (m = 409): the
    # call time varies between instances (log-sd 0.17 at 20, 0.23 at 30), so
    # a run's median holds still across seeds only over about 24 instances,
    # and at support 30 those do not fit in one run
    support = 20
    gamma = 0.15
    warm_support = 16  # smallest support whose draw takes the template path

    def _distributions(self, support: int, gen_seed: int):
        # Uniform masses: with Dirichlet(1) masses the call time varies too
        # much between instances (log-sd 0.49) for a run's median to hold
        # still across seeds; m draws from 20 points still tie heavily.
        rng = np.random.default_rng(gen_seed)
        masses = np.full(support, 1.0 / support)
        table = rng.random((support, support))  # no metric axioms
        return masses, masses.copy(), table

    def make(self, case, ref, traced):
        mu_m, nu_m, table = self._distributions(self.support, case.gen_seed)
        case.payload["mu"] = DiscreteDistribution(mu_m, table)
        case.payload["nu"] = DiscreteDistribution(nu_m, table)
        return case

    def warm_up(self, traced):
        mu_m, nu_m, table = self._distributions(self.warm_support, 0)
        emd.estimate_emd(DiscreteDistribution(mu_m, table), DiscreteDistribution(nu_m, table),
                         self.warm_support, self.gamma, Backend.exact(seed=0), seed=0)

    def call(self, case):
        # estimate_emd_detailed is the public function behind estimate_emd; it
        # also returns the sampled instance, whose counter holds the reads
        backend = Backend.exact(seed=case.call_seed)
        value, pair, _ = emd.estimate_emd_detailed(
            case.payload["mu"], case.payload["nu"], self.support, self.gamma,
            backend, seed=case.call_seed)
        return Outcome(value, pair.instance.query_count, pair.m ** 2, backend.call_log, None)

    def reference(self, case):
        return {"emd": baseline.exact_emd(*self._distributions(self.support, case.gen_seed))}

    def judge(self, answer, ref):
        err = abs(answer - ref["emd"])
        return err, err <= self.gamma


class Knapsack(Workload):
    """``max_matching_under_budget`` with budget c(M^n)/2, judged against the
    exact size from ``baseline.min_weight_matching_sweep`` within +-gamma*n."""

    gamma = 0.1
    # n = 200 is the smallest size on the template path at gamma = 0.1;
    # a coarser gamma gets there at the warm-up's size
    warm_n = 64
    warm_gamma = 0.4

    def __init__(self, name: str, n: int, count: int, why: str):
        super().__init__(name, count, why)
        self.n = n

    def source(self, case: Case) -> BipartiteInstance:
        return generators.uniform_instance(self.n, case.gen_seed)

    def make(self, case, ref, traced):
        case.payload["instance"] = called_instance(self.source(case), traced)
        case.payload["budget"] = ref["budget"]
        return case

    def warm_up(self, traced):
        inst = called_instance(generators.uniform_instance(self.warm_n, 0), traced)
        pipeline.max_matching_under_budget(inst, self.warm_n / 8.0, self.warm_gamma,
                                           Backend.exact(seed=0), seed=0)

    def call(self, case):
        instance = case.payload["instance"]
        instance.reset_query_count()
        backend = Backend.exact(seed=case.call_seed)
        size = pipeline.max_matching_under_budget(
            instance, case.payload["budget"], self.gamma, backend, seed=case.call_seed)
        return Outcome(size, instance.query_count, self.n ** 2, backend.call_log, None)

    def reference(self, case):
        dense = self.source(case).cost.peek_dense()
        sweep = baseline.min_weight_matching_sweep(dense)
        budget = 0.5 * float(sweep[self.n])
        exact = int(np.max(np.nonzero(sweep <= budget)[0]))
        # the sandwich windows come from k_matching_cost; pin it to the baseline
        for k in (self.n, math.floor(0.85 * self.n)):
            if abs(k_matching_cost(dense, k) - float(sweep[k])) > 1e-6:
                raise AssertionError(
                    f"k-matching reference disagrees with the baseline sweep at k={k}")
        return {"budget": budget, "exact_size": exact}

    def judge(self, answer, ref):
        err = abs(answer - ref["exact_size"])
        return err / self.n, err <= self.gamma * self.n


WORKLOADS = {w.name: w for w in (
    Sandwich("exact-uniform", 600, "exact", 8,
             "canonical estimator call; mcm's exact dense reads and Hopcroft-Karp do most of the work"),
    Sandwich("sampled-uniform", 512, "sampled", 6,
             "point-query path through the adapter stack; no dense read, so exact-backend changes should not move it"),
    Emd("emd-discrete", 24,
        "only emd workload; heavily tied draws give dense eligibility graphs for the exact path DFS and a narrow window"),
    Knapsack("knapsack-uniform", 200, 3,
             "several estimator calls per instance; the sampling estimator dominates and work repeats"),
)}
