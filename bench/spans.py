"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the public functions of each submatch module from its
own files; no program code changes.  Every wrapped call records one span:
its name, start, end, parent span, the API call it belongs to and the
instance's query counter at both ends.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

#: span names whose reads belong to the layer that called them
READ_SPANS = ("core.cost_read", "core.oracle_query", "generators.cost_eval")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reader: list[bool] = []   # per name: part of READ_SPANS
        self._active: list[int] = []    # per name: spans currently open
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.outer = array("b")   # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")  # time covered by direct child spans
        self.q0 = array("q")
        self.q1 = array("q")
        self.child_q = array("q")  # reads of direct child layer spans
        self.notes: dict[str, list[float]] = {}
        self.counter = None        # QueryCounter of the instance under test
        self.call_index = -1

    def begin_call(self, index: int, counter):
        self.call_index = index
        self.counter = counter

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._reader.append(name in READ_SPANS)
            self._active.append(0)
        return sid

    def note(self, key: str, value: float):
        self.notes.setdefault(key, []).append(float(value))

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_index)
        self.outer.append(self._active[sid] == 0)
        self._active[sid] += 1
        self.child_s.append(0.0)
        self.child_q.append(0)
        self.q1.append(0)
        self.end.append(0.0)
        self.q0.append(self.counter.count if self.counter is not None else 0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, sid: int):
        t = time.perf_counter()
        self.end[idx] = t
        q = self.counter.count if self.counter is not None else 0
        self.q1[idx] = q
        self._stack.pop()
        self._active[sid] -= 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child_s[parent] += t - self.start[idx]
            if not self._reader[sid]:
                self.child_q[parent] += q - self.q0[idx]

    def wrap(self, name: str, fn, note=None):
        sid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, sid)
            if note is not None:
                note(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "child_s": np.frombuffer(self.child_s, dtype=np.float64),
            "q0": np.frombuffer(self.q0, dtype=np.int64),
            "q1": np.frombuffer(self.q1, dtype=np.int64),
            "child_q": np.frombuffer(self.child_q, dtype=np.int64),
        }

    def write(self, path: Path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{
            k: a[k] for k in ("name", "parent", "call", "start", "end", "q0", "q1")})


def _hit(name):
    return lambda tr, out: tr.note(name + ".hit", out is not None)


def _estimated(tr, res):
    tr.note("pipeline.matched_fraction", res.report["matched_fraction"])


def _characteristic(tr, out):
    tr.note("pipeline.find_characteristic_cost.probes", out.probes)
    tr.note("pipeline.w_bar", out.w_bar)


def _sampled(tr, pair):
    # the EMD instance exists only from here on; it starts at zero reads
    tr.counter = pair.instance.cost.counter
    tr.note("emd.sample_empirical.draws", 2 * pair.m)


def targets():
    """(owner, attribute, span name, note) for every wrapped public function.

    Functions a module imported by name are wrapped where the caller looks
    them up, so ``pipeline.run_template`` is ``template.run_template`` as
    the pipeline calls it.
    """
    from submatch import core, emd, mcm, pipeline, template
    import workloads
    return [
        (emd, "estimate_emd_detailed", "emd.estimate_emd", None),
        (emd, "sample_empirical", "emd.sample_empirical", _sampled),
        (emd, "estimate_min_weight_matching", "pipeline.estimate_min_weight_matching",
         _estimated),
        (pipeline, "estimate_min_weight_matching", "pipeline.estimate_min_weight_matching",
         _estimated),
        (pipeline, "max_matching_under_budget", "pipeline.max_matching_under_budget", None),
        (pipeline, "find_characteristic_cost", "pipeline.find_characteristic_cost",
         _characteristic),
        (pipeline, "run_template", "template.run_template", None),
        (template, "step1", "template.step1",
         lambda tr, out: tr.note("template.step1.rounds", out[2])),
        (template, "step2", "template.step2",
         lambda tr, out: tr.note("template.step2.layers", out[2])),
        (template, "sample_and_estimate", "template.sample_and_estimate", None),
        (mcm.Backend, "approx_match", "mcm.approx_match", None),
        (mcm.Backend, "large_match", "mcm.large_match", _hit("mcm.large_match")),
        (mcm.Backend, "large_matching_forward", "mcm.large_matching_forward",
         _hit("mcm.large_matching_forward")),
        (mcm.Backend, "augment_eligible", "mcm.augment_eligible",
         _hit("mcm.augment_eligible")),
        (core.CostOracle, "block", "core.cost_read", None),
        (core.CostOracle, "pairs", "core.cost_read", None),
        (core.MatchingOracle, "mates", "core.oracle_query", None),
        (core.PotentialOracle, "eval_many", "core.oracle_query", None),
        (core.MembershipOracle, "contains_many", "core.oracle_query", None),
        (workloads.RootCost, "block", "generators.cost_eval", None),
        (workloads.RootCost, "pairs", "generators.cost_eval", None),
        (emd.DiscreteDistribution, "metric_block", "generators.cost_eval", None),
        (emd.DiscreteDistribution, "metric_pairs", "generators.cost_eval", None),
    ]


@contextmanager
def _installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, note in targets():
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def installed(tracer: Tracer | None):
    """Wrap every target while the block runs; a no-op without a tracer."""
    return nullcontext() if tracer is None else _installed(tracer)


class Layers:
    """Per-name totals over the spans of a traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.a = tracer.arrays()
        self.dur = self.a["end"] - self.a["start"]
        self.q = self.a["q1"] - self.a["q0"]

    def _mask(self, name: str) -> np.ndarray:
        sid = self.tracer._ids.get(name)
        if sid is None:
            return np.zeros(len(self.dur), dtype=bool)
        return self.a["name"] == sid

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds(self, name: str) -> float:
        """Wall time inside the layer; nested same-name spans count once."""
        m = self._mask(name) & self.a["outer"]
        return float(self.dur[m].sum())

    def queries(self, name: str) -> int:
        m = self._mask(name) & self.a["outer"]
        return int(self.q[m].sum())

    def self_seconds(self) -> dict[str, float]:
        """Time of each span name minus the time its child spans cover."""
        own = self.dur - self.a["child_s"]
        return {name: float(own[self.a["name"] == sid].sum())
                for sid, name in enumerate(self.tracer.names)}

    def self_queries(self) -> dict[str, int]:
        """Reads of each layer span outside its child layer spans.

        Reads inside ``READ_SPANS`` count for the layer that made them, so
        the values sum exactly to the reads of the root spans.
        """
        own = self.q - self.a["child_q"]
        out = {}
        for sid, name in enumerate(self.tracer.names):
            if name in READ_SPANS:
                continue
            total = int(own[self.a["name"] == sid].sum())
            if total:
                out[name] = total
        return out

    def root_queries(self) -> dict[int, int]:
        """Reads per API call, from its root spans."""
        roots = self.a["parent"] < 0
        out: dict[int, int] = {}
        for call, q in zip(self.a["call"][roots], self.q[roots]):
            out[int(call)] = out.get(int(call), 0) + int(q)
        return out
