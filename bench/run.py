"""Benchmark of submatch's public estimators on one named workload.

    python3 bench/run.py --workload exact-uniform --seed 1 --seconds 20 --trace 0

Builds the workload's instances from the seed, times back-to-back calls for
the given seconds (at least one call per instance), checks every answer,
prints a table of all metrics with their units and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the JSON metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` every call into the modules' public functions is
recorded as a span and the JSON metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
MCM_OPS = ("approx_match", "large_match", "large_matching_forward", "augment_eligible")
TAIL_PERCENTILES = (99, 95, 90, 75)

#: name -> unit; reported by untraced runs
END_TO_END = {
    "estimate_s": "s",
    "queries_per_n2": "n2",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: accuracy and failures: printed by every run, in the JSON of traced runs
#: (they are 0 on some workloads, so they carry no regression bound)
ACCURACY = {
    "rel_err": "ratio",
    "in_window_frac": "ratio",
    "failed_frac": "ratio",
}
#: name -> unit; reported by traced runs, per public-API call
PER_LAYER = {
    **{f"mcm.{op}.{k}": u
       for op in ("augment_eligible", "approx_match", "large_matching_forward")
       for k, u in (("calls", "1/call"), ("s", "s/call"), ("queries", "n2/call"))},
    "mcm.augment_eligible.hit_ratio": "ratio",
    "mcm.large_matching_forward.hit_ratio": "ratio",
    "mcm.budget_use_max": "ratio",
    "template.run_template.s": "s/call",
    "template.step1.s": "s/call",
    "template.step1.rounds": "1/call",
    "template.step2.s": "s/call",
    "template.step2.layers": "1/call",
    "template.sample_and_estimate.s": "s/call",
    "template.sample_and_estimate.queries": "n2/call",
    "pipeline.find_characteristic_cost.s": "s/call",
    "pipeline.find_characteristic_cost.probes": "1/call",
    "pipeline.find_characteristic_cost.queries": "n2/call",
    "pipeline.w_bar": "cost",
    "pipeline.estimate_calls": "1/call",
    "pipeline.matched_fraction_min": "ratio",
    "core.cost_read.calls": "1/call",
    "core.cost_read.s": "s/call",
    "core.adapter_self_s": "s/call",
    "core.oracle_query.calls": "1/call",
    "core.oracle_query.s": "s/call",
    "generators.cost_eval.calls": "1/call",
    "generators.cost_eval.s": "s/call",
    "emd.sample_empirical.s": "s/call",
    "emd.sample_empirical.draws": "1/call",
    "pipeline.estimate_min_weight_matching.self_queries": "n2/call",
    "trace.overhead_s": "s",
    **ACCURACY,
}


@dataclass
class Call:
    case: int
    seconds: float
    outcome: object = None  # workloads.Outcome, None when the call raised
    error: str | None = None
    scale: float = 1.0      # Speed.scale around the call


class Speed:
    """Machine-speed probe: a fixed mix of interpreter loop and numpy work.

    The speed of a 2-core virtual machine that shares its host drifts by up
    to 1.7x for tens of seconds to minutes, longer than one run.  Each timed
    interval is multiplied by ``REFERENCE_S`` over the probe's time around
    it, so it reads as seconds at a fixed machine speed and the drift
    cancels.  Wall-clock figures are printed and recorded alongside.
    """

    #: about the probe's time on a 2-core Intel Xeon virtual machine, quiet host
    REFERENCE_S = 0.040

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._vec = rng.random(200_000)
        self._mat = rng.random((200, 200))

    def measure(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i & 7
        self._np.argsort(self._vec, kind="stable")
        for _ in range(20):
            (self._mat[:, None, :50] + self._mat[None, :50, :50]).sum()
        return time.perf_counter() - t

    def scale(self, before: float, after: float) -> float:
        return self.REFERENCE_S / (0.5 * (before + after))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit()}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = BENCH.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_loop(wl, cases, seconds: float, tracer, speed: Speed) -> list[Call]:
    """Closed loop: back-to-back calls, round-robin over the cases, until the
    time is up and every case has been called once."""
    calls = []
    deadline = time.perf_counter() + seconds
    before = speed.measure()
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        if tracer is not None:
            inst = case.payload.get("instance")
            tracer.begin_call(i, inst.cost.counter if inst is not None else None)
        t = time.perf_counter()
        try:
            calls.append(Call(case.index, 0.0, wl.call(case)))
        except Exception:  # a call that raises is a failed call, not a crash
            calls.append(Call(case.index, 0.0, None, traceback.format_exc()))
        calls[-1].seconds = time.perf_counter() - t
        after = speed.measure()
        calls[-1].scale = speed.scale(before, after)
        before = after
        i += 1
    return calls


def failure(wl, call: Call) -> str | None:
    if call.error is not None:
        return call.error.strip().splitlines()[-1]
    o = call.outcome
    if not math.isfinite(o.answer):
        return f"non-finite answer {o.answer!r}"
    if wl.min_fraction is not None and o.matched_fraction < wl.min_fraction:
        return f"matched fraction {o.matched_fraction:.4f} < {wl.min_fraction}"
    for rec in o.call_log:
        if rec["queries"] > rec["budget"]:
            return f"{rec['op']} read {rec['queries']} > budget {rec['budget']}"
    return None


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def call_log_totals(calls: list[Call]) -> dict[str, list[int]]:
    """[calls, reads] per Backend op over the run, from Backend.call_log."""
    out: dict[str, list[int]] = {}
    for c in calls:
        for rec in c.outcome.call_log if c.outcome is not None else ():
            tot = out.setdefault(rec["op"], [0, 0])
            tot[0] += 1
            tot[1] += rec["queries"]
    return out


def per_layer(tracer, calls: list[Call], norm: int,
              untraced0_s: float) -> tuple[dict, list[str], bool]:
    """Per-layer metrics per API call, the read breakdown and whether it
    reconciles with the instance counters and Backend.call_log."""
    import spans
    L = spans.Layers(tracer)
    done = [c for c in calls if c.outcome is not None]
    per = 1.0 / len(calls)
    logs = [rec for c in done for rec in c.outcome.call_log]
    log_q = {op: q for op, (_, q) in call_log_totals(calls).items()}

    def notes(key):
        return tracer.notes.get(key, [])

    def mean(key):
        vals = notes(key)
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    for op in ("augment_eligible", "approx_match", "large_matching_forward"):
        name = "mcm." + op
        m[name + ".calls"] = L.calls(name) * per
        m[name + ".s"] = L.seconds(name) * per
        m[name + ".queries"] = log_q.get(op, 0) * per / norm
    m["mcm.augment_eligible.hit_ratio"] = mean("mcm.augment_eligible.hit")
    m["mcm.large_matching_forward.hit_ratio"] = mean("mcm.large_matching_forward.hit")
    m["mcm.budget_use_max"] = max((r["queries"] / r["budget"] for r in logs if r["budget"]),
                                  default=0.0)
    for name in ("template.run_template", "template.step1", "template.step2",
                 "template.sample_and_estimate", "pipeline.find_characteristic_cost",
                 "core.cost_read", "core.oracle_query", "generators.cost_eval",
                 "emd.sample_empirical"):
        m[name + ".s"] = L.seconds(name) * per
    for name in ("core.cost_read", "core.oracle_query", "generators.cost_eval"):
        m[name + ".calls"] = L.calls(name) * per
    for name in ("template.sample_and_estimate", "pipeline.find_characteristic_cost"):
        m[name + ".queries"] = L.queries(name) * per / norm
    m["template.step1.rounds"] = sum(notes("template.step1.rounds")) * per
    m["template.step2.layers"] = sum(notes("template.step2.layers")) * per
    m["pipeline.find_characteristic_cost.probes"] = (
        sum(notes("pipeline.find_characteristic_cost.probes")) * per)
    m["pipeline.w_bar"] = statistics.median(notes("pipeline.w_bar") or [0.0])
    m["pipeline.estimate_calls"] = L.calls("pipeline.estimate_min_weight_matching") * per
    m["pipeline.matched_fraction_min"] = min(notes("pipeline.matched_fraction") or [0.0])
    m["core.adapter_self_s"] = m["core.cost_read.s"] - m["generators.cost_eval.s"]
    m["emd.sample_empirical.draws"] = sum(notes("emd.sample_empirical.draws")) * per
    traced0 = [c.seconds * c.scale for c in calls if c.case == 0]
    m["trace.overhead_s"] = statistics.median(traced0) - untraced0_s

    # reads: call_log ops + characteristic-cost ladder + sampling estimator
    # + the estimator's own reads (its matched-fraction check and the
    # degenerate exact path), each counted independently of the total
    own = L.self_queries()
    total = sum(c.outcome.queries for c in done)
    ladder = own.get("pipeline.find_characteristic_cost", 0)
    sampling = L.queries("template.sample_and_estimate")
    estimator = own.get("pipeline.estimate_min_weight_matching", 0)
    buckets = {"call_log ops": sum(log_q.values()), "ladder": ladder,
               "sample_and_estimate": sampling, "estimator's own": estimator}
    m["pipeline.estimate_min_weight_matching.self_queries"] = estimator * per / norm
    roots = L.root_queries()
    checks = {
        "call_log ops equal their spans' reads":
            all(log_q.get(op, 0) == L.queries("mcm." + op) for op in MCM_OPS),
        "root spans' reads equal instance.query_count":
            all(roots.get(i, 0) == c.outcome.queries
                for i, c in enumerate(calls) if c.outcome is not None),
        "the four read buckets sum to instance.query_count":
            sum(buckets.values()) == total,
    }
    lines = ["self time per call by span, s (span time minus its child spans):"]
    for name, sec in sorted(L.self_seconds().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<40} {sec * per:12.6f}")
    lines.append("reads per call by layer, n2 (exclusive of child layers):")
    for name, q in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<40} {q * per / norm:12.6f}")
    lines.append(f"  {'sum':<40} {sum(own.values()) * per / norm:12.6f}")
    lines.append("buckets, n2 per call: " + ", ".join(
        f"{k} {v * per / norm:.6f}"
        for k, v in (*buckets.items(), ("instance.query_count", total))))
    lines += [f"check: {k}: {'yes' if ok else 'NO'}" for k, ok in checks.items()]
    return m, lines, all(checks.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # one caller, one thread
    if not (SRC / "submatch" / "__init__.py").is_file():
        print(f"error: submatch sources not found under {SRC}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import submatch
    import_s = time.perf_counter() - t0
    if Path(submatch.__file__).resolve().parent != (SRC / "submatch").resolve():
        print(f"error: imported submatch from {submatch.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import reference
    import spans
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    refs = reference.load(wl, args.seed)
    speed = Speed()
    before = speed.measure()
    import_scale = speed.scale(before, before)
    setup, setup_scale = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        cases = wl.build(args.seed, refs, bool(args.trace))
        wl.warm_up(bool(args.trace))
        setup.append(time.perf_counter() - t)
        after = speed.measure()
        setup_scale.append(speed.scale(before, after))
        before = after

    tracer = spans.Tracer() if args.trace else None
    t_loop = time.perf_counter()
    with spans.installed(tracer):
        calls = run_loop(wl, cases, args.seconds, tracer, speed)
    loop_s = time.perf_counter() - t_loop
    # instance 0 once more, untraced, on inputs built straight from the public API
    c0 = cases[0]
    fresh = wl.make(workloads.Case(c0.index, c0.gen_seed, c0.call_seed), refs[0], False)
    before = speed.measure()
    t = time.perf_counter()
    try:
        direct = wl.call(fresh)
    except Exception:  # reported as a failed check below
        traceback.print_exc()
        direct = None
    direct_s = (time.perf_counter() - t) * speed.scale(before, speed.measure())

    failures = [(c.case, failure(wl, c)) for c in calls]
    failures = [(i, why) for i, why in failures if why is not None]
    first_error = next((c.error for c in calls if c.error is not None), None)
    if first_error is not None:
        print(first_error, file=sys.stderr)
    firsts = {}
    repeats_ok = True
    for c in calls:
        if c.outcome is not None:
            first = firsts.setdefault(c.case, c.outcome)
            repeats_ok &= (c.outcome.answer, c.outcome.queries) == (first.answer, first.queries)
    f0 = firsts.get(0)
    direct_ok = (f0 is not None and direct is not None
                 and (direct.answer, direct.queries) == (f0.answer, f0.queries))
    done = [c for c in calls if c.outcome is not None]
    norm = done[0].outcome.norm if done else 1

    times = [c.seconds * c.scale for c in calls]
    judged = [wl.judge(o.answer, refs[i]) for i, o in sorted(firsts.items())]
    wall = {"estimate_s": statistics.median(c.seconds for c in calls),
            "setup_s": import_s + statistics.median(setup)}
    values = {
        "estimate_s": statistics.median(times),
        "queries_per_n2": (statistics.fmean(o.queries / o.norm for o in firsts.values())
                           if firsts else 0.0),
        "setup_s": import_s * import_scale + statistics.median(
            s * k for s, k in zip(setup, setup_scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_err": statistics.fmean(e for e, _ in judged) if judged else 0.0,
        "in_window_frac": statistics.fmean(float(ok) for _, ok in judged) if judged else 0.0,
        "failed_frac": len(failures) / len(calls),
    }
    units = {**END_TO_END, **ACCURACY}
    checks_ok = not failures and repeats_ok and direct_ok
    layer_lines = []
    if tracer is not None:
        layer_values, layer_lines, reconciled = per_layer(tracer, calls, norm, direct_s)
        checks_ok &= reconciled
        values.update(layer_values)
        units = {**units, **PER_LAYER}
        reported = PER_LAYER
    else:
        reported = END_TO_END

    info = machine(numpy.__version__)
    tl = tail(times)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{len(calls)} calls over {len(firsts)} of {len(cases)} instances in {loop_s:.1f} s; "
          f"import {import_s:.3f} s, set-up reps {', '.join(f'{s:.3f}' for s in setup)} s")
    print(f"estimate_s: median of {len(times)} calls"
          + (f", p{tl[0]} {tl[1]:.4f} s" if tl else
             "; no tail percentile (needs 10 samples beyond it)"))
    print(f"seconds at the reference speed; wall clock: estimate_s {wall['estimate_s']:.6f} s, "
          f"setup_s {wall['setup_s']:.6f} s, speed probe median "
          f"{Speed.REFERENCE_S / statistics.median(c.scale for c in calls):.4f} s "
          f"(reference {Speed.REFERENCE_S} s)")
    for name, unit in units.items():
        print(f"  {name:<52} {values[name]:>14.6f} {unit}")
    for line in layer_lines:
        print(line)
    for op, (n_ops, reads) in sorted(call_log_totals(calls).items()):
        print(f"call_log {op}: {n_ops / len(calls):.3f} calls, "
              f"{reads / len(calls) / norm:.6f} n2 per API call")
    for i, why in failures[:5]:
        print(f"failed call on instance {i}: {why}")
    print(f"check: repeated calls bit-identical: {'yes' if repeats_ok else 'NO'}")
    print(f"check: direct public-API call equals the benchmark's: {'yes' if direct_ok else 'NO'}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "correct": checks_ok,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "wall_clock": wall,
        "calls": [{"instance": c.case, "seconds": c.seconds, "speed_scale": c.scale,
                   "answer": c.outcome.answer if c.outcome else None,
                   "queries": c.outcome.queries if c.outcome else None,
                   "error": c.error} for c in calls],
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"trace-{wl.name}.npz")
    print(json.dumps({
        "correct": checks_ok, "attempted": len(calls), "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
