"""Query counts versus instance size for both backends.

The exact backend reads the full matrix once per estimate, so its query
count is exactly n^2.  The sampled backend probes under a hard per-call budget;
its fitted log-log slope stays strictly below 2.  (The big sweep lives in
the acceptance suite; this demo uses a quicker grid.)
"""

import numpy as np

from submatch.generators import uniform_instance
from submatch.mcm import Backend
from submatch.pipeline import ReductionConfig, estimate_min_weight_matching

config = ReductionConfig(0.85, 1.0, 0.1)


def sweep(variant, ns):
    rows = []
    for n in ns:
        inst = uniform_instance(n, seed=n)
        backend = Backend(variant, seed=n, epsilon=0.2)
        estimate_min_weight_matching(inst, config, backend, seed=n, T=8, k=5)
        rows.append(inst.query_count)
        budget_ok = all(r["queries"] <= r["budget"] for r in backend.call_log)
        print(f"  n={n:5d}: {inst.query_count:12,} queries "
              f"(n^2 = {n * n:12,}; budgets respected: {budget_ok})")
    slope = np.polyfit(np.log(ns), np.log(rows), 1)[0]
    print(f"  fitted log-log slope: {slope:.3f}\n")


print("exact backend:")
sweep("exact", [128, 256, 512])

print("sampled backend:")
sweep("sampled", [512, 1024, 2048])
