"""Reference answers for a workload's instances, cached per workload and seed.

The exact solvers run in a child process, so their time and memory stay
out of every measured metric.  Answers are kept in ``bench/cache/`` and
reused while the workload's definition and instance seeds are unchanged.

Fill the cache for one seed ahead of a run:

    python3 bench/reference.py --workload exact-uniform --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CACHE = BENCH / "cache"


def _path(name: str, seed: int) -> Path:
    return CACHE / f"{name}-{seed}.json"


def _key(wl, seed: int) -> dict:
    from workloads import case_seeds
    return {"workload": wl.signature, "seed": seed,
            "gen_seeds": [g for g, _ in case_seeds(wl.name, seed, wl.count)]}


def _read(wl, seed: int):
    path = _path(wl.name, seed)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["refs"] if data.get("key") == _key(wl, seed) else None


def load(wl, seed: int) -> list[dict]:
    """Reference answers for every instance, computed first if missing."""
    refs = _read(wl, seed)
    if refs is None:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", wl.name, "--seed", str(seed)], check=True)
        refs = _read(wl, seed)
        if refs is None:
            raise RuntimeError(f"reference cache for {wl.name} seed {seed} was not written")
    return refs


def compute(wl, seed: int) -> list[dict]:
    from workloads import Case, case_seeds
    return [wl.reference(Case(i, g, c))
            for i, (g, c) in enumerate(case_seeds(wl.name, seed, wl.count))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    refs = compute(wl, args.seed)
    CACHE.mkdir(exist_ok=True)
    path = _path(wl.name, args.seed)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"key": _key(wl, args.seed), "refs": refs}, indent=1))
    tmp.replace(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
