"""Command-line interface: instance generation, estimator runs and knapsack
search.

Exit codes: 0 on success, 2 when a requested exact-backend contract check
detects a sandwich violation, 1 on errors.  ``SUBMATCH_SEED`` provides the
seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import baseline
from .core import BipartiteInstance, read_instance, write_instance
from .emd import DiscreteDistribution, StreamSource, estimate_emd_detailed
from .generators import GENERATORS, make_instance
from .mcm import Backend
from .pipeline import (
    ReductionConfig, _floor_size, estimate_min_weight_matching, max_matching_under_budget,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONTRACT_VIOLATION = 2


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SUBMATCH_SEED")
    return int(env) if env else 0


def _backend(args) -> Backend:
    return Backend(args.backend, seed=_seed(args), epsilon=args.epsilon)


def _load_instance(args) -> BipartiteInstance:
    if args.instance:
        return read_instance(args.instance)
    if args.generator and args.n is not None:
        return make_instance(args.generator, args.n, _seed(args), **_generator_params(args))
    raise SystemExit("either --instance or --generator with --n is required")


def _generator_params(args) -> dict:
    if args.generator == "euclidean":
        return {"dim": args.dim}
    if args.generator == "one-two-metric":
        return {"p": args.p}
    return {}


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen(args) -> int:
    inst = make_instance(args.generator, args.n, _seed(args), **_generator_params(args))
    write_instance(inst, args.out, binary=args.binary)
    print(f"wrote {args.generator} instance n={args.n} seed={_seed(args)} -> {args.out}")
    return EXIT_OK


def cmd_estimate_mwm(args) -> int:
    inst = _load_instance(args)
    config = ReductionConfig(args.alpha, args.beta, args.gamma)
    backend = _backend(args)
    res = estimate_min_weight_matching(
        inst, config, backend, seed=_seed(args), T=args.T, k=args.k)
    payload = dict(res.report)
    code = EXIT_OK
    if args.exact:
        dense = inst.cost.peek_block(np.arange(inst.n), np.arange(inst.n))
        sweep = baseline.min_weight_matching_sweep(dense)
        lo = float(sweep[_floor_size(args.alpha, inst.n)])
        hi = float(sweep[_floor_size(args.beta, inst.n)])
        payload["exact_alpha_cost"] = lo
        payload["exact_beta_cost"] = hi
        payload["sandwich_ok"] = bool(lo <= res.estimate <= hi)
        if backend.variant == "exact" and not payload["sandwich_ok"]:
            code = EXIT_CONTRACT_VIOLATION
    _write_json(args.out, payload)
    return code


def cmd_estimate_emd(args) -> int:
    metric = read_instance(args.metric).cost.peek_dense()

    def load_source(spec):
        kind, _, path = spec.partition(":")
        if kind == "discrete":
            masses = np.loadtxt(path, dtype=np.float64, ndmin=1)
            return DiscreteDistribution(masses / masses.sum(), metric)
        if kind == "stream":
            return StreamSource(path, metric, support_bound=args.n)
        raise SystemExit(f"bad source spec {spec!r}: use discrete:FILE or stream:FILE")

    mu = load_source(args.mu)
    nu = load_source(args.nu)
    backend = _backend(args)
    value, pair, res = estimate_emd_detailed(
        mu, nu, args.n, args.gamma, backend, seed=_seed(args), T=args.T, k=args.k)
    payload = {
        "emd_estimate": value,
        "support_bound": args.n,
        "gamma": args.gamma,
        "samples_per_source": pair.m,
        "draws_total": mu.draw_count + nu.draw_count,
        "pipeline": res.report,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_knapsack(args) -> int:
    inst = _load_instance(args)
    backend = _backend(args)
    s_hat = max_matching_under_budget(inst, args.budget, args.gamma, backend,
                                      seed=_seed(args), T=args.T, k=args.k)
    payload = {
        "budget": args.budget,
        "gamma": args.gamma,
        "size_estimate": s_hat,
        "n": inst.n,
        "total_queries": inst.query_count,
        "backend": backend.variant,
        "seed": _seed(args),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def _add_common(p, budget=False):
    p.add_argument("--gamma", type=float, default=0.1)
    if budget:
        p.add_argument("--budget", type=float, required=True)
    p.add_argument("--backend", choices=["exact", "sampled"], default="exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="sampled-backend query/time knob")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)


def _add_instance_args(p):
    p.add_argument("--instance", default=None, help="instance file (text or SUBM1)")
    p.add_argument("--generator", choices=list(GENERATORS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submatch",
        description="Sublinear-query min-weight matching and EMD estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a deterministic instance file")
    p.add_argument("--generator", choices=list(GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("estimate-mwm", help="estimate min-weight matching cost")
    _add_instance_args(p)
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--beta", type=float, default=1.0)
    _add_common(p)
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact baseline sandwich (desk scale)")
    p.set_defaults(func=cmd_estimate_mwm)

    p = sub.add_parser("estimate-emd", help="estimate EMD from sample access")
    p.add_argument("--mu", required=True, help="discrete:MASSES_FILE or stream:IDS_FILE")
    p.add_argument("--nu", required=True, help="discrete:MASSES_FILE or stream:IDS_FILE")
    p.add_argument("--metric", required=True, help="metric matrix (instance format)")
    p.add_argument("--n", type=int, required=True, help="support bound")
    _add_common(p)
    p.set_defaults(func=cmd_estimate_emd)

    p = sub.add_parser("knapsack", help="max matching size under a cost budget")
    _add_instance_args(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_knapsack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
