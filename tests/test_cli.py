import argparse
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from submatch.cli import build_parser, main
from submatch.core import read_instance, write_instance


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("gen", "--generator", "uniform", "--n", 4, "--seed", 9,
                   "--out", a) == 0
    assert run_cli("gen", "--generator", "uniform", "--n", 4, "--seed", 9,
                   "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_euclidean_distances_recomputable(tmp_path):
    out = tmp_path / "e.txt"
    run_cli("gen", "--generator", "euclidean", "--n", 3, "--dim", 2,
            "--seed", 1, "--out", out)
    inst = read_instance(out)
    from submatch.generators import euclidean_instance
    ref = euclidean_instance(3, 1, dim=2)
    p0, p1 = ref.points
    dense = inst.cost.peek_dense()
    for i in range(3):
        for j in range(3):
            assert dense[i, j] == pytest.approx(np.linalg.norm(p0[i] - p1[j]))


def test_gen_one_two_metric_values(tmp_path):
    out = tmp_path / "m.txt"
    run_cli("gen", "--generator", "one-two-metric", "--n", 10, "--p", 0.5,
            "--seed", 2, "--out", out)
    dense = read_instance(out).cost.peek_dense()
    assert set(np.unique(dense)) <= {1.0, 2.0}


def test_gen_binary_variant(tmp_path):
    out = tmp_path / "b.bin"
    run_cli("gen", "--generator", "uniform", "--n", 5, "--seed", 3,
            "--out", out, "--binary")
    assert out.read_bytes()[:5] == b"SUBM1"
    assert read_instance(out).n == 5


def test_estimate_mwm_report(tmp_path):
    inst_path = tmp_path / "i.txt"
    run_cli("gen", "--generator", "uniform", "--n", 48, "--seed", 5,
            "--out", inst_path)
    report_path = tmp_path / "r.json"
    code = run_cli("estimate-mwm", "--instance", inst_path, "--alpha", 0.8,
                   "--beta", 1.0, "--gamma", 0.1, "--seed", 5, "--T", 8,
                   "--k", 5, "--out", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    for key in ("alpha", "beta", "gamma", "estimate", "total_queries",
                "backend", "seed", "stage_timings"):
        assert key in report


def test_estimate_mwm_exact_flag_checks_sandwich(tmp_path):
    inst_path = tmp_path / "i.txt"
    write_instance(np.ones((24, 24)), inst_path)
    report_path = tmp_path / "r.json"
    code = run_cli("estimate-mwm", "--instance", inst_path, "--alpha", 0.75,
                   "--beta", 1.0, "--gamma", 0.1, "--seed", 1, "--T", 8,
                   "--k", 5, "--exact", "--out", report_path)
    report = json.loads(report_path.read_text())
    assert "sandwich_ok" in report
    assert code in (0, 2)
    assert (code == 0) == report["sandwich_ok"]


def test_estimate_mwm_exact_sandwich_takes_the_exact_floor_of_beta_n(tmp_path):
    # 0.7 * 90 is 62.99999999999999 in floats; the sandwich's upper edge is
    # c(M^63), and the degenerate-size estimate is that same cost
    from submatch import baseline
    from submatch.generators import uniform_instance
    out = tmp_path / "r.json"
    code = run_cli("estimate-mwm", "--generator", "uniform", "--n", 90, "--seed", 1,
                   "--alpha", 0.65, "--beta", 0.7, "--gamma", 0.1, "--exact",
                   "--out", out)
    report = json.loads(out.read_text())
    sweep = baseline.min_weight_matching_sweep(uniform_instance(90, 1).cost.peek_dense())
    assert report["exact_alpha_cost"] == float(sweep[58])
    assert report["exact_beta_cost"] == float(sweep[63]) == report["estimate"]
    assert code == 0 and report["sandwich_ok"]


def test_estimate_emd_cli(tmp_path):
    n = 6
    rng = np.random.default_rng(0)
    metric = rng.random((n, n))
    metric_path = tmp_path / "metric.txt"
    write_instance(metric, metric_path)
    masses = rng.dirichlet(np.ones(n))
    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, masses)
    out = tmp_path / "emd.json"
    code = run_cli("estimate-emd", "--mu", f"discrete:{mu_path}",
                   "--nu", f"discrete:{mu_path}", "--metric", metric_path,
                   "--n", n, "--gamma", 0.25, "--seed", 3, "--out", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["samples_per_source"] >= 1
    assert report["draws_total"] == 2 * report["samples_per_source"]
    assert report["emd_estimate"] <= 0.3


def test_knapsack_cli(tmp_path):
    inst_path = tmp_path / "i.txt"
    run_cli("gen", "--generator", "uniform", "--n", 30, "--seed", 7,
            "--out", inst_path)
    out = tmp_path / "k.json"
    code = run_cli("knapsack", "--instance", inst_path, "--budget", 100.0,
                   "--gamma", 0.2, "--seed", 7, "--out", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["size_estimate"] >= (1 - 0.2) * 30  # generous budget


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_knapsack_takes_no_window_flags(flag, capsys):
    # the knapsack sets its own window per grid point; only estimate-mwm
    # takes --alpha and --beta
    with pytest.raises(SystemExit) as exc:
        run_cli("knapsack", "--generator", "uniform", "--n", 30, "--budget", 1.0,
                flag, 0.5)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBMATCH_SEED", "123")
    a = tmp_path / "a.txt"
    run_cli("gen", "--generator", "uniform", "--n", 4, "--out", a)
    b = tmp_path / "b.txt"
    run_cli("gen", "--generator", "uniform", "--n", 4, "--seed", 123, "--out", b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", [
    ["estimate-mwm", "--generator", "uniform"],
    ["knapsack", "--generator", "uniform", "--budget", 1.0],
], ids=["estimate-mwm", "knapsack"])
def test_generator_without_n_exits_with_a_message(command):
    with pytest.raises(SystemExit, match="--generator with --n is required"):
        run_cli(*command)


def test_error_exit_code(tmp_path):
    code = run_cli("estimate-mwm", "--instance", tmp_path / "missing.txt",
                   "--alpha", 0.8, "--beta", 1.0)
    assert code == 1


def test_T_above_16383_exits_1_with_the_message(capsys):
    code = run_cli("estimate-mwm", "--generator", "uniform", "--n", 20, "--seed", 1,
                   "--alpha", 0.85, "--beta", 1.0, "--gamma", 0.1, "--T", 16384)
    assert code == 1
    assert "error: T must be <= 16383" in capsys.readouterr().err


def test_malformed_instance_file_exits_1(tmp_path, capsys):
    inst_path = tmp_path / "i.txt"
    inst_path.write_text("3\n1 2 3\n1 2\n1 2 3\n")
    code = run_cli("estimate-mwm", "--instance", inst_path, "--alpha", 0.8,
                   "--beta", 1.0)
    assert code == 1
    assert "malformed instance file: row 1 has 2 costs" in capsys.readouterr().err


def test_non_numeric_instance_file_exits_1(tmp_path, capsys):
    inst_path = tmp_path / "i.txt"
    inst_path.write_text("2\n1 2\n1 x\n")
    code = run_cli("estimate-mwm", "--instance", inst_path, "--alpha", 0.8,
                   "--beta", 1.0)
    assert code == 1
    assert "malformed instance file: row 1: could not convert" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [1.5, float("nan")])
def test_estimate_emd_rejects_metric_outside_unit_interval(tmp_path, capsys, bad):
    n = 4
    metric = np.full((n, n), 0.5)
    metric[2, 1] = bad
    metric_path = tmp_path / "metric.txt"
    write_instance(metric, metric_path)
    mu_path = tmp_path / "mu.txt"
    np.savetxt(mu_path, np.full(n, 1.0 / n))
    code = run_cli("estimate-emd", "--mu", f"discrete:{mu_path}",
                   "--nu", f"discrete:{mu_path}", "--metric", metric_path,
                   "--n", n, "--gamma", 0.25, "--seed", 3)
    assert code == 1
    assert (f"metric values must lie in [0, 1]; entry (2, 1) is {bad}"
            in capsys.readouterr().err)


def _readme_cli_lines():
    """The ``submatch ...`` lines of README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    text = block.replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("submatch ")]


def test_parser_offers_exactly_the_documented_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"gen", "estimate-mwm", "estimate-emd", "knapsack"}
    documented = {shlex.split(line)[1] for line in _readme_cli_lines()}
    assert documented == set(sub.choices)


def test_readme_cli_examples_parse():
    # docs that execute: a command or flag renamed in the CLI but not in
    # README fails here; nothing is run
    lines = _readme_cli_lines()
    assert lines
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func)
