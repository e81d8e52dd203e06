"""Every script in ``demos/`` runs to completion against the current API.

A demo is documentation that executes; running each one here makes a
deletion or rename it depends on fail the suite instead of the reader.
``query_scaling.py`` sweeps n up to 2048 on both backends and takes about
ten seconds, so it runs with the acceptance suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"query_scaling.py"}


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=[pytest.mark.acceptance] if p.name in SLOW else [])
    for p in sorted(DEMOS.glob("*.py"))
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()  # each demo narrates what it shows
