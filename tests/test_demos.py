"""Smoke test of the narrative demos: each one runs to completion.

The demos are scripts, not library code, so nothing else notices when an
API change breaks one. Each runs as a subprocess from a temporary working
directory, so the CSV files that demos 02 and 04 write under
``demos/out/`` land there and not in the checkout.

``03_speedup_scaling.py`` is left out: it takes about 26 s on a 2-vCPU
host, more than twice the other five together, and calls only
``ShiftedExponential.batch_time`` and the closed-form speedup functions,
which ``tests/test_timing.py`` covers. The CI workflow runs it as a step of
its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ambsim import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("config", sorted((ROOT / "demos" / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_config_parses_and_builds_each_mode(config):
    spec = cli.parse_config(config)
    for mode in ("amb", "fmb") if spec.output["paired"] else (spec.mode,):
        assert cli.build_run_config(spec, spec.run["seed"], mode).mode == mode


@pytest.mark.parametrize("demo", ["01_mixing_and_rounds.py", "02_error_vs_walltime.py",
                                  "04_paused_stragglers.py", "05_regret_growth.py",
                                  "06_multiclass_softmax.py"])
def test_demo_runs(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
