"""Smoke test of the narrative demos: each one runs to completion.

The demos are scripts, not library code, so nothing else notices when an
API change breaks one. Each runs as a subprocess from a temporary working
directory, so the CSV files that demos 02 and 04 write under
``demos/out/`` land there and not in the checkout.
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


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
