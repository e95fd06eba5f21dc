"""Smoke test of the narrative demos and the README's code: each runs to completion.

The demos and the README's fenced ``python`` blocks are scripts, not
library code, so nothing else notices when an API change breaks one. Each
runs as a subprocess from a temporary working directory, so the CSV files
that demos 02 and 04 write under ``demos/out/`` land there and not in the
checkout.
"""

from __future__ import annotations

import os
import re
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


def run_script(args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    run_script([str(ROOT / "demos" / demo)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        run_script(["-c", block], tmp_path)
