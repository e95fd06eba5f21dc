"""Pinned SHA-256 digests of the CSV files that five small experiments write.

A change that claims to keep outputs must leave every digest in place; a
change that moves one must say why in CHANGES.md. When a digest moves, the
failure names the file, each column that moved and its largest absolute
difference against the reference copy under ``tests/golden/``, which tells
last-digit drift (a different numpy build) apart from a logic change.

Together the configs cover the testbed in anytime mode with one-dimensional
messages, a paired ``compare`` with grouped-pause timing, a 30-node ring with
per-node ``["uniform", 3, 8]`` round counts, ``"exact"`` rounds in
fixed-batch mode, and ``serial`` mode.

After a deliberate output change, ``PYTHONPATH=src python tests/test_golden.py``
rewrites the reference copies and prints the digest table to paste below.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from ambsim import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGS = {
    "testbed_amb": ("run", {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 1, "noise_var": 0.001, "seed": 3},
        "topology": {"kind": "testbed"},
        "consensus": {"rounds": 4},
        "timing": {"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0,
                   "reference_batch": 60},
        "schedule": {"offset": 12.0, "work_scale": 600.0},
        "run": {"tau": 8, "compute_time": 2.5, "communication_time": 1.0, "radius": 6.0,
                "seed": 21, "holdout": 200},
    }),
    "paused_compare": ("compare", {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 10, "noise_var": 0.001, "seed": 77},
        "topology": {"kind": "testbed"},
        "consensus": {"rounds": 5},
        "timing": {"kind": "grouped_pause", "group_means": [5.0, 10.0, 20.0, 35.0, 55.0],
                   "group_vars": [1.0, 4.0, 9.0, 16.0, 25.0],
                   "assignment": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "base_gradient_time": 5.0},
        "schedule": {"offset": 50.0, "work_scale": 150.0},
        "run": {"tau": 8, "compute_time": "auto", "communication_time": 60.0, "batch": 100,
                "radius": "auto", "seed": 1, "holdout": 200},
        "output": {"repeats": 2},
    }),
    "ring30_uniform": ("run", {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 12, "noise_var": 0.001, "seed": 5},
        "topology": {"kind": "ring", "n": 30},
        "consensus": {"rounds": ["uniform", 3, 8]},
        "timing": {"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0,
                   "reference_batch": 20},
        "schedule": {"offset": 50.0, "work_scale": 600.0},
        "run": {"tau": 8, "compute_time": 2.0, "communication_time": 1.0, "radius": "auto",
                "seed": 9, "holdout": 200},
    }),
    "complete_exact_fmb": ("run", {
        "mode": "fmb",
        "objective": {"kind": "linear_regression", "dim": 1, "noise_var": 0.01, "seed": 4},
        "topology": {"kind": "complete", "n": 6},
        "consensus": {"scheme": "uniform", "rounds": "exact", "exact_batch_norm": True},
        "timing": {"kind": "deterministic", "period": 2.0, "reference_batch": 10},
        "run": {"tau": 8, "communication_time": 0.5, "batch": 60, "radius": "auto",
                "seed": 13, "holdout": 200},
    }),
    "serial_softmax": ("run", {
        "mode": "serial",
        "objective": {"kind": "logistic_regression", "classes": 3, "dim": 4, "seed": 8},
        "topology": {"kind": "testbed"},
        "timing": {"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0,
                   "reference_batch": 40},
        "schedule": {"offset": 30.0, "work_scale": 400.0},
        "run": {"tau": 8, "compute_time": 2.5, "communication_time": 1.0, "radius": 15.0,
                "seed": 5, "holdout": 200},
    }),
}

GOLDEN = {
    "complete_exact_fmb": {
        "fmb_seed13.csv": "a1e7d57d67000df2de19dfae61353e2b529ed3a6ae8446a3e09effb8d7d66a77",
        "fmb_seed13_nodes.csv": "1a8484d19da5e0715f7eb3ce6e09effe748e0eeeffd9ece87ff19fcc8311e7b8",
        "summary.csv": "8bd3e6b2654080aa643f3d217c5a98c91ae93dc3c78f724809b9ef95b4a87e99",
    },
    "paused_compare": {
        "amb_seed1.csv": "a42d68b172151eb84e85bb3d6535ad7917c6686b39ac799251d8739d6dbadbdb",
        "amb_seed1_nodes.csv": "6a6ddd048ce36e143db9bfbc1a1b7810e9200bb4f3ac17a1e11a1cab112bcf6e",
        "amb_seed2.csv": "d73c8e2b59d7281ab592241aa1122e1cb2f9285510eaadef4c3e6d199727a062",
        "amb_seed2_nodes.csv": "433c91133df21c455dd72d35ca843df5756a210ff58910b53b7fddc1b834aff4",
        "compare.csv": "6921532217824b4fce442fd1df52ff57eb1c8f0d70da317b3ea9192df41eaf18",
        "fmb_seed1.csv": "7b25be6d3f94e823c2e96372f8381cfb837d86544971a80dd6164df5e0d829b3",
        "fmb_seed1_nodes.csv": "0ea56a5c085fef4320b9fd7499eafb1f21ce7f0c547ae60e9496fc442625f3a3",
        "fmb_seed2.csv": "ab4d14496f0ae9dfa7b9ce8dc8ceab20f642aaae585cec24c9b48b4c885bd1c0",
        "fmb_seed2_nodes.csv": "add3d59604e5d28edc9d4deb2ae3b32940480c58a4a40fddf84875fdb6c57b29",
        "summary.csv": "070f02bdc0631487d0109caf909d17c481925ba012f656a3f0aad154eefb14e6",
    },
    "ring30_uniform": {
        "amb_seed9.csv": "ea95471904c2d4754aa9aeee75d09215a6422e26d55dd49236bada842fc16f37",
        "amb_seed9_nodes.csv": "95d3cc0cf65be5aae0b61abea616eeab0ce885e2334fd0700c9c02d7f92adafd",
        "summary.csv": "920a597725b5d46844f09d5253abdfc77216b44bf77cd32d8e4894522fa56b3c",
    },
    "serial_softmax": {
        "serial_seed5.csv": "f4fc52cf9ace3957d0d1bfffd7544fd5dfc937ecec8f6db39cfea5f4b6f71782",
        "serial_seed5_nodes.csv": "0d9e169bc2ba4a54b61022678b3945b04d21a5d7381349d991f69b063f0cfb74",
        "summary.csv": "19aa173772119563d4710c63017ac59479c2556d53a62bed673ec66ab23dcfa7",
    },
    "testbed_amb": {
        "amb_seed21.csv": "51298eed25cb8ebdf47011c5ba8ba65536e06b57543324ded4d63b8729f01f55",
        "amb_seed21_nodes.csv": "9517c9453de4f1e7ce9fe59ba4acab874b3e2eadc34da22cafa9bed9efc30b8c",
        "summary.csv": "73de977fd488eb0ca348f57ac8c029f50de0dae75931093b87d38f08454d53d8",
    },
}


def run_config(name: str, outdir: Path) -> dict:
    """Run one golden config through the CLI; returns {file name: bytes}."""
    command, payload = CONFIGS[name]
    payload = {**payload, "output": {**payload.get("output", {}), "directory": str(outdir)}}
    path = outdir.parent / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, str(path)]) == 0
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def describe_drift(name: str, got: bytes, want: bytes) -> str:
    """Which columns of a CSV moved against its reference, and by how much."""
    got_rows = list(csv.reader(io.StringIO(got.decode("utf-8"))))
    want_rows = list(csv.reader(io.StringIO(want.decode("utf-8"))))
    if got_rows[:1] != want_rows[:1] or len(got_rows) != len(want_rows):
        return (f"{name}: header or row count changed "
                f"({len(got_rows)} rows, reference {len(want_rows)})")
    header = want_rows[0]
    moved = []
    for c, column in enumerate(header):
        pairs = [(g[c], w[c]) for g, w in zip(got_rows[1:], want_rows[1:]) if g[c] != w[c]]
        if not pairs:
            continue
        try:
            worst = max(abs(float(g) - float(w)) for g, w in pairs)
        except ValueError:
            moved.append(f"{column} (non-numeric, {len(pairs)} rows)")
            continue
        moved.append(f"{column} ({len(pairs)} rows, largest absolute difference "
                     f"{worst if math.isnan(worst) else format(worst, '.3g')})")
    return f"{name}: " + ("; ".join(moved) if moved else "bytes moved outside any cell")


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("AMB_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    files = run_config(name, tmp_path / "out")
    pinned = GOLDEN[name]
    assert sorted(files) == sorted(pinned), f"{name}: wrote {sorted(files)}"
    drift = []
    for fname, data in files.items():
        if hashlib.sha256(data).hexdigest() == pinned[fname]:
            continue
        reference = (GOLDEN_DIR / name / fname).read_bytes()
        assert hashlib.sha256(reference).hexdigest() == pinned[fname], \
            f"reference copy of {name}/{fname} does not match its pinned digest"
        drift.append(describe_drift(f"{name}/{fname}", data, reference))
    assert not drift, "\n".join(drift)


def test_drift_report_names_column_and_difference():
    want = b"epoch,lambda2,mode\n1,0.5,amb\n2,0.25,amb\n"
    got = b"epoch,lambda2,mode\n1,0.5,amb\n2,0.2500001,fmb\n"
    report = describe_drift("s.csv", got, want)
    assert "lambda2 (1 rows, largest absolute difference 1e-07)" in report
    assert "mode (non-numeric, 1 rows)" in report
    assert "epoch" not in report


def _regold():
    import tempfile
    print("GOLDEN = {")
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_config(name, Path(tmp) / "out")
        (GOLDEN_DIR / name).mkdir(parents=True, exist_ok=True)
        print(f"    {name!r}: {{")
        for fname, data in files.items():
            (GOLDEN_DIR / name / fname).write_bytes(data)
            print(f"        {fname!r}: {hashlib.sha256(data).hexdigest()!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    os.environ.pop("AMB_SEED", None)
    sys.exit(_regold())
