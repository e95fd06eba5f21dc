"""Pinned SHA-256 digests of the CSV files that eight small experiments write.

A change that claims to keep outputs must leave every digest in place; a
change that moves one must say why in CHANGES.md. When a digest moves, the
failure names the file, each column that moved and its largest absolute
difference against the reference copy under ``tests/golden/``, which tells
last-digit drift (a different numpy build) apart from a logic change.

Together the configs cover the testbed in anytime mode with one-dimensional
messages, a paired ``compare`` with grouped-pause timing, a paired ``compare``
with shifted-exponential timing and a matched ``"auto"`` compute window (the
linear-progress completion statistics and speedup bound), a 30-node ring with
per-node ``["uniform", 3, 8]`` round counts, ``"exact"`` rounds in
fixed-batch mode, ``serial`` mode, fixed-batch mode replaying per-node
batch times from ``tests/golden/timing_trace.csv``, and a softmax run at the
paper's MNIST shape (10 classes of 785 weights) on the testbed, whose chunks
hold several one- and two-row nodes and whose holdout spans two row blocks
of the softmax kernel.

After a deliberate output change, ``PYTHONPATH=src python tests/test_golden.py
NAME...`` rewrites the reference copies of the named configs and prints their
entries of the digest table to paste below. With no names it rewrites every
config and prints the whole table.
"""

from __future__ import annotations

import builtins
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from ambsim import cli, engine, objectives, timing

GOLDEN_DIR = Path(__file__).parent / "golden"
TIMING_TRACE = GOLDEN_DIR / "timing_trace.csv"

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
    "shiftexp_compare": ("compare", {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 5, "noise_var": 0.001, "seed": 19},
        "topology": {"kind": "testbed"},
        "consensus": {"rounds": 3},
        "timing": {"kind": "shifted_exponential", "rate": 0.5, "shift": 1.0,
                   "reference_batch": 30},
        "schedule": {"offset": 25.0, "work_scale": 300.0},
        "run": {"tau": 6, "compute_time": "auto", "communication_time": 1.0, "batch": 300,
                "radius": "auto", "seed": 31, "holdout": 200},
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
    "testbed_softmax_wide": ("run", {
        "mode": "amb",
        "objective": {"kind": "logistic_regression", "classes": 10, "dim": 785, "seed": 11},
        "topology": {"kind": "testbed"},
        "consensus": {"rounds": 3},
        "timing": {"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0,
                   "reference_batch": 1},
        "schedule": {"offset": 40.0, "work_scale": 10.0},
        "run": {"tau": 6, "compute_time": 2.5, "communication_time": 1.0, "radius": 10.0,
                "seed": 7, "holdout": 450},
    }),
    "trace_fmb": ("run", {
        "mode": "fmb",
        "objective": {"kind": "linear_regression", "dim": 3, "noise_var": 0.001, "seed": 6},
        "topology": {"kind": "complete", "n": 4},
        "consensus": {"rounds": 3},
        "timing": {"kind": "trace", "path": str(TIMING_TRACE), "reference_batch": 10},
        "schedule": {"offset": 20.0},
        "run": {"tau": 8, "communication_time": 0.5, "batch": 42, "radius": "auto",
                "seed": 15, "holdout": 200},
    }),
}

GOLDEN = {
    "complete_exact_fmb": {
        "fmb_seed13.csv": "a1e7d57d67000df2de19dfae61353e2b529ed3a6ae8446a3e09effb8d7d66a77",
        "fmb_seed13_nodes.csv": "1a8484d19da5e0715f7eb3ce6e09effe748e0eeeffd9ece87ff19fcc8311e7b8",
        "summary.csv": "8bd3e6b2654080aa643f3d217c5a98c91ae93dc3c78f724809b9ef95b4a87e99",
    },
    "paused_compare": {
        "amb_seed1.csv": "eded767834c9db0b78722223d1ee41f3b769e8adb5bee092244de69e0bee84e1",
        "amb_seed1_nodes.csv": "da1b5c83bef52b3a5bf9709d26026562d2ef8250238105d7112b7c75676ed941",
        "amb_seed2.csv": "a021dd3217ec882ff779184563b23f2a12a68fff692fb6b87d17d1489d622efb",
        "amb_seed2_nodes.csv": "dffc87834ddb10663cb92cf5d15be45908ecc140f1c8a4b7e08180a3772e94c2",
        "compare.csv": "202a77b7d68d0425595b6a3ee463647cc2d5e7b0119f84fab7b3e0fcdb4bcce3",
        "fmb_seed1.csv": "b2ff3d34bb0f71145de72f273f6a484c440055d5b0a88b6d168db1c6fb54e419",
        "fmb_seed1_nodes.csv": "c20f472f19db126d5639ae64cdd03deae256fddc68049ae57b435127065acc4b",
        "fmb_seed2.csv": "1c89805331276de1d33b56345f4d1ebe72b2db6c135f94805c6245b393033452",
        "fmb_seed2_nodes.csv": "e9dd09851a4b1e3ca1cecfaf47878c9f3985bad479f85e2b99c25680ace4bc11",
        "summary.csv": "c23164a37dfe6f3f170b065ea6ee87edb9d39e8f24f90d524f7535376bb8aa45",
    },
    "ring30_uniform": {
        "amb_seed9.csv": "90d7159feb70324d62fdf9ce454f7dfb43298ddd4c9f81262d5e06a21c521db5",
        "amb_seed9_nodes.csv": "798914403d65532dffd0d94b80547c15293e51e6eaa7b2a51c474212de3100d8",
        "summary.csv": "ea155dc667afe26f92f87fda5d0958e2f2e2ba1256046312dfdb5011f9916b6c",
    },
    "serial_softmax": {
        "serial_seed5.csv": "f4fc52cf9ace3957d0d1bfffd7544fd5dfc937ecec8f6db39cfea5f4b6f71782",
        "serial_seed5_nodes.csv": "0d9e169bc2ba4a54b61022678b3945b04d21a5d7381349d991f69b063f0cfb74",
        "summary.csv": "19aa173772119563d4710c63017ac59479c2556d53a62bed673ec66ab23dcfa7",
    },
    "shiftexp_compare": {
        "amb_seed31.csv": "994e2a16514a11ce21f5451db8f050a049cc80ed990d80b244c1fdc294481806",
        "amb_seed31_nodes.csv": "7226dd96988cf4ef21f219857c7351f046dfee8a8f18fd2947b4df330a685540",
        "compare.csv": "4df2f0f279ecdad995079e2ffa29f2be0e9d4baca48ed9517942b9a7b752938b",
        "fmb_seed31.csv": "703db9d1bc32af3324ccf250c6352079457918de10898d12294c44e39506cf17",
        "fmb_seed31_nodes.csv": "8af8508ea33d80addb109a270cf5683a73c02d2e1db88c80850e1da5016c80ec",
        "summary.csv": "7b597cde907ef052957531482208d0b8cead9d7bf1d52ea7ba023eef263d0acb",
    },
    "testbed_amb": {
        "amb_seed21.csv": "94d73b9813ed79c281d25a3e98316e717f36577ac9f7f24fad903641e3783755",
        "amb_seed21_nodes.csv": "9517c9453de4f1e7ce9fe59ba4acab874b3e2eadc34da22cafa9bed9efc30b8c",
        "summary.csv": "97fc9e483eef8dca0e9ff6d09be774a4fc2d8662d25654355ec03bfa960601b2",
    },
    "testbed_softmax_wide": {
        "amb_seed7.csv": "670faac92b7874144345239591a457f578dad93651bcef3df71bcd4626b385ef",
        "amb_seed7_nodes.csv": "9aa7362500df11dc3054a636095e12e0c7f376f64ff3bfdea9e1b7d40060122c",
        "summary.csv": "82d8a9fd9d6593bf25e53012e3fba38ac4336807df10c82ddff089148f090394",
    },
    "trace_fmb": {
        "fmb_seed15.csv": "70f25c874536625c68b9db38703faf4aca28c7931765d58a499129c7bceae62a",
        "fmb_seed15_nodes.csv": "05bc28ce20765e066657d8b03bd2f00824b152f132c073e56bcc7364e79aaf97",
        "summary.csv": "6887cac51831b8ed5af97929e7afd390694d1f783eb8a9dc821f09e8cce4047a",
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


def neumaier_sum(iterable, start=0):
    """CPython 3.12's builtin ``sum``, which adds runs of exact floats with Neumaier compensation."""
    total, compensation = start, 0.0
    for item in iterable:
        if type(total) is float and type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
            continue
        if compensation and math.isfinite(compensation):
            total += compensation
        total, compensation = total + item, 0.0
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def check_digests(name, tmp_path):
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    check_digests(name, tmp_path)


# Module constants that size chunks, seed blocks, row blocks and buffers, each
# at its extremes. None of them may move an output bit.
CONSTANTS = [
    *((engine, "CHUNK_VALUES", v) for v in (1, 24, 2**30)),
    *((engine, "BLOCK_ADDRESSES", v) for v in (1, 37)),
    *((objectives, "_SLAB_VALUES", v) for v in (1, 30)),
    *((objectives, "_FEATURES_PER_CALL", v) for v in (1, 7, 10**6)),
]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("owner, constant, value", CONSTANTS,
                         ids=[f"{c}={v}" for _, c, v in CONSTANTS])
def test_digests_hold_at_extreme_module_constants(name, owner, constant, value, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(owner, constant, value)
    check_digests(name, tmp_path)


@pytest.mark.parametrize("slack", [1, 4096])
def test_paused_digests_hold_with_oversized_pause_draws(slack, tmp_path, monkeypatch):
    # Each node-epoch draws its pauses in one call sized by window_pauses. The
    # draws are prefix-stable, so drawing more than the windows read moves no bit.
    window_pauses = timing.GroupedPauseTiming.window_pauses
    monkeypatch.setattr(timing.GroupedPauseTiming, "window_pauses",
                        lambda self, window: window_pauses(self, window) + slack)
    check_digests("paused_compare", tmp_path)


@pytest.mark.parametrize("name", ["paused_compare", "shiftexp_compare"])
def test_compare_digests_hold_under_the_compensated_sum(name, tmp_path, monkeypatch):
    # compare.csv's S_A, S_F and ratio are sums of epoch compute times; they
    # must not move with the builtin ``sum`` that Python 3.12 changed.
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    check_digests(name, tmp_path)


def test_neumaier_sum_compensates_floats_only():
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    assert neumaier_sum(range(5), 10) == 20 and type(neumaier_sum(range(5))) is int


def test_drift_report_names_column_and_difference():
    want = b"epoch,lambda2,mode\n1,0.5,amb\n2,0.25,amb\n"
    got = b"epoch,lambda2,mode\n1,0.5,amb\n2,0.2500001,fmb\n"
    report = describe_drift("s.csv", got, want)
    assert "lambda2 (1 rows, largest absolute difference 1e-07)" in report
    assert "mode (non-numeric, 1 rows)" in report
    assert "epoch" not in report


def _regold(names):
    import tempfile
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {sorted(CONFIGS)}", file=sys.stderr)
        return 2
    print("GOLDEN = {")
    for name in sorted(set(names) or CONFIGS):
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
    sys.exit(_regold(sys.argv[1:]))
