"""The benchmark's workloads: configs made from a workload seed, and output checks.

Each workload is an ambsim experiment config. The workload seed sets both
``run.seed`` and ``objective.seed``: sample streams are keyed by the
objective seed, so a run seed alone would leave every fixed-batch sample
path unchanged. Everything else in a config is fixed, so the work done per
experiment is nearly the same for every seed.

A check reads the files one experiment wrote and returns a list of
problems (empty when the outputs are correct). Checks never depend on the
random streams' exact values, only on properties every seed must satisfy.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

SEED_LIMIT = 2**31


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict
    check: Callable[[dict, dict], list]


def make_config(workload: Workload, seed: int, directory: str) -> dict:
    """The workload's config for ``seed``, writing its outputs under ``directory``."""
    rng = random.Random(f"{workload.name}:{seed}")
    config = copy.deepcopy(workload.base)
    config["run"]["seed"] = rng.randrange(1, SEED_LIMIT)
    config["objective"]["seed"] = rng.randrange(1, SEED_LIMIT)
    config["output"]["directory"] = directory
    return config


def run_seeds(config: dict) -> list:
    return [config["run"]["seed"] + i for i in range(config["output"]["repeats"])]


def processed_samples(files: dict) -> int:
    """Gradient samples processed by one experiment, summed over summary.csv."""
    return sum(int(row["processed_samples"]) for row in _rows(files, "summary.csv"))


def _rows(files: dict, name: str) -> list:
    return list(csv.DictReader(io.StringIO(files[name].decode("utf-8"))))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_summary(config: dict, files: dict, modes: tuple) -> list:
    expected = [(str(s), m) for s in run_seeds(config) for m in modes]
    got = [(row["seed"], row["mode"]) for row in _rows(files, "summary.csv")]
    if got != expected:
        return [f"summary.csv lists runs {got}, expected {expected}"]
    return []


def first_crossing(trace_rows: list, level: float) -> float:
    """First wall time at which a trace's error gap is at or below ``level``."""
    for row in trace_rows:
        if float(row["error_gap"]) <= level:
            return float(row["wall_time"])
    return math.nan


def crossing_ratios(files: dict) -> dict:
    """Per seed: fixed-window time to the fixed-batch final gap over fixed-batch wall time."""
    return {row["seed"]: float(row["amb_time_to_fmb_gap"]) / float(row["fmb_wall"])
            for row in _rows(files, "compare.csv")}


# Anytime epochs last T + T_c while fixed-batch epochs wait for the slowest
# pausing node, so at equal epoch counts the anytime run must finish well
# ahead. Measured ratios are 0.59; 0.7 is the paper's criterion-8 threshold.
WALL_RATIO_LIMIT = 0.7


def check_paused_pair(config: dict, files: dict) -> list:
    problems = _check_summary(config, files, ("amb", "fmb"))
    if problems:
        return problems
    compare = _rows(files, "compare.csv")
    seeds = [str(s) for s in run_seeds(config)]
    if [row["seed"] for row in compare] != seeds:
        return [f"compare.csv seeds {[row['seed'] for row in compare]}, expected {seeds}"]
    for row in compare:
        seed = row["seed"]
        amb = _rows(files, f"amb_seed{seed}.csv")
        fmb = _rows(files, f"fmb_seed{seed}.csv")
        if len(amb) != config["run"]["tau"] or len(fmb) != config["run"]["tau"]:
            problems.append(f"seed {seed}: traces have {len(amb)} and {len(fmb)} epochs")
            continue
        for column, trace in (("amb_wall", amb), ("fmb_wall", fmb)):
            if float(row[column]) != float(trace[-1]["wall_time"]):
                problems.append(f"seed {seed}: compare.csv {column} differs from the trace")
        for column, trace in (("amb_final_gap", amb), ("fmb_final_gap", fmb)):
            if not _same(float(row[column]), float(trace[-1]["error_gap"])):
                problems.append(f"seed {seed}: compare.csv {column} differs from the trace")
        crossing = first_crossing(amb, float(fmb[-1]["error_gap"]))
        if not _same(crossing, float(row["amb_time_to_fmb_gap"])):
            problems.append(f"seed {seed}: amb_time_to_fmb_gap {row['amb_time_to_fmb_gap']}, "
                            f"recomputed {crossing!r}")
        ratio = float(row["amb_wall"]) / float(row["fmb_wall"])
        if not ratio <= WALL_RATIO_LIMIT:
            problems.append(f"seed {seed}: amb_wall / fmb_wall = {ratio:.4f} > {WALL_RATIO_LIMIT}")
    return problems


def check_softmax_holdout(config: dict, files: dict) -> list:
    problems = _check_summary(config, files, ("amb",))
    if problems:
        return problems
    trace = _rows(files, f"amb_seed{config['run']['seed']}.csv")
    if len(trace) != config["run"]["tau"]:
        return [f"trace has {len(trace)} epochs, expected {config['run']['tau']}"]
    first, final = float(trace[0]["error_gap"]), float(trace[-1]["error_gap"])
    if not final < first:
        problems.append(f"final error_gap {final!r} is not below the first epoch's {first!r}")
    return problems


def check_ring150(config: dict, files: dict) -> list:
    problems = _check_summary(config, files, ("amb",))
    if problems:
        return problems
    seed = config["run"]["seed"]
    tau, n = config["run"]["tau"], config["topology"]["n"]
    _, low, high = config["consensus"]["rounds"]
    period = config["run"]["compute_time"] + config["run"]["communication_time"]
    trace = _rows(files, f"amb_seed{seed}.csv")
    nodes = _rows(files, f"amb_seed{seed}_nodes.csv")
    if len(trace) != tau or len(nodes) != n * tau:
        return [f"{len(trace)} trace rows and {len(nodes)} node rows, expected {tau} and {n * tau}"]
    for k, row in enumerate(trace):
        t = k + 1
        epoch_nodes = nodes[k * n:(k + 1) * n]
        if int(row["epoch"]) != t or any(int(r["epoch"]) != t for r in epoch_nodes):
            problems.append(f"epoch {t}: rows out of order")
            break
        if row["wall_time"] != f"{t * period:.17g}":
            problems.append(f"epoch {t}: wall_time {row['wall_time']} != t*(T+T_c) = {t * period!r}")
        if int(row["global_batch"]) != sum(int(r["b_i"]) for r in epoch_nodes):
            problems.append(f"epoch {t}: global_batch differs from the sum of b_i")
        rounds = [int(r["r_i"]) for r in epoch_nodes]
        if not all(low <= r <= high for r in rounds):
            problems.append(f"epoch {t}: r_i outside [{low}, {high}]")
        if problems:
            break
    return problems


_PAUSES = {
    "kind": "grouped_pause",
    "group_means": [5.0, 10.0, 20.0, 35.0, 55.0],
    "group_vars": [1.0, 4.0, 9.0, 16.0, 25.0],
    "assignment": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
    "base_gradient_time": 5.0,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="paused_pair",
        why=("Per-gradient pause draws make seeding and timing most of the work, "
             "and the pair drives timing through both compute_window and fixed_count_time."),
        base={
            "mode": "amb",
            "objective": {"kind": "linear_regression", "dim": 50, "noise_var": 0.001},
            "topology": {"kind": "testbed"},
            "consensus": {"rounds": 5},
            "timing": _PAUSES,
            "schedule": {"offset": 50.0, "work_scale": 150.0},
            "run": {"tau": 50, "compute_time": "auto", "communication_time": 60.0,
                    "batch": 100, "radius": "auto", "holdout": 1500},
            "output": {"repeats": 3, "paired": True},
        },
        check=check_paused_pair,
    ),
    Workload(
        name="softmax_holdout",
        why=("Softmax holdout scoring through objectives.loss_batch takes most of the run, "
             "while seeding does little."),
        base={
            "mode": "amb",
            "objective": {"kind": "logistic_regression", "classes": 10, "dim": 21,
                          "cluster_spread": 2.5},
            "topology": {"kind": "testbed"},
            "consensus": {"rounds": 5},
            "timing": {"kind": "shifted_exponential", "rate": 2.0 / 3.0, "shift": 1.0,
                       "reference_batch": 80},
            "schedule": {"offset": 30.0, "work_scale": 800.0},
            "run": {"tau": 120, "compute_time": 2.5, "communication_time": 1.0,
                    "radius": 15.0, "holdout": 3000},
            "output": {"repeats": 1},
        },
        check=check_softmax_holdout,
    ),
    Workload(
        name="ring150",
        why=("A 150-node ring makes the power-iteration lambda2 and the dense n*n*d "
             "consensus dominate, with per-node round counts and n*tau node rows."),
        base={
            "mode": "amb",
            "objective": {"kind": "linear_regression", "dim": 50, "noise_var": 0.001},
            "topology": {"kind": "ring", "n": 150},
            "consensus": {"rounds": ["uniform", 3, 8]},
            "timing": {"kind": "shifted_exponential", "rate": 2.0 / 3.0, "shift": 1.0,
                       "reference_batch": 20},
            "schedule": {"offset": 50.0, "work_scale": 3000.0},
            "run": {"tau": 40, "compute_time": 2.0, "communication_time": 1.0,
                    "radius": "auto", "holdout": 1000},
            "output": {"repeats": 1},
        },
        check=check_ring150,
    ),
)}
