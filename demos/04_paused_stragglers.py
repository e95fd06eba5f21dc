#!/usr/bin/env python3
"""Grouped random pauses: five straggler tiers, two nodes each.

After every gradient a node pauses for a clipped Gaussian drawn from its
group (means 5, 10, 20, 35, 55 time units, variance j^2 for group j).
Inside a fixed compute window a pause is truncated at the deadline, so
slow groups simply contribute fewer gradients; the fixed-batch scheme
instead waits for the slowest group every epoch.
"""

import math
import os

from ambsim import (GroupedPauseTiming, RunConfig, Schedule, engine,
                    make_linear_regression, matched_compute_time, metrics, run,
                    testbed_graph)

model = make_linear_regression(50, noise_var=1e-3, seed=21)
pauses = GroupedPauseTiming.default_groups(base_gradient_time=5.0)
BATCH = 100
mean_bt, std_bt = pauses.completion_stats(engine._fmb_batches(BATCH, 10))
window = matched_compute_time(BATCH, 10, mean_bt)
print(f"fixed-batch per-node time: mean {mean_bt:.0f}, std {std_bt:.0f} "
      f"(groups differ, so the variance is dominated by tier spread)")
print(f"matched compute window: {window:.1f}")

shared = dict(
    graph=testbed_graph(), objective=model, timing=pauses,
    schedule=Schedule(offset=50.0, work_scale=150.0), comm_time=60.0,
    radius=2 * math.sqrt(50), seed=3, rounds=5,
    holdout=model.holdout(1500))
trace_batch = run(RunConfig(mode="fmb", batch=BATCH, tau=50, **shared))
# Same wall-time budget: fixed-window epochs are shorter, so more of them fit.
budget_epochs = math.ceil(float(trace_batch.wall[-1]) / (window + shared["comm_time"]))
trace_window = run(RunConfig(mode="amb", compute_time=window, tau=budget_epochs, **shared))

first = trace_window.records[0]
print("\nper-node gradients in the first fixed-window epoch (two nodes per tier):")
print(" ", list(map(int, first.batch_sizes)))
print(f"fixed-window epoch length: {trace_window.wall[0]:.1f} "
      f"(constant); fixed-batch first epoch: {trace_batch.wall[0]:.1f} "
      f"(slowest tier decides)")

target = float(trace_batch.error.gap[-1])
crossing = metrics.time_to_reach(trace_window.error, target)
print(f"\nfixed-batch needs {trace_batch.wall[-1]:.0f} time units for its final error "
      f"gap {target:.3e}; the fixed-window run gets there at {crossing:.0f} "
      f"({crossing / trace_batch.wall[-1]:.0%})")

os.makedirs("demos/out", exist_ok=True)
with open("demos/out/paused_stragglers.csv", "w", encoding="utf-8") as fh:
    fh.write("scheme,wall,gap\n")
    for tag, trace in (("window", trace_window), ("batch", trace_batch)):
        for k in range(len(trace.error.wall)):
            fh.write(f"{tag},{trace.error.wall[k]:.6f},{trace.error.gap[k]:.8e}\n")
print("wrote demos/out/paused_stragglers.csv")
