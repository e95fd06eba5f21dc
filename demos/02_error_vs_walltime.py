#!/usr/bin/env python3
"""Fixed compute window versus fixed batch under shifted-exponential stragglers.

Runs the two schemes on the testbed graph with matched expected work per
epoch, then prints the holdout error both schemes reach against the wall
clock. The fixed-window scheme finishes every epoch in constant time, so
it banks more epochs (and more samples) by any given moment.
"""

import math
import os

import numpy as np

from ambsim import (RunConfig, Schedule, ShiftedExponential, make_linear_regression,
                    matched_compute_time, metrics, run, testbed_graph)

DIM = 100
BATCH = 600
model = make_linear_regression(DIM, noise_var=1e-3, seed=7)
stragglers = ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=BATCH // 10)
window = matched_compute_time(BATCH, 10, stragglers.mean_batch_time())
print(f"matched compute window: {window:.4f}s "
      f"(mean per-node batch time {stragglers.mean_batch_time():.2f}s)")

shared = dict(
    graph=testbed_graph(), objective=model, timing=stragglers,
    schedule=Schedule(offset=80.0, work_scale=float(BATCH)),
    comm_time=1.0, radius=2 * math.sqrt(DIM), seed=11, rounds=5,
    holdout=model.holdout(2000))
TAU = 150
trace_batch = run(RunConfig(mode="fmb", batch=BATCH, tau=TAU, **shared))
# Equal epoch count for the like-for-like compute-time ratio.
trace_window = run(RunConfig(mode="amb", compute_time=window, tau=TAU, **shared))
report = metrics.speedup_measurement(trace_window, trace_batch)

# Same wall-time budget for the error comparison: fixed-window epochs are
# shorter, so the budget buys more of them.
budget_epochs = math.ceil(float(trace_batch.wall[-1]) / (window + shared["comm_time"]))
trace_window = run(RunConfig(mode="amb", compute_time=window, tau=budget_epochs, **shared))

print(f"\nwall budget {trace_batch.wall[-1]:.0f}s buys {TAU} fixed-batch epochs "
      f"or {budget_epochs} fixed-window epochs")
print(f"samples processed:  fixed-window {trace_window.processed_total}, "
      f"fixed-batch {trace_batch.processed_total}")
print(f"compute-time ratio over {TAU} matched epochs: "
      f"{report.ratio:.3f} (bound {report.bound:.3f})")

target = float(trace_batch.error.gap[-1])
crossing = metrics.time_to_reach(trace_window.error, target)
print(f"\nfixed-batch final error gap {target:.3e} reached by the fixed-window "
      f"run at {crossing:.1f}s ({crossing / trace_batch.wall[-1]:.0%} of its wall time)")

os.makedirs("demos/out", exist_ok=True)
with open("demos/out/error_vs_walltime.csv", "w", encoding="utf-8") as fh:
    fh.write("scheme,wall,gap\n")
    for tag, trace in (("window", trace_window), ("batch", trace_batch)):
        for k in range(len(trace.error.wall)):
            fh.write(f"{tag},{trace.error.wall[k]:.6f},{trace.error.gap[k]:.8e}\n")
print("wrote demos/out/error_vs_walltime.csv")
