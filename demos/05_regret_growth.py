#!/usr/bin/env python3
"""Square-root regret growth and the closed-form bound.

Cumulative excess loss is tallied over every sample a node processed plus
the samples it could have processed while communicating (potential work).
On a quadratic objective the log-log slope of regret against potential
work settles near one half, and the run's own constants plug into the
sample-path bound, which must lie above the measured curve.
"""

import math

import numpy as np

from ambsim import (RunConfig, Schedule, ShiftedExponential, estimate_constants,
                    make_linear_regression, matched_compute_time, metrics, run,
                    testbed_graph)

DIM = 100
model = make_linear_regression(DIM, noise_var=1e-3, seed=42)
radius = 2 * math.sqrt(DIM)
cfg = RunConfig(
    mode="amb", graph=testbed_graph(), objective=model,
    timing=ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=60),
    schedule=Schedule(offset=80.0, work_scale=600.0), comm_time=1.0,
    tau=200, radius=radius, seed=1,
    compute_time=matched_compute_time(600, 10, 2.5), rounds=5)
trace = run(cfg)

m = trace.regret.samples_potential.astype(float)
regret = trace.regret.potential
slope = float(np.polyfit(np.log(m), np.log(regret), 1)[0])
print(f"epochs: {trace.tau}, potential samples: {trace.potential_total}")
print(f"log-log slope of regret vs potential work: {slope:.3f} (square-root growth = 0.5)")

print("\n      samples     regret (potential)")
for k in (0, 9, 49, 99, 199):
    print(f"  {int(m[k]):9d}      {regret[k]:14.1f}")

est = estimate_constants(model, probe_count=64, seed=43, radius=radius)
h_star = 0.5 * float(np.dot(model.w_star, model.w_star))
constants = metrics.BoundConstants(
    grad_smoothness=cfg.schedule.offset, loss_lipschitz=est.loss_lipschitz,
    grad_variance=est.grad_variance, diameter=2 * radius,
    initial_gap=h_star, h_star=h_star, provenance="probe estimates + analytic minimizer")
report = metrics.bound_report(trace, constants)
print()
print("\n".join(report.lines()))
