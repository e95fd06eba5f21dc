#!/usr/bin/env python3
"""Streaming multiclass classification over the testbed network.

A ten-class softmax model (a desk-scale stand-in for the 785-dimensional
pixel task: swap in a labeled CSV via make_logistic_regression's csv_path
to train on real data). The loss starts at ln(10) for the zero iterate
and falls as the nodes average their dual variables.
"""

import math

import numpy as np

from ambsim import (RunConfig, Schedule, ShiftedExponential, make_logistic_regression,
                    run, testbed_graph, worst_node_loss)

CLASSES, FEATURES = 10, 21
model = make_logistic_regression(CLASSES, FEATURES, seed=13, cluster_spread=2.5)
print(f"primal dimension: {model.dim} ({CLASSES} classes x {FEATURES} features incl. bias)")
print(f"loss at the zero iterate: ln({CLASSES}) = {math.log(CLASSES):.4f}")

cfg = RunConfig(
    mode="amb", graph=testbed_graph(), objective=model,
    timing=ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=80),
    schedule=Schedule(offset=30.0, work_scale=800.0), comm_time=1.0,
    tau=120, radius=15.0, seed=5, compute_time=2.5, rounds=5, holdout=model.holdout(3000))
trace = run(cfg)
# Runs score only the averaged iterate; the worst node is scored here, on request.
worst = worst_node_loss(trace.records, model, cfg.holdout)

print("\n   wall time   holdout cross-entropy   worst node")
for k in (0, 5, 20, 60, 120):
    print(f"  {trace.error.wall[k]:9.1f}   {trace.error.objective[k]:18.4f}"
          f"   {worst[k]:10.4f}")

x, y = cfg.holdout
w_final = trace.records[-1].primal_after.mean(axis=0).reshape(CLASSES, FEATURES)
logits = np.stack([(x * w_final[c]).sum(axis=1) for c in range(CLASSES)], axis=1)
accuracy = float((logits.argmax(axis=1) == y).mean())
print(f"\nholdout accuracy of the averaged final iterate: {accuracy:.1%} "
      f"(chance level {1 / CLASSES:.0%})")
