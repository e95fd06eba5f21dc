#!/usr/bin/env python3
"""How much wall time the fixed-batch scheme loses as fleets grow.

The slowest of n workers dictates a fixed-batch epoch, and for
shifted-exponential completion times its expectation grows like the
harmonic number (about ln n). A fixed compute window pays none of that.
This script measures the ratio against the closed-form bound and the
log-approximation across fleet sizes. Each fleet's batch times are the ones
a run on seed 99 draws: node i's time in epoch t comes from stream
(TIMING, i, t), whose seeds a table derives for every epoch in one pass.
"""

from ambsim import ShiftedExponential, seeding, shifted_exp_asymptotic_ratio, speedup_bound

RATE, SHIFT = 2 / 3, 1.0
model = ShiftedExponential(rate=RATE, shift=SHIFT, reference_batch=1)
mean = model.mean_batch_time()
std = model.std_batch_time()
print(f"per-batch completion time: mean {mean:.2f}s, std {std:.2f}s\n")

print(" fleet   measured E[max]/mean   log form   harmonic exact   worst-case bound")
for n, trials in ((5, 20000), (10, 20000), (50, 4000), (100, 2000), (500, 600)):
    table = seeding.StreamTable(99, seeding.TIMING, n, 1, trials)
    acc = 0.0
    for t in range(1, trials + 1):
        acc += model.window_epoch(t, table.generators(range(n), t), 0.0, 0.0)[2].max()
    measured = acc / trials / mean
    log_form = shifted_exp_asymptotic_ratio(n, RATE, SHIFT)
    harmonic = (sum(1.0 / k for k in range(1, n + 1)) / RATE + SHIFT) / mean
    bound = speedup_bound(n, mean, std)
    print(f"  {n:4d}        {measured:7.3f}          {log_form:7.3f}     {harmonic:7.3f}"
          f"          {bound:7.3f}")

print("\nThe log form understates the exact harmonic expectation by about "
      f"{0.5772 / RATE:.2f}s (the Euler constant over the rate), which fades "
      "as the fleet grows; the sqrt(n-1) bound holds for any completion-time "
      "distribution with this mean and variance.")
