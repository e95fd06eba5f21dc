"""Stochastic compute-time models for workers.

Two families exist. Linear-progress models (shifted exponential,
deterministic, trace replay) describe the time to finish a reference
batch; the time for one gradient is that batch time divided by the
reference batch size, and k gradients take k times as long, with k free
to exceed the reference. The grouped-pause model instead charges a fixed
time per gradient plus a random pause after each one, drawn per group.

All sampling is a pure function of (model, node, epoch, seed), repeatable
across runs and thread schedules.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import seeding

__all__ = [
    "ShiftedExponential",
    "DeterministicTiming",
    "TraceTiming",
    "GroupedPauseTiming",
    "load_timing_trace",
    "speedup_bound",
    "shifted_exp_asymptotic_ratio",
]


def _clipped_normal_moments(mean: float, var: float):
    """Mean and variance of max(0, N(mean, var))."""
    if var == 0.0:
        m = max(0.0, mean)
        return m, 0.0
    sd = math.sqrt(var)
    z = mean / sd
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    first = mean * cdf + sd * pdf
    second = (mean * mean + var) * cdf + mean * sd * pdf
    return first, max(0.0, second - first * first)


@dataclass(frozen=True)
class ShiftedExponential:
    """Batch completion time ``shift + Exp(rate)``.

    Mean is ``shift + 1/rate`` and the variance is ``1/rate**2``. Draws
    are i.i.d. across nodes and epochs.
    """

    rate: float
    shift: float
    reference_batch: int

    per_gradient_model = False

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.shift < 0:
            raise ValueError(f"shift must be non-negative, got {self.shift}")
        if self.reference_batch < 1:
            raise ValueError(f"reference batch must be positive, got {self.reference_batch}")

    def batch_time(self, node: int, epoch: int, seed: int) -> float:
        rng = seeding.substream(seed, seeding.TIMING, node, epoch)
        return self.shift + rng.exponential(1.0 / self.rate)

    def per_gradient_time(self, batch_time: float) -> float:
        if batch_time <= 0:
            raise ValueError(f"batch time must be positive, got {batch_time}")
        return batch_time / self.reference_batch

    def mean_batch_time(self) -> float:
        return self.shift + 1.0 / self.rate

    def std_batch_time(self) -> float:
        return 1.0 / self.rate

    def completion_stats(self, counts) -> tuple:
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        mean = float(np.mean(scale) * self.mean_batch_time())
        var = float(np.mean(scale**2) * self.std_batch_time() ** 2
                    + np.var(scale) * self.mean_batch_time() ** 2)
        return mean, math.sqrt(var)


@dataclass(frozen=True)
class DeterministicTiming:
    """Every batch takes exactly ``period`` seconds."""

    period: float
    reference_batch: int = 1

    per_gradient_model = False

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.reference_batch < 1:
            raise ValueError(f"reference batch must be positive, got {self.reference_batch}")

    def batch_time(self, node: int, epoch: int, seed: int) -> float:
        return self.period

    def per_gradient_time(self, batch_time: float) -> float:
        return batch_time / self.reference_batch

    def mean_batch_time(self) -> float:
        return self.period

    def std_batch_time(self) -> float:
        return 0.0

    def completion_stats(self, counts) -> tuple:
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        mean = float(np.mean(scale)) * self.period
        return mean, float(np.std(scale)) * self.period


@dataclass(frozen=True)
class TraceTiming:
    """Replay measured batch times from a recorded trace.

    ``table`` maps node index to the sequence of recorded batch times;
    epochs beyond the recorded horizon wrap around.
    """

    table: tuple
    reference_batch: int

    per_gradient_model = False

    def batch_time(self, node: int, epoch: int, seed: int) -> float:
        times = self.table[node]
        return times[(epoch - 1) % len(times)]

    def per_gradient_time(self, batch_time: float) -> float:
        return batch_time / self.reference_batch

    def mean_batch_time(self) -> float:
        return float(np.mean([t for times in self.table for t in times]))

    def std_batch_time(self) -> float:
        return float(np.std([t for times in self.table for t in times]))

    def completion_stats(self, counts) -> tuple:
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        per_node_mean = np.array([np.mean(times) for times in self.table])
        per_node_var = np.array([np.var(times) for times in self.table])
        mean = float(np.mean(scale * per_node_mean))
        var = float(np.mean(scale**2 * per_node_var) + np.var(scale * per_node_mean))
        return mean, math.sqrt(var)


def load_timing_trace(path, reference_batch: int) -> TraceTiming:
    """Load a ``node,epoch,batch_time_seconds`` CSV into a replayable model."""
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node", "epoch", "batch_time_seconds"]:
            raise ValueError(f"{path}: expected header node,epoch,batch_time_seconds, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            node, epoch, value = int(row[0]), int(row[1]), float(row[2])
            if value <= 0:
                raise ValueError(f"{path}:{lineno}: batch time must be positive, got {value}")
            rows.setdefault(node, []).append((epoch, value))
    if not rows:
        raise ValueError(f"{path}: no timing rows found")
    n = max(rows) + 1
    table = []
    for node in range(n):
        if node not in rows:
            raise ValueError(f"{path}: no rows for node {node}")
        table.append(tuple(v for _, v in sorted(rows[node])))
    return TraceTiming(table=tuple(table), reference_batch=reference_batch)


@dataclass(frozen=True)
class GroupedPauseTiming:
    """Fixed per-gradient compute time plus a grouped random pause after each gradient.

    Node ``i`` belongs to group ``assignment[i]``; after every gradient it
    pauses for ``max(0, N(group_means[j], group_vars[j]))``. The pause
    after gradient k of node i in epoch t is element k of the stream
    ``(PAUSES, i, t)``, drawn as one block per window. Inside a
    fixed compute window the pause is additionally truncated at the window
    end (the node stays idle until the deadline). The base gradient time
    sets the absolute scale, which the pause statistics alone do not pin
    down.
    """

    group_means: tuple
    group_vars: tuple
    assignment: tuple
    base_gradient_time: float

    per_gradient_model = True
    # Pauses cut most windows far below window // g gradients, so the first
    # block of a long window is capped rather than sized for no pauses.
    FIRST_BLOCK = 4096

    def __post_init__(self):
        if len(self.group_means) != len(self.group_vars):
            raise ValueError("group_means and group_vars must have equal length")
        if not 0.0 < self.base_gradient_time < math.inf:
            raise ValueError("base gradient time must be positive and finite, "
                             f"got {self.base_gradient_time}")
        if not all(math.isfinite(m) for m in self.group_means):
            raise ValueError(f"group means must be finite, got {self.group_means}")
        if not all(0.0 <= v < math.inf for v in self.group_vars):
            raise ValueError(f"group variances must be finite and non-negative, "
                             f"got {self.group_vars}")
        for j in self.assignment:
            if not 0 <= j < len(self.group_means):
                raise ValueError(f"group index {j} out of range")

    @classmethod
    def default_groups(cls, group_means=(5.0, 10.0, 20.0, 35.0, 55.0),
                       nodes_per_group: int = 2, base_gradient_time: float = 5.0,
                       group_vars=None):
        """Model with the bundled five-group structure; variances default to (j+1)^2."""
        if group_vars is None:
            group_vars = tuple(float((j + 1) ** 2) for j in range(len(group_means)))
        assignment = tuple(j for j in range(len(group_means)) for _ in range(nodes_per_group))
        return cls(tuple(float(m) for m in group_means), tuple(float(v) for v in group_vars),
                   assignment, base_gradient_time)

    def pauses(self, node: int, epoch: int, seed: int, count: int) -> np.ndarray:
        """The first ``count`` pauses of ``node`` in ``epoch``; element k follows gradient k.

        All come from the one stream ``(PAUSES, node, epoch)``. Its normal
        draws are prefix-stable, so element k never depends on ``count``.
        Negative draws mean no pause.
        """
        j = self.assignment[node]
        rng = seeding.substream(seed, seeding.PAUSES, node, epoch)
        draws = self.group_means[j] + math.sqrt(self.group_vars[j]) * rng.standard_normal(count)
        return np.where(draws > 0.0, draws, 0.0)

    def pause(self, node: int, epoch: int, grad_index: int, seed: int) -> float:
        """Pause after gradient ``grad_index``: element ``grad_index`` of :meth:`pauses`."""
        return float(self.pauses(node, epoch, seed, grad_index + 1)[grad_index])

    def compute_window(self, node: int, epoch: int, seed: int, window: float,
                       start_index: int = 0):
        """Gradients completed inside a window of ``window`` seconds.

        Pauses that would overrun the window are truncated at the
        deadline. Returns ``(count, busy_time, next_index)`` where
        ``next_index`` continues the pause stream, so a follow-up window
        in the same epoch draws fresh pauses. The pauses come in one block
        sized for ``window // g`` gradients (at most ``FIRST_BLOCK``); when
        more fit, from float rounding or a long pause-free window, a block
        twice as long continues it.
        """
        if not 0.0 <= window < math.inf:
            raise ValueError(f"window must be finite and non-negative, got {window}")
        g = self.base_gradient_time
        first = int(min(window // g, self.FIRST_BLOCK))
        block = self.pauses(node, epoch, seed, start_index + first).tolist()
        elapsed = 0.0
        count = 0
        index = start_index
        while elapsed + g <= window:
            elapsed += g
            count += 1
            if index == len(block):
                block = self.pauses(node, epoch, seed, 2 * index + 2).tolist()
            pause = block[index]
            index += 1
            elapsed += min(pause, window - elapsed)
        return count, elapsed, index

    def fixed_count_time(self, node: int, epoch: int, seed: int, count: int,
                         start_index: int = 0):
        """Time to finish exactly ``count`` gradients (pauses between them, none after the last)."""
        if count == 0:
            return 0.0, start_index
        elapsed = count * self.base_gradient_time
        end = start_index + count - 1
        for pause in self.pauses(node, epoch, seed, end)[start_index:].tolist():
            elapsed += pause
        return elapsed, end

    def mean_pause(self, node: int) -> float:
        j = self.assignment[node]
        return _clipped_normal_moments(self.group_means[j], self.group_vars[j])[0]

    def completion_stats(self, counts) -> tuple:
        """Population mean and std of the per-node time for ``counts`` gradients."""
        counts = np.asarray(counts, dtype=int)
        means = np.empty(len(counts))
        variances = np.empty(len(counts))
        for i, k in enumerate(counts):
            j = self.assignment[i]
            pm, pv = _clipped_normal_moments(self.group_means[j], self.group_vars[j])
            means[i] = k * self.base_gradient_time + max(0, k - 1) * pm
            variances[i] = max(0, k - 1) * pv
        total_var = float(np.mean(variances) + np.var(means))
        return float(np.mean(means)), math.sqrt(total_var)


def speedup_bound(n: int, mu: float, sigma: float) -> float:
    """Worst-case fixed-batch slowdown factor ``1 + (sigma/mu) sqrt(n - 1)``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return 1.0 + (sigma / mu) * math.sqrt(n - 1.0)


def shifted_exp_asymptotic_ratio(n: int, rate: float, shift: float) -> float:
    """Large-fleet slowdown ratio ``(ln(n)/rate + shift) / (1/rate + shift)``.

    This is the expected maximum of n shifted-exponential draws, in the
    log-approximation used for the large-n regime, divided by the mean.
    Increasing in n.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if shift < 0:
        raise ValueError(f"shift must be non-negative, got {shift}")
    return (math.log(n) / rate + shift) / (1.0 / rate + shift)
