"""Stochastic compute-time models for workers.

Every model answers the same four calls, which are all the engine and
the CLI know of timing:

- ``window_epoch(epoch, rngs, window, comm_time)`` returns the arrays
  ``(b, a, T)`` of an anytime epoch over nodes ``0..len(rngs)-1``: node
  i's gradients finished inside the compute window, the gradients it could
  finish during the communication time that follows, and the time it
  records.
- ``batch_epoch(epoch, rngs, counts, comm_time)`` returns the arrays
  ``(duration, a, T)`` of a fixed-batch epoch: node i's time to finish
  ``counts[i]`` gradients, then a_i and T_i as above.
- ``mean_window_batch(window, n)`` is the expected global batch of an
  anytime epoch on nodes ``0..n-1``; it sets the ``"auto"`` work scale.
- ``check_nodes(n)`` raises ValueError unless the model times nodes ``0..n-1``.

Two families answer them. Linear-progress models (shifted exponential,
deterministic, trace replay) describe the time to finish a reference
batch; the time for one gradient is that batch time divided by the
reference batch size, and k gradients take k times as long, with k free
to exceed the reference. They draw one batch time per (node, epoch), which
is T_i, and answer for all nodes at once, elementwise over the vector of
T_i. The grouped-pause model instead charges a fixed time per gradient plus
a random pause after each one, drawn per group; T_i is the node's realized
busy time, and each node's windows are walked in turn.

A model's ``stream`` names the seed-tree family it draws from, or is None
for a model that draws nothing. ``rngs[i]`` is then the generator of stream
``(stream, i, epoch)`` on the run seed, which the caller derives (the
engine from a table of seeds, one pass per block of epochs), and None for
a model without a stream. ``batch_time``, ``pauses`` and the other
seed-taking calls address the same stream themselves through
``seeding.substream``. All sampling is therefore a pure function of
(model, node, epoch, seed), repeatable across runs and thread schedules.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

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


def _whole_gradients(spans, per_grad: np.ndarray) -> np.ndarray:
    """Row k: the gradients of ``per_grad`` seconds each that finish within ``spans[k]`` seconds."""
    counts = np.floor(np.divide.outer(spans, per_grad))
    if not counts.max() < 2.0**63:
        raise ValueError(f"{max(spans):g} s fits {counts.max():.3g} gradients of "
                         f"{per_grad.min():g} s; a count must fit in int64")
    return counts.astype(int)


class _LinearProgress:
    """The timing protocol in closed form, from one batch time per (node, epoch).

    Partial gradients in progress at a deadline are discarded, hence the floors.
    ``draw_batch_time(node, epoch, rng)`` gives T_i from the (node, epoch)
    generator; ``batch_time(node, epoch, seed)`` addresses that generator itself.
    ``least_batch_time(n)`` is a lower bound on T_i over nodes ``0..n-1``.
    """

    stream = None

    def batch_time(self, node: int, epoch: int, seed: int) -> float:
        return self.draw_batch_time(node, epoch, None)

    def per_gradient_time(self, batch_time):
        return batch_time / self.reference_batch

    def _batch_times(self, epoch: int, rngs) -> np.ndarray:
        return np.array([self.draw_batch_time(node, epoch, rng) for node, rng in enumerate(rngs)])

    def window_epoch(self, epoch: int, rngs, window: float, comm_time: float):
        batch_times = self._batch_times(epoch, rngs)
        b, a = _whole_gradients((window, comm_time), self.per_gradient_time(batch_times))
        return b, a, batch_times

    def batch_epoch(self, epoch: int, rngs, counts, comm_time: float):
        batch_times = self._batch_times(epoch, rngs)
        per_grad = self.per_gradient_time(batch_times)
        return counts * per_grad, _whole_gradients((comm_time,), per_grad)[0], batch_times

    def mean_window_batch(self, window: float, n: int) -> float:
        per_grad = self.mean_batch_time() / self.reference_batch
        return n * window / per_grad

    def check_nodes(self, n: int):
        """A model without per-node data times any node; a trace overrides this."""


@dataclass(frozen=True)
class ShiftedExponential(_LinearProgress):
    """Batch completion time ``shift + Exp(rate)``.

    Mean is ``shift + 1/rate`` and the variance is ``1/rate**2``. Draws
    are i.i.d. across nodes and epochs.
    """

    rate: float
    shift: float
    reference_batch: int

    stream = seeding.TIMING

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.shift < 0:
            raise ValueError(f"shift must be non-negative, got {self.shift}")
        if self.reference_batch < 1:
            raise ValueError(f"reference batch must be positive, got {self.reference_batch}")

    def batch_time(self, node: int, epoch: int, seed: int) -> float:
        return self.draw_batch_time(node, epoch,
                                    seeding.substream(seed, seeding.TIMING, node, epoch))

    def draw_batch_time(self, node: int, epoch: int, rng) -> float:
        return self.shift + rng.exponential(1.0 / self.rate)

    def per_gradient_time(self, batch_time):
        """``batch_time / reference_batch``, elementwise; a batch time of 0 (shift 0) is rejected."""
        if not np.min(batch_time) > 0:
            raise ValueError(f"batch time must be positive, got {np.min(batch_time)}")
        return batch_time / self.reference_batch

    def mean_batch_time(self) -> float:
        return self.shift + 1.0 / self.rate

    def least_batch_time(self, n: int) -> float:
        return self.shift

    def std_batch_time(self) -> float:
        return 1.0 / self.rate

    def completion_stats(self, counts) -> tuple:
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        mean = float(np.mean(scale) * self.mean_batch_time())
        var = float(np.mean(scale**2) * self.std_batch_time() ** 2
                    + np.var(scale) * self.mean_batch_time() ** 2)
        return mean, math.sqrt(var)


@dataclass(frozen=True)
class DeterministicTiming(_LinearProgress):
    """Every batch takes exactly ``period`` seconds."""

    period: float
    reference_batch: int = 1

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.reference_batch < 1:
            raise ValueError(f"reference batch must be positive, got {self.reference_batch}")

    def draw_batch_time(self, node: int, epoch: int, rng) -> float:
        return self.period

    def mean_batch_time(self) -> float:
        return self.period

    def least_batch_time(self, n: int) -> float:
        return self.period

    def std_batch_time(self) -> float:
        return 0.0

    def completion_stats(self, counts) -> tuple:
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        mean = float(np.mean(scale)) * self.period
        return mean, float(np.std(scale)) * self.period


@dataclass(frozen=True)
class TraceTiming(_LinearProgress):
    """Replay measured batch times from a recorded trace.

    ``table`` maps node index to the sequence of recorded batch times;
    epochs beyond the recorded horizon wrap around.
    """

    table: tuple
    reference_batch: int

    def __post_init__(self):
        if not self.table or not all(len(times) for times in self.table):
            raise ValueError("a timing trace needs at least one batch time per node")
        if not all(0.0 < t < math.inf for times in self.table for t in times):
            raise ValueError("trace batch times must be positive and finite")
        if self.reference_batch < 1:
            raise ValueError(f"reference batch must be positive, got {self.reference_batch}")

    def check_nodes(self, n: int):
        if len(self.table) < n:
            raise ValueError(f"the trace lists {len(self.table)} nodes, but the graph has {n} nodes")

    def draw_batch_time(self, node: int, epoch: int, rng) -> float:
        times = self.table[node]
        return times[(epoch - 1) % len(times)]

    def mean_batch_time(self) -> float:
        return float(np.mean([t for times in self.table for t in times]))

    def least_batch_time(self, n: int) -> float:
        """The least batch time of the first ``n`` trace nodes, the ones that run."""
        return min(min(times) for times in self.table[:n])

    def mean_window_batch(self, window: float, n: int) -> float:
        """Only the first ``n`` trace nodes run; a trace may list more."""
        return _LinearProgress.mean_window_batch(replace(self, table=self.table[:n]), window, n)

    def completion_stats(self, counts) -> tuple:
        """Population mean and std of the per-node time; node i runs ``counts[i]`` gradients.

        Only the first ``len(counts)`` trace nodes run; a trace may list more.
        """
        scale = np.asarray(counts, dtype=float) / self.reference_batch
        table = self.table[: len(scale)]
        per_node_mean = np.array([np.mean(times) for times in table])
        per_node_var = np.array([np.var(times) for times in table])
        mean = float(np.mean(scale * per_node_mean))
        var = float(np.mean(scale**2 * per_node_var) + np.var(scale * per_node_mean))
        return mean, math.sqrt(var)


def load_timing_trace(path, reference_batch: int) -> TraceTiming:
    """Load a ``node,epoch,batch_time_seconds`` CSV into a replayable model.

    Rows may come in any order; each node's epochs must run 1, 2, ..., k.
    """
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node", "epoch", "batch_time_seconds"]:
            raise ValueError(f"{path}: expected header node,epoch,batch_time_seconds, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                node, epoch, value = row
                node, epoch, value = int(node), int(epoch), float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected node,epoch,batch_time_seconds, "
                                 f"got {row}") from None
            if node < 0:
                raise ValueError(f"{path}:{lineno}: node must be non-negative, got {node}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"{path}:{lineno}: batch time must be positive and finite, "
                                 f"got {value}")
            rows.setdefault(node, []).append((epoch, lineno, value))
    if not rows:
        raise ValueError(f"{path}: no timing rows found")
    table = []
    for node in range(max(rows) + 1):
        if node not in rows:
            raise ValueError(f"{path}: no rows for node {node}")
        ordered = sorted(rows[node])
        for expected, (epoch, lineno, _) in enumerate(ordered, start=1):
            if epoch != expected:
                raise ValueError(f"{path}:{lineno}: node {node} has epoch {epoch} where epoch "
                                 f"{expected} belongs; each node's epochs must run 1, 2, ...")
        table.append(tuple(v for _, _, v in ordered))
    return TraceTiming(table=tuple(table), reference_batch=reference_batch)


@dataclass(frozen=True)
class GroupedPauseTiming:
    """Fixed per-gradient compute time plus a grouped random pause after each gradient.

    Node ``i`` belongs to group ``assignment[i]``; after every gradient it
    pauses for ``max(0, N(group_means[j], group_vars[j]))``, and
    ``group_vars`` None gives group j the variance (j+1)^2. The pause after
    gradient k of node i in epoch t is element k of the stream
    ``(PAUSES, i, t)``, whose pauses for one epoch are drawn in one call.
    Inside a fixed compute window the pause is additionally truncated at
    the window end (the node stays idle until the deadline). The base
    gradient time sets the absolute scale, which the pause statistics
    alone do not pin down.
    """

    group_means: tuple
    group_vars: tuple
    assignment: tuple
    base_gradient_time: float

    stream = seeding.PAUSES
    # A window walks one pause per gradient in Python, so a window that fits
    # more than this many gradients is rejected before any pause is drawn.
    MAX_WINDOW_GRADIENTS = 1_000_000

    def __post_init__(self):
        if self.group_vars is None:
            object.__setattr__(self, "group_vars",
                               tuple(float((j + 1) ** 2) for j in range(len(self.group_means))))
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
                raise ValueError(f"group index {j} is not in [0, {len(self.group_means)})")

    @classmethod
    def default_groups(cls, group_means=(5.0, 10.0, 20.0, 35.0, 55.0),
                       nodes_per_group: int = 2, base_gradient_time: float = 5.0,
                       group_vars=None):
        """Model with the bundled five-group structure; variances default as in the class."""
        assignment = tuple(j for j in range(len(group_means)) for _ in range(nodes_per_group))
        return cls(tuple(map(float, group_means)), group_vars and tuple(map(float, group_vars)),
                   assignment, base_gradient_time)

    def window_pauses(self, window: float) -> int:
        """``window // g + 2``, at least the pauses a window reads: one per gradient that fits.

        Under the cap, rounding in 10^6 additions of g stays below 10^-4 of a
        gradient, so at most ``window // g + 1`` gradients fit (ten steps of 0.1
        fit in 1.0, though ``1.0 // 0.1 == 9.0``). A window that is negative,
        not finite, or over ``MAX_WINDOW_GRADIENTS`` gradients raises.
        """
        if not 0.0 <= window < math.inf:
            raise ValueError(f"window must be finite and non-negative, got {window}")
        g = self.base_gradient_time
        if window / g > self.MAX_WINDOW_GRADIENTS:
            raise ValueError(f"window {window:g} fits {window / g:.3g} gradients of "
                             f"base_gradient_time {g:g}; at most "
                             f"{self.MAX_WINDOW_GRADIENTS} are allowed")
        return int(window // g) + 2

    def check_nodes(self, n: int):
        if len(self.assignment) < n:
            raise ValueError(f"the assignment has {len(self.assignment)} entries for {n} nodes")

    def _draw(self, node: int, rng, count: int) -> np.ndarray:
        """The next ``count`` pauses of ``rng``, stream ``(PAUSES, node, epoch)``; < 0 is 0."""
        j = self.assignment[node]
        draws = self.group_means[j] + math.sqrt(self.group_vars[j]) * rng.standard_normal(count)
        return np.where(draws > 0.0, draws, 0.0)

    def pauses(self, node: int, epoch: int, seed: int, count: int) -> np.ndarray:
        """The first ``count`` pauses of ``node`` in ``epoch``; element k follows gradient k.

        All come from the one stream ``(PAUSES, node, epoch)``. Its normal
        draws are prefix-stable, so element k never depends on ``count``.
        """
        return self._draw(node, seeding.substream(seed, seeding.PAUSES, node, epoch), count)

    def pause(self, node: int, epoch: int, grad_index: int, seed: int) -> float:
        """Pause after gradient ``grad_index``: element ``grad_index`` of :meth:`pauses`."""
        return float(self.pauses(node, epoch, seed, grad_index + 1)[grad_index])

    def _walk(self, window: float, pauses: list, index: int):
        """``(count, busy_time, next_index)`` of a window that starts at pause ``index``.

        ``pauses`` holds at least ``window_pauses(window)`` pauses from ``index`` on.
        """
        g = self.base_gradient_time
        elapsed, start = 0.0, index
        while elapsed + g <= window:
            elapsed += g
            elapsed += min(pauses[index], window - elapsed)
            index += 1
        return index - start, elapsed, index

    def _busy(self, count: int, pauses: list) -> float:
        """Time for ``count`` gradients with ``pauses`` between them, summed in order."""
        elapsed = count * self.base_gradient_time
        for pause in pauses:
            elapsed += pause
        return elapsed

    def compute_window(self, node: int, epoch: int, seed: int, window: float,
                       start_index: int = 0):
        """``(count, busy_time, next_index)`` of a window of ``window`` seconds.

        Pauses that would overrun the window are truncated at the deadline. A
        follow-up window in the same epoch continues the stream at ``next_index``.
        """
        size = start_index + self.window_pauses(window)
        return self._walk(window, self.pauses(node, epoch, seed, size).tolist(), start_index)

    def fixed_count_time(self, node: int, epoch: int, seed: int, count: int,
                         start_index: int = 0):
        """Time to finish exactly ``count`` gradients (pauses between them, none after the last)."""
        if count == 0:
            return 0.0, start_index
        end = start_index + count - 1
        return self._busy(count, self.pauses(node, epoch, seed, end)[start_index:].tolist()), end

    def window_epoch(self, epoch: int, rngs, window: float, comm_time: float):
        """``(b, a, T)``: each node's communication window continues its compute window's pauses."""
        size = self.window_pauses(window) + self.window_pauses(comm_time)
        rows = []
        for node, rng in enumerate(rngs):
            pauses = self._draw(node, rng, size).tolist()
            count, busy, nxt = self._walk(window, pauses, 0)
            rows.append((count, self._walk(comm_time, pauses, nxt)[0], busy))
        return tuple(map(np.array, zip(*rows)))

    def batch_epoch(self, epoch: int, rngs, counts, comm_time: float):
        """``(duration, a, T)``; T_i is node i's duration."""
        extra = self.window_pauses(comm_time)
        rows = []
        for node, (rng, count) in enumerate(zip(rngs, counts.tolist())):
            gaps = max(count - 1, 0)
            pauses = self._draw(node, rng, gaps + extra).tolist()
            busy = self._busy(count, pauses[:gaps])
            rows.append((busy, self._walk(comm_time, pauses, gaps)[0], busy))
        return tuple(map(np.array, zip(*rows)))

    def _pause_moments(self, n: int):
        """Rows 0 and 1: the pause mean and variance of each of nodes ``0..n-1``."""
        groups = [_clipped_normal_moments(m, v) for m, v in zip(self.group_means, self.group_vars)]
        return np.array([groups[self.assignment[i]] for i in range(n)]).reshape(n, 2).T

    def mean_window_batch(self, window: float, n: int) -> float:
        """Sum over nodes, in order, of the window divided by the mean time per gradient and pause."""
        return float(np.cumsum(window / (self.base_gradient_time + self._pause_moments(n)[0]))[-1])

    def completion_stats(self, counts) -> tuple:
        """Population mean and std of the per-node time for ``counts`` gradients."""
        counts = np.asarray(counts, dtype=int)
        pause_means, pause_vars = self._pause_moments(len(counts))
        gaps = np.maximum(counts - 1, 0)
        means = counts * self.base_gradient_time + gaps * pause_means
        total_var = float(np.mean(gaps * pause_vars) + np.var(means))
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
