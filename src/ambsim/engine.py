"""Discrete-event simulation of fixed-time and fixed-batch distributed epochs.

One epoch has three phases. In the compute phase each node works for a
fixed window (anytime mode, "amb") or until a fixed per-node batch is
done (fixed-batch mode, "fmb"), producing its local average gradient. In
the consensus phase nodes exchange batch-weighted dual messages through
repeated multiplication by the mixing matrix; a parallel scalar consensus
estimates the global batch size used for normalization. In the update
phase every node maps its new dual variable to the primal ball.

The two modes differ only in the compute phase, which the timing model's
``window_epoch`` or ``batch_epoch`` answers for each node, and in when the
epoch ends. One body runs the rest over (n, d) primal and dual arrays whose
row i is node i's.

Gradients are computed for real; only the clock is simulated. A run is a
pure function of its config, including the seed: per-node work may be
reordered or parallelized without changing a single output bit because
every random draw is addressed by (stream, node, epoch), or by its index in
a block drawn from one such address, and every reduction has a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dualavg, metrics, seeding
from .topology import ConsensusMatrix, Graph, build_consensus_matrix, row_supports

__all__ = [
    "RunConfig",
    "EngineState",
    "EpochRecord",
    "matched_compute_time",
    "average_consensus",
    "init_state",
    "run_amb_epoch",
    "run_fmb_epoch",
    "run",
]

MODES = ("amb", "fmb", "serial")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; immutable, and the sole source of randomness.

    ``rounds`` is an int (same round count at every node), the string
    ``"exact"`` (idealized averaging, equivalent to infinitely many
    rounds), or ``("uniform", low, high)`` for per-node counts drawn
    uniformly from [low, high] each epoch: node i's count in epoch t is
    element i of stream ``(ROUNDS, t)``. ``exact_batch_norm`` divides
    consensus output by the true global batch instead of each node's
    scalar-consensus estimate. ``holdout`` samples are drawn once per run
    for the error-versus-wall-time series (0 disables it).
    """

    mode: str
    graph: Graph
    objective: object
    timing: object
    schedule: dualavg.Schedule
    comm_time: float
    tau: int
    radius: float
    seed: int
    compute_time: float | None = None
    batch: int | None = None
    rounds: object = 5
    scheme: str = "lazy-metropolis"
    matrix: ConsensusMatrix | None = None
    exact_batch_norm: bool = False
    holdout: int = 0
    extended_losses: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.tau < 0:
            raise ValueError(f"epoch count must be non-negative, got {self.tau}")
        if not 0 <= self.comm_time < math.inf:
            raise ValueError(f"communication time must be finite and non-negative, "
                             f"got {self.comm_time}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.compute_time is not None and not math.isfinite(self.compute_time):
            raise ValueError(f"compute time must be finite, got {self.compute_time}")
        if self.mode in ("amb", "serial"):
            if self.compute_time is None or self.compute_time <= 0:
                raise ValueError(f"{self.mode} mode requires a positive compute_time")
        if self.mode == "fmb":
            if self.batch is None or self.batch < 1:
                raise ValueError("fmb mode requires a positive global batch")
        if self.mode == "serial":
            if self.graph.n != 1:
                raise ValueError("serial mode runs on a single-node graph")
            if self.rounds != "exact":
                raise ValueError("serial mode requires rounds='exact'")
        if isinstance(self.rounds, int):
            if self.rounds < 1:
                raise ValueError(f"round count must be at least 1, got {self.rounds}")
        elif isinstance(self.rounds, tuple):
            kind, low, high = self.rounds
            if kind != "uniform" or low < 1 or high < low:
                raise ValueError(f"bad per-node round spec {self.rounds!r}")
        elif self.rounds != "exact":
            raise ValueError(f"bad rounds spec {self.rounds!r}")


@dataclass
class EngineState:
    """State between epochs: row i of the (n, d) ``primal`` and ``dual`` is node i's."""

    primal: np.ndarray
    dual: np.ndarray
    wall: float


@dataclass
class EpochRecord:
    """Everything observed during one epoch.

    ``batch_times``, ``batch_sizes`` and ``extra_capacity`` are each node's
    T_i, b_i and a_i as the timing model's ``window_epoch`` or
    ``batch_epoch`` reports them: T_i is the sampled reference-batch time
    for linear-progress models and the realized busy time for the pause
    model, and a_i counts gradients the node could have finished during
    the communication window (recorded only, never computed).
    ``compute_duration`` is the compute window, or the slowest node's
    finishing time in fixed-batch mode. ``consensus_error`` is the worst
    node's distance to the error-free dual update. ``loss_sum_processed``
    sums losses over each node's processed samples; ``loss_sum_potential``
    extends the sum over the extra-capacity samples.
    """

    epoch: int
    wall_end: float
    compute_duration: float
    batch_times: np.ndarray
    batch_sizes: np.ndarray
    extra_capacity: np.ndarray
    rounds_used: np.ndarray
    global_batch: int
    global_potential: int
    consensus_error: float
    empty_batch: bool
    degenerate_nodes: int
    loss_sum_processed: np.ndarray
    loss_sum_potential: np.ndarray
    losses_cover_potential: bool
    primal_after: np.ndarray

    @property
    def potential_sizes(self) -> np.ndarray:
        return self.batch_sizes + self.extra_capacity


def matched_compute_time(batch: int, n: int, mean_batch_time: float) -> float:
    """Fixed compute window ``(1 + n/batch) * mean_batch_time``.

    With this window the expected anytime global batch is at least
    ``batch``, which makes a fixed-time run comparable to a fixed-batch
    run of size ``batch``.
    """
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if mean_batch_time <= 0:
        raise ValueError(f"mean batch time must be positive, got {mean_batch_time}")
    return (1.0 + n / batch) * mean_batch_time


def average_consensus(matrix, values: np.ndarray, rounds: int) -> np.ndarray:
    """Apply ``rounds`` synchronous averaging steps to per-node rows.

    ``matrix`` is a :class:`ConsensusMatrix` or a dense mixing matrix. Each
    step equals the dense elementwise product bit for bit, so the result
    never depends on BLAS threading, and the column means of ``values`` are
    exact invariants of every step (within float error). Rows of d != 1
    entries gather each row's nonzero columns and add their products in
    ascending column order, in O(|E| d): that is the order in which
    ``(p[:, :, None] * values[None]).sum(axis=1)`` adds the middle axis, so
    skipping its zero terms moves no bit. Scalars and single-entry rows keep
    the O(n^2) dense row reduction, because numpy sums a contiguous last
    axis pairwise and a sequential sum would round differently.
    """
    if isinstance(matrix, ConsensusMatrix):
        p, columns, weights = matrix.matrix, matrix.columns, matrix.weights
    else:
        p = np.asarray(matrix, dtype=float)
        columns, weights = row_supports(p)
    out = np.asarray(values, dtype=float)
    for _ in range(rounds):
        if out.ndim == 2 and out.shape[1] != 1:
            out = (weights[:, :, None] * out[columns]).sum(axis=0)
        else:
            out = (p * out.reshape(1, -1)).sum(axis=1).reshape(out.shape)
    return out


def _resolve_rounds(config: RunConfig, t: int) -> np.ndarray:
    n = config.graph.n
    if config.rounds == "exact":
        return np.zeros(n, dtype=int)
    if isinstance(config.rounds, int):
        return np.full(n, config.rounds, dtype=int)
    _, low, high = config.rounds
    return seeding.substream(config.seed, seeding.ROUNDS, t).integers(low, high + 1, size=n)


def _consensus_phase(config: RunConfig, messages: np.ndarray, scalars: np.ndarray,
                     rounds_per_node: np.ndarray):
    """Run the consensus rounds; each node reads its row after its own count.

    Returns per-node message rows and scalar estimates.
    """
    n = messages.shape[0]
    if config.rounds == "exact":
        avg_msg = messages.mean(axis=0)
        avg_scalar = scalars.mean()
        return np.tile(avg_msg, (n, 1)), np.full(n, avg_scalar)
    out_msg = np.empty_like(messages)
    out_scalar = np.empty(n)
    max_rounds = int(rounds_per_node.max())
    m, s = messages, scalars
    for k in range(1, max_rounds + 1):
        m = average_consensus(config.matrix, m, 1)
        s = average_consensus(config.matrix, s, 1)
        done = rounds_per_node == k
        out_msg[done] = m[done]
        out_scalar[done] = s[done]
    return out_msg, out_scalar


def init_state(config: RunConfig) -> EngineState:
    shape = (config.graph.n, config.objective.dim)
    return EngineState(primal=np.zeros(shape), dual=np.zeros(shape), wall=0.0)


def _compute_phase(config: RunConfig, t: int):
    """Per-node (b_i, a_i, T_i) of an anytime epoch, from the timing model's ``window_epoch``."""
    n = config.graph.n
    b = np.zeros(n, dtype=int)
    a = np.zeros(n, dtype=int)
    times = np.zeros(n)
    for i in range(n):
        b[i], a[i], times[i] = config.timing.window_epoch(i, t, config.seed, config.compute_time,
                                                          config.comm_time)
    return b, a, times


def _fmb_batches(batch: int, n: int) -> np.ndarray:
    """Split a global batch: the first ``batch % n`` nodes take the extra sample."""
    base = batch // n
    sizes = np.full(n, base, dtype=int)
    sizes[: batch % n] += 1
    return sizes


def _gradients_and_losses(config: RunConfig, state: EngineState, t: int,
                          batch_sizes: np.ndarray, extra: np.ndarray):
    """Draw each node's samples, average gradients, and record loss sums.

    Gradient rows of nodes without a batch stay zero.
    """
    n = config.graph.n
    model = config.objective
    grads = np.zeros_like(state.primal)
    loss_b = np.zeros(n)
    loss_c = np.zeros(n)
    for i in range(n):
        want = batch_sizes[i] + (extra[i] if config.extended_losses else 0)
        if want == 0:
            continue
        x, y = model.draw(i, t, int(want))
        w = state.primal[i]
        losses = model.loss_batch(w, x, y)
        loss_b[i] = float(np.sum(losses[: batch_sizes[i]]))
        loss_c[i] = float(np.sum(losses))
        if batch_sizes[i] > 0:
            grads[i] = model.grad_mean(w, x[: batch_sizes[i]], y[: batch_sizes[i]])
    return grads, loss_b, loss_c


def _dual_update(config: RunConfig, state: EngineState, t: int,
                 batch_sizes: np.ndarray, grads: np.ndarray):
    """Consensus over weighted dual messages plus the primal map.

    Returns (primal rows, dual rows, consensus error, rounds used,
    degenerate count, empty-batch flag).
    """
    n = config.graph.n
    duals = state.dual
    global_batch = int(batch_sizes.sum())
    rounds_per_node = _resolve_rounds(config, t)
    degenerate = 0
    if global_batch == 0:
        # No gradients anywhere: carry the duals through an unweighted
        # consensus and skip normalization entirely.
        z_next, _ = _consensus_phase(config, duals, np.ones(n), rounds_per_node)
        exact = duals.mean(axis=0)
    else:
        working = batch_sizes > 0
        summands = duals + grads
        messages = np.where(working[:, None], (n * batch_sizes)[:, None] * summands, 0.0)
        out_msg, out_scalar = _consensus_phase(config, messages, n * batch_sizes.astype(float),
                                               rounds_per_node)
        # Error-free dual: batch-weighted average of dual-plus-gradient,
        # summed row by row in node order.
        exact = np.zeros(duals.shape[1])
        for i in np.flatnonzero(working):
            exact = exact + batch_sizes[i] * summands[i]
        exact = exact / global_batch
        if config.exact_batch_norm:
            z_next = out_msg / global_batch
        else:
            # A node that heard from no one with work keeps its dual.
            unheard = out_scalar <= 0.0
            degenerate = int(unheard.sum())
            z_next = np.where(unheard[:, None], duals,
                              out_msg / np.where(unheard, 1.0, out_scalar)[:, None])
    beta_next = dualavg.beta(config.schedule, t + 1)
    primal = np.stack([dualavg.primal_update(z, beta_next, config.radius) for z in z_next])
    worst = max([0.0] + [float(np.linalg.norm(z_next[i] - exact)) for i in range(n)])
    return primal, z_next, worst, rounds_per_node, degenerate, global_batch == 0


def _epoch(state: EngineState, config: RunConfig, t: int, b: np.ndarray, a: np.ndarray,
           times: np.ndarray, compute: float, wall_end: float):
    """The epoch after its compute phase: gradients, consensus, primal map, record."""
    grads, loss_b, loss_c = _gradients_and_losses(config, state, t, b, a)
    primal, dual, err, rounds_used, degenerate, empty = _dual_update(config, state, t, b, grads)
    record = EpochRecord(
        epoch=t,
        wall_end=wall_end,
        compute_duration=compute,
        batch_times=times,
        batch_sizes=b,
        extra_capacity=a,
        rounds_used=rounds_used,
        global_batch=int(b.sum()),
        global_potential=int((b + a).sum()),
        consensus_error=err,
        empty_batch=empty,
        degenerate_nodes=degenerate,
        loss_sum_processed=loss_b,
        loss_sum_potential=loss_c,
        losses_cover_potential=config.extended_losses,
        primal_after=primal,
    )
    return EngineState(primal=primal, dual=dual, wall=wall_end), record


def run_amb_epoch(state: EngineState, config: RunConfig, t: int):
    """One fixed-compute-window epoch; wall clock advances by exactly T + T_c."""
    b, a, times = _compute_phase(config, t)
    return _epoch(state, config, t, b, a, times, config.compute_time,
                  t * (config.compute_time + config.comm_time))


def run_fmb_epoch(state: EngineState, config: RunConfig, t: int):
    """One fixed-batch epoch; its duration is the slowest node's finishing time."""
    n = config.graph.n
    b = _fmb_batches(config.batch, n)
    durations = np.zeros(n)
    a = np.zeros(n, dtype=int)
    times = np.zeros(n)
    for i in range(n):
        durations[i], a[i], times[i] = config.timing.batch_epoch(i, t, config.seed, int(b[i]),
                                                                 config.comm_time)
    compute = float(durations.max())
    return _epoch(state, config, t, b, a, times, compute, state.wall + compute + config.comm_time)


def run(config: RunConfig):
    """Simulate ``tau`` epochs and return the full trace.

    Primal and dual variables start at zero. The returned trace carries
    every epoch record plus the error and regret series the metrics
    module derives from them.
    """
    if config.matrix is None:
        config = replace(config, matrix=build_consensus_matrix(config.graph, config.scheme))
    state = init_state(config)
    step = run_fmb_epoch if config.mode == "fmb" else run_amb_epoch
    records = []
    for t in range(1, config.tau + 1):
        state, record = step(state, config, t)
        records.append(record)
    return metrics.build_trace(config, records, final_state=state)
