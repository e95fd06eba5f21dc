"""Discrete-event simulation of fixed-time and fixed-batch distributed epochs.

One epoch has three phases. In the compute phase each node works for a
fixed window (anytime mode, "amb") or until a fixed per-node batch is
done (fixed-batch mode, "fmb"), producing its local average gradient. In
the consensus phase nodes exchange batch-weighted dual messages through
repeated multiplication by the mixing matrix; a parallel scalar consensus
estimates the global batch size used for normalization. In the update
phase every node maps its new dual variable to the primal ball.

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
    "NodeState",
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
class NodeState:
    """Per-node optimizer state: primal iterate and accumulated dual."""

    primal: np.ndarray
    dual: dualavg.DualState


@dataclass
class EngineState:
    nodes: list
    wall: float
    epoch: int


@dataclass
class EpochRecord:
    """Everything observed during one epoch.

    ``batch_times`` holds the sampled reference-batch completion time for
    linear-progress timing models and the realized in-epoch busy time for
    the per-gradient pause model. ``extra_capacity`` counts gradients each
    node could have finished during the communication window (recorded
    only, never computed). ``consensus_error`` is the worst node's
    distance to the error-free dual update. ``loss_sum_processed`` sums
    losses over each node's processed samples; ``loss_sum_potential``
    extends the sum over the extra-capacity samples.
    """

    epoch: int
    wall_start: float
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
    dim = config.objective.dim
    nodes = [NodeState(primal=np.zeros(dim), dual=dualavg.initial_dual_state(dim))
             for _ in range(config.graph.n)]
    return EngineState(nodes=nodes, wall=0.0, epoch=1)


def _compute_phase(config: RunConfig, t: int):
    """Per-node gradient capacity for the epoch.

    Returns (batch sizes b, extra capacities a, recorded times). Partial
    gradients in progress at a deadline are discarded, hence the floors.
    """
    n = config.graph.n
    timing = config.timing
    window = config.compute_time
    b = np.zeros(n, dtype=int)
    a = np.zeros(n, dtype=int)
    times = np.zeros(n)
    if timing.per_gradient_model:
        for i in range(n):
            count, busy, nxt = timing.compute_window(i, t, config.seed, window)
            extra, _, _ = timing.compute_window(i, t, config.seed, config.comm_time,
                                                start_index=nxt)
            b[i], a[i], times[i] = count, extra, busy
    else:
        for i in range(n):
            bt = timing.batch_time(i, t, config.seed)
            per_grad = timing.per_gradient_time(bt)
            b[i] = int(math.floor(window / per_grad))
            a[i] = int(math.floor(config.comm_time / per_grad))
            times[i] = bt
    return b, a, times


def _fmb_batches(batch: int, n: int) -> np.ndarray:
    """Split a global batch: the first ``batch % n`` nodes take the extra sample."""
    base = batch // n
    sizes = np.full(n, base, dtype=int)
    sizes[: batch % n] += 1
    return sizes


def _gradients_and_losses(config: RunConfig, state: EngineState, t: int,
                          batch_sizes: np.ndarray, extra: np.ndarray):
    """Draw each node's samples, average gradients, and record loss sums."""
    n = config.graph.n
    model = config.objective
    grads = [None] * n
    loss_b = np.zeros(n)
    loss_c = np.zeros(n)
    for i in range(n):
        want = batch_sizes[i] + (extra[i] if config.extended_losses else 0)
        if want == 0:
            continue
        x, y = model.draw(i, t, int(want))
        w = state.nodes[i].primal
        losses = model.loss_batch(w, x, y)
        loss_b[i] = float(np.sum(losses[: batch_sizes[i]]))
        loss_c[i] = float(np.sum(losses))
        if batch_sizes[i] > 0:
            grads[i] = model.grad_mean(w, x[: batch_sizes[i]], y[: batch_sizes[i]])
    return grads, loss_b, loss_c


def _dual_update(config: RunConfig, state: EngineState, t: int,
                 batch_sizes: np.ndarray, grads):
    """Consensus over weighted dual messages plus the primal map.

    Returns (new nodes, consensus error, rounds used, degenerate count,
    empty-batch flag).
    """
    n = config.graph.n
    dim = config.objective.dim
    global_batch = int(batch_sizes.sum())
    rounds_per_node = _resolve_rounds(config, t)
    empty = global_batch == 0

    duals = np.stack([node.dual.z for node in state.nodes])
    if empty:
        # No gradients anywhere: carry the duals through an unweighted
        # consensus and skip normalization entirely.
        messages = duals.copy()
        scalars = np.ones(n)
    else:
        messages = np.zeros((n, dim))
        for i in range(n):
            if batch_sizes[i] > 0:
                messages[i] = n * batch_sizes[i] * (duals[i] + grads[i])
        scalars = n * batch_sizes.astype(float)

    out_msg, out_scalar = _consensus_phase(config, messages, scalars, rounds_per_node)

    # Error-free dual: batch-weighted average of dual-plus-gradient.
    if empty:
        exact = duals.mean(axis=0)
    else:
        exact = np.zeros(dim)
        for i in range(n):
            if batch_sizes[i] > 0:
                exact = exact + batch_sizes[i] * (duals[i] + grads[i])
        exact = exact / global_batch

    degenerate = 0
    new_nodes = []
    worst = 0.0
    for i in range(n):
        if empty:
            z_next = out_msg[i]
        elif config.exact_batch_norm:
            z_next = out_msg[i] / global_batch
        else:
            share = out_scalar[i]
            if share <= 0.0:
                # The node heard from no one with work; keep its dual.
                degenerate += 1
                z_next = duals[i]
            else:
                z_next = out_msg[i] / share
        dual = dualavg.apply_consensus_result(state.nodes[i].dual, z_next)
        beta_next = dualavg.beta(config.schedule, dual.t)
        primal = dualavg.primal_update(dual.z, beta_next, config.radius)
        new_nodes.append(NodeState(primal=primal, dual=dual))
        worst = max(worst, float(np.linalg.norm(z_next - exact)))
    return new_nodes, worst, rounds_per_node, degenerate, empty


def run_amb_epoch(state: EngineState, config: RunConfig, t: int):
    """One fixed-compute-window epoch; wall clock advances by exactly T + T_c."""
    b, a, times = _compute_phase(config, t)
    grads, loss_b, loss_c = _gradients_and_losses(config, state, t, b, a)
    new_nodes, err, rounds_used, degenerate, empty = _dual_update(config, state, t, b, grads)
    period = config.compute_time + config.comm_time
    record = EpochRecord(
        epoch=t,
        wall_start=(t - 1) * period,
        wall_end=t * period,
        compute_duration=config.compute_time,
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
        primal_after=np.stack([node.primal for node in new_nodes]),
    )
    return EngineState(nodes=new_nodes, wall=record.wall_end, epoch=t + 1), record


def run_fmb_epoch(state: EngineState, config: RunConfig, t: int):
    """One fixed-batch epoch; its duration is the slowest node's finishing time."""
    n = config.graph.n
    timing = config.timing
    b = _fmb_batches(config.batch, n)
    durations = np.zeros(n)
    a = np.zeros(n, dtype=int)
    times = np.zeros(n)
    if timing.per_gradient_model:
        for i in range(n):
            busy, nxt = timing.fixed_count_time(i, t, config.seed, int(b[i]))
            extra, _, _ = timing.compute_window(i, t, config.seed, config.comm_time,
                                                start_index=nxt)
            durations[i], a[i], times[i] = busy, extra, busy
    else:
        for i in range(n):
            bt = timing.batch_time(i, t, config.seed)
            per_grad = timing.per_gradient_time(bt)
            durations[i] = b[i] * per_grad
            a[i] = int(math.floor(config.comm_time / per_grad))
            times[i] = bt
    grads, loss_b, loss_c = _gradients_and_losses(config, state, t, b, a)
    new_nodes, err, rounds_used, degenerate, empty = _dual_update(config, state, t, b, grads)
    compute = float(durations.max())
    record = EpochRecord(
        epoch=t,
        wall_start=state.wall,
        wall_end=state.wall + compute + config.comm_time,
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
        primal_after=np.stack([node.primal for node in new_nodes]),
    )
    return EngineState(nodes=new_nodes, wall=record.wall_end, epoch=t + 1), record


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
