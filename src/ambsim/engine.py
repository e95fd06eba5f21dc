"""Discrete-event simulation of fixed-time and fixed-batch distributed epochs.

One epoch has three phases. In the compute phase each node works for a
fixed window (anytime mode, "amb") or until a fixed per-node batch is
done (fixed-batch mode, "fmb"), producing its local average gradient. In
the consensus phase nodes exchange batch-weighted dual messages through
repeated multiplication by the mixing matrix; each message carries the
node's weight n * b_i as its last entry, whose consensus estimates the
global batch size used for normalization. In the update phase every node
maps its new dual variable to the primal ball, all rows at once.

The two modes differ only in the compute phase, which the timing model's
``window_epoch`` or ``batch_epoch`` answers for all nodes in one call, and
in when the epoch ends. One body runs the rest over (n, d) primal and dual
arrays whose row i is node i's.

Gradients are computed for real; only the clock is simulated. The gradient
phase scores the nodes with work in chunks of consecutive nodes, at most
``CHUNK_VALUES`` sample values each: every node's samples are drawn into
its slice of the chunk, the model's row-wise loss and gradient pass runs
once per chunk, and each node's gradient mean and potential-work loss sum
reduce its own slice.

A run is a pure function of its config, including the seed: per-node work
may be reordered, grouped or parallelized without changing a single output
bit because every random draw is addressed by (stream, node, epoch), or by
its index in a block drawn from one such address, and every reduction has
a fixed order over one node's rows. The run derives the seeds of its hot
streams (timing or pauses, samples, round counts) for a block of epochs at
a time, in one vectorized pass; each node-epoch's generator is the one
``seeding.substream`` gives its address.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dualavg, metrics, seeding
from .topology import ConsensusMatrix, Graph, build_consensus_matrix

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

# Addresses per stream family in one block of epochs: enough for the seed
# hash to reach its per-address floor, few enough to keep the tables small.
BLOCK_ADDRESSES = 4096

# Sample values (rows times the model's dimension) scored together in the
# gradient phase: enough to spread each row-wise numpy call over many small
# nodes, few enough that a chunk's arrays, 128 KiB each, stay in a core's
# cache (an epoch-wide buffer cost about 5 MB of peak memory on a 150-node
# ring at d = 50).
CHUNK_VALUES = 2**14


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; immutable, and the sole source of randomness.

    ``rounds`` is an int (same round count at every node), the string
    ``"exact"`` (idealized averaging, equivalent to infinitely many
    rounds), or ``("uniform", low, high)`` for per-node counts drawn
    uniformly from [low, high] each epoch: node i's count in epoch t is
    element i of stream ``(ROUNDS, t)``. ``exact_batch_norm`` divides
    consensus output by the true global batch instead of each node's
    scalar-consensus estimate. ``holdout``, a ``(features, labels)`` pair such
    as ``objective.holdout(count)``, scores the error series (None disables it).
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
    holdout: tuple | None = None

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
        if self.holdout is not None:
            if not (type(self.holdout) is tuple and len(self.holdout) == 2):
                raise ValueError("holdout must be None or a (features, labels) pair, such as "
                                 f"objective.holdout(count), got {type(self.holdout).__name__}")
            x, y = map(np.shape, self.holdout)
            width = getattr(self.objective, "feat_dim", self.objective.dim)
            if not (len(x) == 2 and x[0] > 0 and x[1] == width and y == x[:1]):
                raise ValueError(f"holdout must hold rows of {width} features and one label per "
                                 "row, at least one, such as objective.holdout(count), got "
                                 f"features of shape {x} and labels of shape {y}")
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
        object.__setattr__(self, "rounds", round_counts(self.rounds))
        self.timing.check_nodes(self.graph.n)
        if self.matrix is not None and len(self.matrix.matrix) != self.graph.n:
            raise ValueError(f"matrix has {len(self.matrix.matrix)} rows for {self.graph.n} nodes")


def round_counts(rounds):
    """``rounds`` in :class:`RunConfig`'s form (a list becomes the tuple); bools are not counts."""
    uniform = type(rounds) in (list, tuple) and len(rounds) == 3 and rounds[0] == "uniform"
    counts = list(rounds[1:]) if uniform else [] if rounds == "exact" else [rounds]
    if not all(type(c) is int and c >= 1 for c in counts) or counts != sorted(counts):
        raise ValueError("rounds must be an integer >= 1, 'exact', or ['uniform', low, high] "
                         f"with integers 1 <= low <= high, got {rounds!r}")
    return tuple(rounds) if uniform else rounds


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
    node's distance to the error-free dual update. ``loss_sum_potential``
    sums losses over each node's b_i + a_i potential-work samples when the
    objective knows its optimum value, and is NaN otherwise, since only the
    regret series reads it and the run then neither draws nor scores the
    extra-capacity samples.
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
    loss_sum_potential: np.ndarray
    primal_after: np.ndarray


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


def average_consensus(matrix: ConsensusMatrix, values: np.ndarray,
                      rounds: int | np.ndarray) -> np.ndarray:
    """Apply synchronous averaging steps to per-node values; node i stops after ``rounds[i]``.

    ``values`` holds one entry or one row per node, and ``rounds`` is one
    count for every node or one count per node: all nodes step together, and
    node i's result is its row after its own count. Each step gathers each
    row's nonzero columns and adds their products in ascending column order,
    in O(|E| d). Every column is averaged on its own, so a column carried
    beside others, or alone, or as 1-D values, comes out bit for bit the
    same, and the result never depends on BLAS threading. For rows of d > 1
    entries each step also equals ``(p[:, :, None] * values[None]).sum(axis=1)``
    bit for bit, where ``p`` is ``matrix.matrix``. The column means of
    ``values`` are exact invariants of every step (within float error).
    """
    columns, weights = matrix.columns, matrix.weights
    values = np.asarray(values, dtype=float)
    counts = np.broadcast_to(rounds, len(values))
    out = values.reshape(len(values), -1)
    result = out.copy()  # a node with no rounds keeps its own values
    for k in range(1, int(counts.max(initial=0)) + 1):
        out = (weights[:, :, None] * out[columns]).sum(axis=0)
        done = counts == k
        result[done] = out[done]
    return result.reshape(values.shape)


class _Streams:
    """The hot streams of epochs ``first..last``, from seeds derived in one pass per family.

    ``timing(epoch)`` lists, for nodes 0..n-1, the generator of the timing
    model's stream ``(stream, node, epoch)`` on the run seed (None for a
    model without one), ``lanes(nodes, epoch)`` maps k to the list of the
    generators of ``(SAMPLES, node, epoch, k)`` on the objective seed for
    each node in ``nodes``, and ``rounds(epoch)`` is the generator of
    ``(ROUNDS, epoch)``. Each equals ``seeding.substream`` of its address
    bit for bit.
    """

    def __init__(self, config: RunConfig, first: int, last: int):
        n, family = config.graph.n, config.timing.stream
        self.n, self.first = n, first
        self._timing = (None if family is None
                        else seeding.StreamTable(config.seed, family, n, first, last))
        self._samples = seeding.StreamTable(config.objective.seed, seeding.SAMPLES, n,
                                            first, last, lanes=2)
        self._rounds = seeding.seed_words(config.seed, seeding.ROUNDS, np.arange(first, last + 1))

    def timing(self, epoch: int) -> list:
        if self._timing is None:
            return [None] * self.n
        return self._timing.generators(range(self.n), epoch)

    def lanes(self, nodes: list, epoch: int):
        return functools.partial(self._samples.generators, nodes, epoch)

    def rounds(self, epoch: int) -> np.random.Generator:
        return seeding.generator(self._rounds[epoch - self.first])


def _consensus(config: RunConfig, t: int, streams: _Streams, messages: np.ndarray):
    """Each node's averaged row of ``messages``, and the round counts the nodes used.

    Exact averaging gives every node the column means and counts no rounds;
    otherwise node i reads its row after its own count (see ``RunConfig.rounds``).
    """
    n = config.graph.n
    if config.rounds == "exact":
        return np.tile(messages.mean(axis=0), (n, 1)), np.zeros(n, dtype=int)
    if isinstance(config.rounds, int):
        rounds = np.full(n, config.rounds, dtype=int)
    else:
        _, low, high = config.rounds
        rounds = streams.rounds(t).integers(low, high + 1, size=n)
    return average_consensus(config.matrix, messages, rounds), rounds


def init_state(config: RunConfig) -> EngineState:
    shape = (config.graph.n, config.objective.dim)
    return EngineState(primal=np.zeros(shape), dual=np.zeros(shape), wall=0.0)


def _fmb_batches(batch: int, n: int) -> np.ndarray:
    """Split a global batch: the first ``batch % n`` nodes take the extra sample."""
    base = batch // n
    sizes = np.full(n, base, dtype=int)
    sizes[: batch % n] += 1
    return sizes


def _chunks(counts: list, cap: int):
    """The nodes with work, in order, cut into runs of at most ``cap`` rows.

    A node with more rows than the cap forms a run alone.
    """
    chunk, rows = [], 0
    for node, count in enumerate(counts):
        if not count:
            continue
        if chunk and rows + count > cap:
            yield chunk
            chunk, rows = [], 0
        chunk.append(node)
        rows += count
    if chunk:
        yield chunk


def _gradients_and_losses(config: RunConfig, state: EngineState, t: int,
                          batch_sizes: np.ndarray, extra: np.ndarray, streams: _Streams):
    """Draw each node's samples, average gradients, and sum potential-work losses.

    The nodes with work are scored a chunk at a time (see :func:`_chunks`).
    Each node's b_i + a_i samples are drawn into its slice of the chunk, and
    the model's row-wise pass runs once over the chunk, with each node's
    primal row repeated over its rows. Each node's gradient mean and loss
    sum then reduce its own rows alone, so every bit is that of a pass
    over the node's samples on their own. Gradient rows of nodes without a
    batch stay zero.

    Only the regret series reads the losses, and only when the model knows
    its optimum value. Without one, each node draws and scores its b_i
    batch samples alone, sums no losses, and every loss sum is NaN.
    """
    n = config.graph.n
    model = config.objective
    grads = np.zeros_like(state.primal)
    potential = getattr(model, "optimum_value", None) is not None
    loss_c = np.zeros(n) if potential else np.full(n, np.nan)
    counts = (batch_sizes + extra if potential else batch_sizes).tolist()
    batches = batch_sizes.tolist()
    for nodes in _chunks(counts, max(1, CHUNK_VALUES // model.dim)):
        sizes, batch = [counts[i] for i in nodes], [batches[i] for i in nodes]
        x, y = model.draw_rows(sizes, streams.lanes(nodes, t))
        if len(nodes) == 1:
            # One node's rows share its primal row, and only its batch rows need gradients.
            w, wanted = state.primal[nodes[0]], batch[0]
        else:
            w, wanted = np.repeat(state.primal[nodes], sizes, 0), len(x)
        losses, rows = model.loss_and_grad_rows(w, x, y, wanted)
        sums = grads.reshape(n, *rows.shape[1:])
        end = 0
        for i, count, b in zip(nodes, sizes, batch):
            start, end = end, end + count
            if b:
                np.add.reduce(rows[start:start + b], axis=0, out=sums[i])
            if potential:
                loss_c[i] = np.add.reduce(losses[start:end])
        # Free this chunk's arrays before the next chunk allocates its own.
        del x, y, w, losses, rows, sums
    grads /= np.maximum(batch_sizes, 1)[:, None]
    return grads, loss_c


def _epoch(state: EngineState, config: RunConfig, t: int, streams: _Streams, b: np.ndarray,
           a: np.ndarray, times: np.ndarray, compute: float, wall_end: float):
    """The epoch after its compute phase: gradients, consensus, normalization, primal map, record."""
    n = config.graph.n
    grads, loss_c = _gradients_and_losses(config, state, t, b, a, streams)
    global_batch = int(b.sum())
    degenerate = 0
    if global_batch == 0:
        # No gradients anywhere: carry the duals through an unweighted
        # consensus and skip normalization entirely.
        dual, rounds_used = _consensus(config, t, streams, state.dual)
        exact = state.dual.mean(axis=0)
    else:
        summands = state.dual + grads
        # The last column is each node's weight n * b_i: its consensus
        # estimates the global batch.
        weighted = (n * b)[:, None] * np.hstack([summands, np.ones((n, 1))])
        out, rounds_used = _consensus(config, t, streams,
                                      np.where((b > 0)[:, None], weighted, 0.0))
        out_msg, out_scalar = out[:, :-1], out[:, -1]
        # Error-free dual: batch-weighted average of dual-plus-gradient.
        exact = (b[:, None] * summands).sum(axis=0) / global_batch
        if config.exact_batch_norm:
            dual = out_msg / global_batch
        else:
            # A node that heard from no one with work keeps its dual.
            unheard = out_scalar <= 0.0
            degenerate = int(unheard.sum())
            dual = np.where(unheard[:, None], state.dual,
                            out_msg / np.where(unheard, 1.0, out_scalar)[:, None])
    primal = dualavg.primal_update(dual, dualavg.beta(config.schedule, t + 1), config.radius)
    record = EpochRecord(
        epoch=t,
        wall_end=wall_end,
        compute_duration=compute,
        batch_times=times,
        batch_sizes=b,
        extra_capacity=a,
        rounds_used=rounds_used,
        global_batch=global_batch,
        global_potential=int((b + a).sum()),
        consensus_error=float(np.linalg.norm(dual - exact, axis=1).max()),
        empty_batch=global_batch == 0,
        degenerate_nodes=degenerate,
        loss_sum_potential=loss_c,
        primal_after=primal,
    )
    return EngineState(primal=primal, dual=dual, wall=wall_end), record


def run_amb_epoch(state: EngineState, config: RunConfig, t: int, streams: _Streams):
    """One fixed-compute-window epoch; wall clock advances by exactly T + T_c.

    ``streams`` holds the seeds of a block of epochs that contains ``t``.
    """
    b, a, times = config.timing.window_epoch(t, streams.timing(t), config.compute_time,
                                             config.comm_time)
    return _epoch(state, config, t, streams, b, a, times, config.compute_time,
                  t * (config.compute_time + config.comm_time))


def run_fmb_epoch(state: EngineState, config: RunConfig, t: int, streams: _Streams):
    """One fixed-batch epoch; its duration is the slowest node's finishing time.

    ``streams`` is as in :func:`run_amb_epoch`.
    """
    b = _fmb_batches(config.batch, config.graph.n)
    durations, a, times = config.timing.batch_epoch(t, streams.timing(t), b, config.comm_time)
    compute = float(durations.max())
    return _epoch(state, config, t, streams, b, a, times, compute,
                  state.wall + compute + config.comm_time)


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
    block = max(1, BLOCK_ADDRESSES // config.graph.n)
    records = []
    for first in range(1, config.tau + 1, block):
        last = min(first + block - 1, config.tau)
        streams = _Streams(config, first, last)
        for t in range(first, last + 1):
            state, record = step(state, config, t, streams)
            records.append(record)
        # Free this block's tables before the next block's, and before the trace is scored.
        del streams
    return metrics.build_trace(config, records)
