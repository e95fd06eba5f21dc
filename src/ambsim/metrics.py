"""Regret and error accounting, bound evaluation, and paired-run comparison.

Pure post-processing over immutable epoch records; reductions use fixed
orders so every derived number is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegretSeries",
    "ErrorSeries",
    "RunTrace",
    "BoundConstants",
    "BoundReport",
    "SpeedupReport",
    "build_trace",
    "empirical_regret",
    "error_vs_walltime",
    "evaluate_regret_bound",
    "expected_regret_bound",
    "speedup_measurement",
    "bound_report",
    "time_to_reach",
]


@dataclass(frozen=True)
class RegretSeries:
    """Cumulative excess loss over the fixed optimum, per epoch.

    ``processed`` counts only samples whose gradients entered the run;
    ``potential`` extends each node's sum over the gradients it could
    have computed during the communication window (the work the protocol
    pays for but a fixed-batch scheme would waste). ``samples_*`` are the
    matching cumulative sample counts.
    """

    processed: np.ndarray
    potential: np.ndarray
    samples_processed: np.ndarray
    samples_potential: np.ndarray
    from_batch_means: bool = False


@dataclass(frozen=True)
class ErrorSeries:
    """Holdout objective along the run, starting from the zero iterate at time 0.

    ``objective`` evaluates the across-node average primal; ``gap``
    subtracts the reference value (the holdout objective at the known
    minimizer when available, else the series minimum); ``node_max`` is
    the worst single node's holdout objective.
    """

    wall: np.ndarray
    objective: np.ndarray
    gap: np.ndarray
    node_max: np.ndarray


@dataclass
class RunTrace:
    """A finished run: per-epoch records plus derived series and totals."""

    config: object
    records: list
    lambda2: float
    wall: np.ndarray
    global_batches: np.ndarray
    global_potentials: np.ndarray
    processed_total: int
    potential_total: int
    regret: RegretSeries | None
    error: ErrorSeries | None
    final_primals: np.ndarray | None

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def tau(self) -> int:
        return len(self.records)

    def compute_time_total(self) -> float:
        return float(sum(r.compute_duration for r in self.records))


def empirical_regret(records, optimum_value: float) -> RegretSeries:
    """Cumulative regret series from recorded per-node loss sums.

    The regret after ``t`` epochs is the sum of recorded per-sample
    losses up to ``t`` minus the number of samples times the optimum
    objective value, in both the processed and the potential-work
    accounting. When a run did not evaluate losses on the extra-capacity
    samples, the potential series falls back to extrapolating each node's
    per-sample batch mean over its potential count, and the result is
    flagged ``from_batch_means``.
    """
    tau = len(records)
    exact = all(getattr(r, "losses_cover_potential", True) for r in records)
    processed = np.zeros(tau)
    potential = np.zeros(tau)
    count_b = np.zeros(tau, dtype=np.int64)
    count_c = np.zeros(tau, dtype=np.int64)
    acc_b = acc_c = 0.0
    nb = nc = 0
    for k, record in enumerate(records):
        acc_b += float(np.sum(record.loss_sum_processed))
        if exact:
            acc_c += float(np.sum(record.loss_sum_potential))
        else:
            sizes = record.batch_sizes
            means = np.divide(record.loss_sum_processed, sizes,
                              out=np.zeros(len(sizes)), where=sizes > 0)
            acc_c += float(np.sum(means * record.potential_sizes))
        nb += int(record.global_batch)
        nc += int(record.global_potential)
        processed[k] = acc_b - nb * optimum_value
        potential[k] = acc_c - nc * optimum_value
        count_b[k] = nb
        count_c[k] = nc
    return RegretSeries(processed=processed, potential=potential,
                        samples_processed=count_b, samples_potential=count_c,
                        from_batch_means=not exact)


def error_vs_walltime(records, objective, holdout, reference=None) -> ErrorSeries:
    """Holdout objective of the averaged iterate at each epoch boundary.

    ``holdout`` is a fixed ``(features, labels)`` batch shared across the
    runs being compared. The series starts at wall time 0 with the zero
    iterate. The result is invariant to the ordering of the holdout
    samples (up to float round-off of the mean).
    """
    x, y = holdout
    if len(x) == 0:
        raise ValueError("holdout must be non-empty")

    def avg_loss(w):
        return float(np.mean(objective.loss_batch(w, x, y)))

    dim = objective.dim
    wall = [0.0]
    values = [avg_loss(np.zeros(dim))]
    node_max = [values[0]]
    for record in records:
        wall.append(record.wall_end)
        mean_primal = record.primal_after.mean(axis=0)
        values.append(avg_loss(mean_primal))
        node_max.append(max(avg_loss(record.primal_after[i])
                            for i in range(record.primal_after.shape[0])))
    values = np.array(values)
    if reference is None:
        reference = float(values.min())
    return ErrorSeries(wall=np.array(wall), objective=values,
                       gap=values - reference, node_max=np.array(node_max))


def time_to_reach(error: ErrorSeries, level: float) -> float:
    """First wall time at which the error gap falls to ``level`` (nan if never)."""
    for wall, gap in zip(error.wall, error.gap):
        if gap <= level:
            return float(wall)
    return float("nan")


@dataclass(frozen=True)
class BoundConstants:
    """Constants feeding the regret bounds, with their provenance.

    ``initial_gap`` is the objective gap of the starting iterate;
    ``h_star`` is half the squared norm of the minimizer (the value of
    the strongly convex regularizer there). ``provenance`` records where
    each number came from (analytic, estimated, user).
    """

    grad_smoothness: float
    loss_lipschitz: float
    grad_variance: float
    diameter: float
    initial_gap: float
    h_star: float
    provenance: str = "user"


def evaluate_regret_bound(constants: BoundConstants, tau: int, m: int,
                          c_max: int, mu: float, eps: float) -> float:
    """Sample-path regret bound for a run with the given summary statistics.

    ``m`` is the total potential work, ``c_max`` the largest per-epoch
    potential batch, ``mu`` the schedule's work scale, and ``eps`` the
    uniform consensus accuracy. Monotone increasing in ``m``.
    """
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    k = constants.grad_smoothness
    beta_tau = k + math.sqrt(tau / mu)
    head = c_max * (constants.initial_gap + beta_tau * constants.h_star)
    mid = 3.0 * k * k * eps * eps * c_max * mu ** 1.5 / 4.0
    tail = (2.0 * k * constants.diameter * eps
            + constants.grad_variance / 2.0
            + 2.0 * constants.loss_lipschitz * eps) * c_max * math.sqrt(m)
    return head + mid + tail


def expected_regret_bound(constants: BoundConstants, tau: int, mean_potential: float,
                          mean_inverse_batch: float, eps: float) -> float:
    """Regret bound averaged over the work distribution (diagnostic).

    ``mean_potential`` is the expected potential batch per epoch and
    ``mean_inverse_batch`` the expectation of one over the processed
    batch.
    """
    c_bar = mean_potential
    m_bar = c_bar * tau
    k = constants.grad_smoothness
    beta_tau = k + math.sqrt(tau / c_bar)
    head = c_bar * (constants.initial_gap + beta_tau * constants.h_star)
    mid = 3.0 * k * k * eps * eps * c_bar ** 2.5 / 4.0
    tail = (2.0 * k * constants.diameter * eps * c_bar
            + c_bar * constants.grad_variance * mean_inverse_batch / 2.0
            + 2.0 * constants.loss_lipschitz * eps * c_bar) * math.sqrt(m_bar)
    return head + mid + tail


@dataclass(frozen=True)
class SpeedupReport:
    """Total compute-time comparison of a paired fixed-time / fixed-batch run."""

    compute_time_fixed_window: float
    compute_time_fixed_batch: float
    ratio: float
    bound: float


def speedup_measurement(trace_amb: RunTrace, trace_fmb: RunTrace) -> SpeedupReport:
    """Compare total compute time (communication excluded) of a matched pair.

    The bound uses the fixed-batch per-node completion-time mean and
    standard deviation implied by the fixed-batch run's timing model.
    """
    if trace_amb.tau != trace_fmb.tau:
        raise ValueError(
            f"paired traces must have equal epoch counts, got {trace_amb.tau} and {trace_fmb.tau}"
        )
    s_a = trace_amb.compute_time_total()
    s_f = trace_fmb.compute_time_total()
    n = trace_fmb.config.graph.n
    counts = trace_fmb.records[0].batch_sizes if trace_fmb.records else None
    if counts is None:
        raise ValueError("fixed-batch trace has no epochs")
    mu, sigma = trace_fmb.config.timing.completion_stats(counts)
    return SpeedupReport(
        compute_time_fixed_window=s_a,
        compute_time_fixed_batch=s_f,
        ratio=s_f / s_a,
        bound=1.0 + (sigma / mu) * math.sqrt(n - 1.0),
    )


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds next to their empirical counterparts."""

    constants: BoundConstants
    eps: float
    tau: int
    m: int
    c_max: int
    mu: float
    regret_bound: float
    regret_empirical: float | None
    expected_regret_bound_value: float
    holds: bool | None

    def lines(self):
        out = [
            f"epochs tau          : {self.tau}",
            f"potential samples m : {self.m}",
            f"max epoch work c_max: {self.c_max}",
            f"work scale mu       : {self.mu:.6g}",
            f"consensus eps       : {self.eps:.6g}",
            f"constants           : {self.constants.provenance}",
            f"  grad smoothness   : {self.constants.grad_smoothness:.6g}",
            f"  loss Lipschitz    : {self.constants.loss_lipschitz:.6g}",
            f"  grad variance     : {self.constants.grad_variance:.6g}",
            f"  diameter          : {self.constants.diameter:.6g}",
            f"  initial gap       : {self.constants.initial_gap:.6g}",
            f"  h at optimum      : {self.constants.h_star:.6g}",
            f"sample-path bound   : {self.regret_bound:.6g}",
            f"expected-work bound : {self.expected_regret_bound_value:.6g}",
        ]
        if self.regret_empirical is not None:
            out.append(f"empirical regret    : {self.regret_empirical:.6g}")
            out.append(f"bound holds         : {self.holds}")
        else:
            out.append("empirical regret    : unavailable (optimum value unknown)")
        return out


def bound_report(trace: RunTrace, constants: BoundConstants) -> BoundReport:
    """Evaluate the regret bounds with the run's own statistics.

    The consensus accuracy is the worst per-epoch consensus error
    observed during the run; the work statistics come straight from the
    trace.
    """
    if trace.tau < 1:
        raise ValueError("cannot report bounds for an empty trace")
    eps = max(float(r.consensus_error) for r in trace.records)
    c_max = int(trace.global_potentials.max())
    m = int(trace.potential_total)
    mu = trace.config.schedule.work_scale
    value = evaluate_regret_bound(constants, trace.tau, m, c_max, mu, eps)
    mean_potential = float(trace.global_potentials.mean())
    batches = trace.global_batches[trace.global_batches > 0]
    mean_inv = float(np.mean(1.0 / batches)) if batches.size else float("inf")
    expected = expected_regret_bound(constants, trace.tau, mean_potential, mean_inv, eps)
    empirical = None
    holds = None
    if trace.regret is not None:
        empirical = float(trace.regret.potential[-1])
        holds = empirical <= value
    return BoundReport(constants=constants, eps=eps, tau=trace.tau, m=m, c_max=c_max,
                       mu=mu, regret_bound=value, regret_empirical=empirical,
                       expected_regret_bound_value=expected, holds=holds)


def build_trace(config, records, final_state=None) -> RunTrace:
    """Assemble the run trace: totals, regret series, and the error series."""
    wall = np.array([r.wall_end for r in records])
    batches = np.array([r.global_batch for r in records], dtype=np.int64)
    potentials = np.array([r.global_potential for r in records], dtype=np.int64)
    regret = None
    optimum = getattr(config.objective, "optimum_value", None)
    if optimum is not None and records:
        regret = empirical_regret(records, optimum)
    error = None
    if config.holdout > 0 and records:
        holdout = config.objective.holdout(config.holdout)
        reference = None
        w_star = getattr(config.objective, "w_star", None)
        if w_star is not None:
            x, y = holdout
            reference = float(np.mean(config.objective.loss_batch(w_star, x, y)))
        error = error_vs_walltime(records, config.objective, holdout, reference=reference)
    lambda2 = config.matrix.lambda2 if config.matrix is not None else float("nan")
    return RunTrace(
        config=config,
        records=records,
        lambda2=lambda2,
        wall=wall,
        global_batches=batches,
        global_potentials=potentials,
        processed_total=int(batches.sum()),
        potential_total=int(potentials.sum()),
        regret=regret,
        error=error,
        final_primals=final_state.primal if final_state is not None else None,
    )
