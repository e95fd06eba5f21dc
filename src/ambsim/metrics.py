"""Regret and error accounting, bound evaluation, and paired-run comparison.

Pure post-processing over immutable epoch records; reductions use fixed
orders so every derived number is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .timing import speedup_bound

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
    "worst_node_loss",
]


@dataclass(frozen=True)
class RegretSeries:
    """Cumulative excess loss over the fixed optimum, per epoch, charged on potential work.

    ``potential`` sums each node's losses over its b_i processed samples and
    the a_i it could have computed during the communication window (the work
    the protocol pays for but a fixed-batch scheme would waste).
    ``samples_potential`` is the matching cumulative sample count.
    """

    potential: np.ndarray
    samples_potential: np.ndarray


@dataclass(frozen=True)
class ErrorSeries:
    """Holdout objective along the run, starting from the zero iterate at time 0.

    ``objective`` evaluates the across-node average primal; ``gap``
    subtracts the reference value (the holdout objective at the known
    minimizer when available, else the series minimum).
    """

    wall: np.ndarray
    objective: np.ndarray
    gap: np.ndarray


@dataclass
class RunTrace:
    """A finished run: per-epoch records plus derived series and totals."""

    config: object
    records: list
    wall: np.ndarray
    global_batches: np.ndarray
    global_potentials: np.ndarray
    processed_total: int
    potential_total: int
    regret: RegretSeries | None
    error: ErrorSeries | None

    @property
    def tau(self) -> int:
        return len(self.records)


def empirical_regret(records, optimum_value: float) -> RegretSeries:
    """Cumulative potential-work regret series from recorded per-node loss sums.

    The regret after ``t`` epochs is the sum of recorded per-sample losses
    over the potential work up to ``t`` minus the number of those samples
    times the optimum objective value. A run whose objective knows its
    optimum value records these sums; a run without one records NaN, and
    :func:`build_trace` builds no regret series for it.
    """
    loss = np.cumsum([np.sum(r.loss_sum_potential) for r in records])
    count = np.cumsum([r.global_potential for r in records], dtype=np.int64)
    return RegretSeries(potential=loss - count * optimum_value, samples_potential=count)


def _holdout_loss(objective, holdout):
    """Mean holdout loss as a function of one primal vector."""
    x, y = holdout
    if len(x) == 0:
        raise ValueError("holdout must be non-empty")
    return lambda w: float(np.mean(objective.loss_batch(w, x, y)))


def error_vs_walltime(records, objective, holdout, reference=None) -> ErrorSeries:
    """Holdout objective of the averaged iterate at each epoch boundary.

    ``holdout`` is a fixed ``(features, labels)`` batch shared across the
    runs being compared. The series starts at wall time 0 with the zero
    iterate. The result is invariant to the ordering of the holdout
    samples (up to float round-off of the mean).
    """
    avg_loss = _holdout_loss(objective, holdout)
    values = np.array([avg_loss(np.zeros(objective.dim))]
                      + [avg_loss(record.primal_after.mean(axis=0)) for record in records])
    if reference is None:
        reference = float(values.min())
    return ErrorSeries(wall=np.array([0.0] + [record.wall_end for record in records]),
                       objective=values, gap=values - reference)


def worst_node_loss(records, objective, holdout) -> np.ndarray:
    """The worst single node's holdout objective at each epoch boundary.

    Index 0 is the zero iterate, as in :func:`error_vs_walltime`. Scoring
    every node costs n holdout passes per epoch, so runs leave this out;
    call it on a finished trace's records.
    """
    avg_loss = _holdout_loss(objective, holdout)
    return np.array([avg_loss(np.zeros(objective.dim))]
                    + [max(avg_loss(w) for w in record.primal_after) for record in records])


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
    """The sample-path bound at the mean work (diagnostic).

    ``mean_potential``, the expected potential batch per epoch, stands in for
    both the largest epoch work and the work scale, over ``tau`` epochs of it;
    ``mean_inverse_batch``, the expectation of one over the processed batch,
    scales the gradient variance.
    """
    at_mean = replace(constants, grad_variance=constants.grad_variance * mean_inverse_batch)
    return evaluate_regret_bound(at_mean, tau, mean_potential * tau, mean_potential,
                                 mean_potential, eps)


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
    if not trace_fmb.records:
        raise ValueError("fixed-batch trace has no epochs")
    # Each total adds the epochs in order, on every Python version.
    s_a, s_f = (float(np.cumsum([r.compute_duration for r in trace.records])[-1])
                for trace in (trace_amb, trace_fmb))
    n = trace_fmb.config.graph.n
    mu, sigma = trace_fmb.config.timing.completion_stats(trace_fmb.records[0].batch_sizes)
    return SpeedupReport(
        compute_time_fixed_window=s_a,
        compute_time_fixed_batch=s_f,
        ratio=s_f / s_a,
        bound=speedup_bound(n, mu, sigma),
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
    empirical = None if trace.regret is None else float(trace.regret.potential[-1])
    holds = None if empirical is None else empirical <= value
    return BoundReport(constants=constants, eps=eps, tau=trace.tau, m=m, c_max=c_max,
                       mu=mu, regret_bound=value, regret_empirical=empirical,
                       expected_regret_bound_value=expected, holds=holds)


def build_trace(config, records) -> RunTrace:
    """Assemble the run trace: totals, regret series, and the error series."""
    wall = np.array([r.wall_end for r in records])
    batches = np.array([r.global_batch for r in records], dtype=np.int64)
    potentials = np.array([r.global_potential for r in records], dtype=np.int64)
    regret = None
    optimum = getattr(config.objective, "optimum_value", None)
    if optimum is not None and records:
        regret = empirical_regret(records, optimum)
    error = None
    holdout = config.holdout
    if holdout is not None and records:
        w_star = getattr(config.objective, "w_star", None)
        reference = None if w_star is None else _holdout_loss(config.objective, holdout)(w_star)
        error = error_vs_walltime(records, config.objective, holdout, reference=reference)
    return RunTrace(
        config=config,
        records=records,
        wall=wall,
        global_batches=batches,
        global_potentials=potentials,
        processed_total=int(batches.sum()),
        potential_total=int(potentials.sum()),
        regret=regret,
        error=error,
    )
