"""Deterministic simulator for anytime-minibatch distributed optimization.

Workers get a fixed compute window per epoch and contribute however many
gradients they finished; dual variables are averaged over a communication
graph by repeated multiplication with a doubly stochastic matrix, and the
primal iterate is recovered by a regularized minimization over a ball.
The fixed-batch baseline, straggler timing models, regret and error
accounting, and a paired-comparison CLI ship alongside.
"""

from .dualavg import DualState, Schedule, apply_consensus_result, beta, primal_update
from .engine import (EpochRecord, RunConfig, average_consensus, matched_compute_time, run,
                     run_amb_epoch, run_fmb_epoch)
from .metrics import (BoundConstants, BoundReport, ErrorSeries, RegretSeries, RunTrace,
                      SpeedupReport, bound_report, empirical_regret, error_vs_walltime,
                      evaluate_regret_bound, expected_regret_bound, speedup_measurement,
                      time_to_reach, worst_node_loss)
from .objectives import (EstimatedConstants, LinearRegressionObjective,
                         MulticlassLogisticObjective, estimate_constants,
                         gradient_variance_at, make_linear_regression,
                         make_logistic_regression)
from .timing import (DeterministicTiming, GroupedPauseTiming, ShiftedExponential,
                     TraceTiming, load_timing_trace, shifted_exp_asymptotic_ratio,
                     speedup_bound)
from .topology import (ConsensusMatrix, Graph, build_consensus_matrix, complete_graph,
                       load_edge_list, make_graph, min_consensus_rounds, ring_graph,
                       second_eigenvalue, testbed_graph, weight_matrix)

__version__ = "0.1.0"
