import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from ambsim import dualavg, engine, metrics, objectives, timing, topology


def record(epoch, loss_b, loss_c, b, a, wall_end=None, primal=None, n=2, dim=3):
    loss_b = np.asarray(loss_b, dtype=float)
    loss_c = np.asarray(loss_c, dtype=float)
    b = np.asarray(b, dtype=int)
    a = np.asarray(a, dtype=int)
    return engine.EpochRecord(
        epoch=epoch,
        wall_end=float(wall_end if wall_end is not None else epoch),
        compute_duration=1.0,
        batch_times=np.ones(n),
        batch_sizes=b,
        extra_capacity=a,
        rounds_used=np.full(n, 3),
        global_batch=int(b.sum()),
        global_potential=int((b + a).sum()),
        consensus_error=0.0,
        empty_batch=bool(b.sum() == 0),
        degenerate_nodes=0,
        loss_sum_processed=loss_b,
        loss_sum_potential=loss_c,
        losses_cover_potential=True,
        primal_after=np.zeros((n, dim)) if primal is None else primal,
    )


class TestEmpiricalRegret:
    def test_single_sample_example(self):
        # one node, one epoch, one sample with loss 3.0 against optimum 1.0
        rec = record(1, loss_b=[3.0, 0.0], loss_c=[3.0, 0.0], b=[1, 0], a=[0, 0])
        series = metrics.empirical_regret([rec], optimum_value=1.0)
        assert series.processed[-1] == pytest.approx(2.0)
        assert series.potential[-1] == pytest.approx(2.0)

    def test_iterates_at_optimum_give_zero_regret(self):
        model = objectives.make_linear_regression(4, 0.0, seed=1)
        x, y = model.draw(0, 1, 5)
        losses = model.loss_batch(model.w_star, x, y)
        rec = record(1, loss_b=[losses.sum(), 0.0], loss_c=[losses.sum(), 0.0],
                     b=[5, 0], a=[0, 0])
        series = metrics.empirical_regret([rec], optimum_value=model.optimum_value)
        assert abs(series.processed[-1]) <= 1e-12

    def test_matches_recorded_sums_identity(self):
        rng = np.random.default_rng(0)
        records = []
        for t in range(1, 8):
            b = rng.integers(0, 5, size=2)
            a = rng.integers(0, 3, size=2)
            lb = rng.uniform(0, 10, size=2) * (b > 0)
            lc = lb + rng.uniform(0, 3, size=2) * (a > 0)
            records.append(record(t, lb, lc, b, a))
        f_star = 0.25
        series = metrics.empirical_regret(records, f_star)
        total_b = sum(float(r.loss_sum_processed.sum()) for r in records)
        samples_b = sum(r.global_batch for r in records)
        assert series.processed[-1] == pytest.approx(total_b - samples_b * f_star, abs=1e-9)
        assert series.samples_processed[-1] == samples_b

    def test_counts_are_cumulative(self):
        records = [record(t, [1.0, 1.0], [2.0, 2.0], [1, 1], [1, 1]) for t in range(1, 4)]
        series = metrics.empirical_regret(records, 0.0)
        assert list(series.samples_processed) == [2, 4, 6]
        assert list(series.samples_potential) == [4, 8, 12]
        assert series.from_batch_means is False

    def test_batch_mean_fallback_is_flagged(self):
        # Without recorded extra-capacity losses, the potential series must
        # extrapolate per-sample means instead of mixing mismatched sums.
        recs = [record(1, [6.0, 0.0], [6.0, 0.0], [3, 0], [2, 1])]
        recs[0].losses_cover_potential = False
        series = metrics.empirical_regret(recs, optimum_value=1.0)
        # node 0: mean loss 2.0 over 5 potential samples; node 1: no data.
        assert series.potential[-1] == pytest.approx(2.0 * 5 - 6 * 1.0)
        assert series.from_batch_means is True
        assert series.processed[-1] == pytest.approx(6.0 - 3.0)


class TestErrorSeries:
    def run_small(self, holdout=400):
        model = objectives.make_linear_regression(12, 1e-3, seed=2)
        cfg = engine.RunConfig(
            mode="amb", graph=topology.testbed_graph(), objective=model,
            timing=timing.ShiftedExponential(2 / 3, 1.0, reference_batch=60),
            schedule=dualavg.Schedule(offset=14.0, work_scale=600.0),
            comm_time=1.0, tau=6, radius=2 * math.sqrt(12), seed=5,
            compute_time=2.5, rounds=5, holdout=holdout)
        return engine.run(cfg), model

    def test_initial_point_matches_analytic_value(self):
        trace, model = self.run_small()
        # At w = 0 the expected loss is (||w*||^2 + noise) / 2; the holdout
        # average concentrates around it.
        analytic = 0.5 * (float(np.dot(model.w_star, model.w_star)) + model.noise_var)
        assert trace.error.objective[0] == pytest.approx(analytic, rel=0.2)
        assert trace.error.wall[0] == 0.0

    def test_wall_points_are_epoch_boundaries(self):
        trace, _ = self.run_small()
        period = trace.config.compute_time + trace.config.comm_time
        assert np.allclose(trace.error.wall, [k * period for k in range(7)])

    def test_holdout_order_invariance(self):
        trace, model = self.run_small()
        x, y = model.holdout(400)
        base = metrics.error_vs_walltime(trace.records, model, (x, y))
        perm = np.random.default_rng(1).permutation(400)
        shuffled = metrics.error_vs_walltime(trace.records, model, (x[perm], y[perm]))
        assert np.allclose(base.objective, shuffled.objective, rtol=1e-12, atol=1e-12)

    def test_gap_uses_known_minimizer(self):
        trace, model = self.run_small()
        x, y = model.holdout(400)
        reference = float(np.mean(model.loss_batch(model.w_star, x, y)))
        assert np.allclose(trace.error.gap, trace.error.objective - reference)

    def test_node_max_dominates_average(self):
        trace, _ = self.run_small()
        assert np.all(trace.error.node_max >= trace.error.objective - 1e-12)

    def test_empty_holdout_rejected(self):
        trace, model = self.run_small()
        with pytest.raises(ValueError, match="non-empty"):
            metrics.error_vs_walltime(trace.records, model, (np.zeros((0, 12)), np.zeros(0)))

    def test_time_to_reach(self):
        series = metrics.ErrorSeries(
            wall=np.array([0.0, 1.0, 2.0, 3.0]),
            objective=np.array([4.0, 3.0, 1.0, 0.5]),
            gap=np.array([4.0, 3.0, 1.0, 0.5]),
            node_max=np.array([4.0, 3.0, 1.0, 0.5]))
        assert metrics.time_to_reach(series, 1.0) == 2.0
        assert math.isnan(metrics.time_to_reach(series, 0.1))


def bound_oracle():
    # High-precision evaluation of the documented closed form for
    # K=1, D=2, eps=0.1, sigma^2=1, L=1, c_max=10, mu=10, tau=100, m=1000,
    # initial gap 1, h* = 0.5.
    getcontext().prec = 50
    ten = Decimal(10)
    beta_tau = 1 + (Decimal(100) / ten).sqrt()
    head = ten * (1 + beta_tau * Decimal("0.5"))
    mid = 3 * Decimal("0.01") * ten * ten ** Decimal("1.5") / 4
    tail = (2 * 2 * Decimal("0.1") + Decimal("0.5") + 2 * Decimal("0.1")) * ten * Decimal(1000).sqrt()
    return float(head + mid + tail)


class TestRegretBound:
    CONSTANTS = metrics.BoundConstants(
        grad_smoothness=1.0, loss_lipschitz=1.0, grad_variance=1.0,
        diameter=2.0, initial_gap=1.0, h_star=0.5)

    def test_reference_value_against_high_precision_oracle(self):
        got = metrics.evaluate_regret_bound(self.CONSTANTS, tau=100, m=1000,
                                            c_max=10, mu=10.0, eps=0.1)
        assert got == pytest.approx(bound_oracle(), rel=1e-12)
        assert got == pytest.approx(381.0336392, abs=1e-6)

    def test_zero_eps_reduction(self):
        got = metrics.evaluate_regret_bound(self.CONSTANTS, tau=100, m=1000,
                                            c_max=10, mu=10.0, eps=0.0)
        beta_tau = 1.0 + math.sqrt(100 / 10.0)
        expected = 10 * (1.0 + beta_tau * 0.5) + 0.5 * 10 * math.sqrt(1000)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_total_work(self):
        values = [metrics.evaluate_regret_bound(self.CONSTANTS, 100, m, 10, 10.0, 0.1)
                  for m in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_expected_work_variant_is_finite_and_positive(self):
        got = metrics.expected_regret_bound(self.CONSTANTS, tau=100, mean_potential=10.0,
                                            mean_inverse_batch=0.2, eps=0.1)
        assert got > 0 and math.isfinite(got)


class TestSpeedup:
    def paired(self, tau=12):
        model = objectives.make_linear_regression(4, 1e-2, seed=6)
        shared = dict(
            graph=topology.complete_graph(5), objective=model,
            timing=timing.DeterministicTiming(period=2.0, reference_batch=20),
            schedule=dualavg.Schedule(offset=6.0, work_scale=100.0),
            comm_time=0.5, tau=tau, radius=4.0, seed=7, rounds=5)
        amb = engine.run(engine.RunConfig(
            mode="amb", compute_time=engine.matched_compute_time(100, 5, 2.0), **shared))
        fmb = engine.run(engine.RunConfig(mode="fmb", batch=100, **shared))
        return amb, fmb

    def test_deterministic_ratio(self):
        amb, fmb = self.paired()
        report = metrics.speedup_measurement(amb, fmb)
        assert report.ratio == pytest.approx(1.0 / (1.0 + 5 / 100), rel=1e-12)
        assert report.bound == pytest.approx(1.0)
        assert report.ratio <= report.bound

    def test_epoch_count_mismatch_rejected(self):
        amb, _ = self.paired(tau=12)
        _, fmb = self.paired(tau=6)
        with pytest.raises(ValueError, match="equal epoch counts"):
            metrics.speedup_measurement(amb, fmb)


class TestBoundReport:
    def test_report_on_a_real_run(self):
        model = objectives.make_linear_regression(10, 1e-3, seed=8)
        radius = 2 * math.sqrt(10)
        cfg = engine.RunConfig(
            mode="amb", graph=topology.testbed_graph(), objective=model,
            timing=timing.ShiftedExponential(2 / 3, 1.0, reference_batch=60),
            schedule=dualavg.Schedule(offset=14.0, work_scale=600.0),
            comm_time=1.0, tau=10, radius=radius, seed=9,
            compute_time=2.5, rounds=8, holdout=200)
        trace = engine.run(cfg)
        est = objectives.estimate_constants(model, 64, seed=11, radius=radius)
        h_star = 0.5 * float(np.dot(model.w_star, model.w_star))
        constants = metrics.BoundConstants(
            grad_smoothness=est.grad_smoothness, loss_lipschitz=est.loss_lipschitz,
            grad_variance=est.grad_variance, diameter=2 * radius,
            initial_gap=h_star, h_star=h_star, provenance="estimated")
        report = metrics.bound_report(trace, constants)
        assert report.holds is True
        assert report.regret_empirical <= report.regret_bound
        assert any("sample-path bound" in line for line in report.lines())
