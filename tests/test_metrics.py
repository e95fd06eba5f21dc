import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from ambsim import dualavg, engine, metrics, objectives, timing, topology


def record(epoch, loss_c, b, a, wall_end=None, primal=None, n=2, dim=3):
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
        loss_sum_potential=loss_c,
        primal_after=np.zeros((n, dim)) if primal is None else primal,
    )


def loop_regret(records, optimum_value):
    """The epoch loop ``empirical_regret`` replaced: running sums, one epoch at a time."""
    tau = len(records)
    potential = np.zeros(tau)
    count_c = np.zeros(tau, dtype=np.int64)
    acc_c = 0.0
    nc = 0
    for k, rec in enumerate(records):
        acc_c += float(np.sum(rec.loss_sum_potential))
        nc += int(rec.global_potential)
        potential[k] = acc_c - nc * optimum_value
        count_c[k] = nc
    return potential, count_c


class TestEmpiricalRegret:
    def test_matches_the_epoch_loop_bit_for_bit(self):
        # Loss sums spread over many magnitudes, so any change in the order of
        # the additions shows in the low bits.
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(1, 7))
            tau = 1 if trial % 5 == 0 else int(rng.integers(2, 60))
            optimum = (0.0, 0, float(rng.uniform(0, 3)))[trial % 3]
            records = []
            for t in range(1, tau + 1):
                b = rng.integers(0, 9, size=n)
                a = rng.integers(0, 4, size=n)
                lb = rng.uniform(0, 1, size=n) * 10.0 ** rng.uniform(-9, 9, size=n) * (b > 0)
                lc = lb + rng.uniform(0, 1, size=n) * 10.0 ** rng.uniform(-9, 9, size=n) * (a > 0)
                records.append(record(t, lc, b, a, n=n))
            series = metrics.empirical_regret(records, optimum)
            got = (series.potential, series.samples_potential)
            for mine, want in zip(got, loop_regret(records, optimum)):
                assert mine.dtype == want.dtype and mine.shape == want.shape
                assert mine.tobytes() == want.tobytes()

    def test_single_sample_example(self):
        # one node, one epoch, one sample with loss 3.0 against optimum 1.0
        rec = record(1, loss_c=[3.0, 0.0], b=[1, 0], a=[0, 0])
        series = metrics.empirical_regret([rec], optimum_value=1.0)
        assert series.potential[-1] == pytest.approx(2.0)

    def test_iterates_at_optimum_give_zero_regret(self):
        model = objectives.make_linear_regression(4, 0.0, seed=1)
        x, y = model.draw(0, 1, 5)
        losses = model.loss_batch(model.w_star, x, y)
        rec = record(1, loss_c=[losses.sum(), 0.0], b=[5, 0], a=[0, 0])
        series = metrics.empirical_regret([rec], optimum_value=model.optimum_value)
        assert abs(series.potential[-1]) <= 1e-12

    def test_matches_recorded_sums_identity(self):
        rng = np.random.default_rng(0)
        records = []
        for t in range(1, 8):
            b = rng.integers(0, 5, size=2)
            a = rng.integers(0, 3, size=2)
            lb = rng.uniform(0, 10, size=2) * (b > 0)
            lc = lb + rng.uniform(0, 3, size=2) * (a > 0)
            records.append(record(t, lc, b, a))
        f_star = 0.25
        series = metrics.empirical_regret(records, f_star)
        total_c = sum(float(r.loss_sum_potential.sum()) for r in records)
        samples_c = sum(r.global_potential for r in records)
        assert series.potential[-1] == pytest.approx(total_c - samples_c * f_star, abs=1e-9)
        assert series.samples_potential[-1] == samples_c

    def test_counts_are_cumulative(self):
        records = [record(t, [2.0, 2.0], [1, 1], [1, 1]) for t in range(1, 4)]
        series = metrics.empirical_regret(records, 0.0)
        assert list(series.samples_potential) == [4, 8, 12]


class TestErrorSeries:
    def run_small(self, holdout=400):
        model = objectives.make_linear_regression(12, 1e-3, seed=2)
        cfg = engine.RunConfig(
            mode="amb", graph=topology.testbed_graph(), objective=model,
            timing=timing.ShiftedExponential(2 / 3, 1.0, reference_batch=60),
            schedule=dualavg.Schedule(offset=14.0, work_scale=600.0),
            comm_time=1.0, tau=6, radius=2 * math.sqrt(12), seed=5,
            compute_time=2.5, rounds=5, holdout=model.holdout(holdout))
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

    def test_scores_only_the_averaged_iterate(self):
        trace, model = self.run_small()

        class Counting:
            dim = model.dim
            calls = 0

            def loss_batch(self, w, x, y):
                Counting.calls += 1
                return model.loss_batch(w, x, y)

        series = metrics.error_vs_walltime(trace.records, Counting(), model.holdout(400))
        assert Counting.calls == trace.tau + 1
        assert np.array_equal(series.objective, trace.error.objective)

    def test_worst_node_loss_matches_a_per_row_loop(self):
        trace, model = self.run_small()
        x, y = model.holdout(400)

        def loss(w):
            return float(np.mean(model.loss_batch(w, x, y)))

        expected = [loss(np.zeros(model.dim))]
        for record in trace.records:
            primal = record.primal_after
            expected.append(max(loss(primal[i]) for i in range(primal.shape[0])))
        got = metrics.worst_node_loss(trace.records, model, (x, y))
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))

    def test_worst_node_dominates_average(self):
        trace, model = self.run_small()
        worst = metrics.worst_node_loss(trace.records, model, model.holdout(400))
        assert worst.shape == trace.error.objective.shape
        assert np.all(worst >= trace.error.objective - 1e-12)

    def test_empty_holdout_rejected(self):
        trace, model = self.run_small()
        empty = (np.zeros((0, 12)), np.zeros(0))
        with pytest.raises(ValueError, match="non-empty"):
            metrics.error_vs_walltime(trace.records, model, empty)
        with pytest.raises(ValueError, match="non-empty"):
            metrics.worst_node_loss(trace.records, model, empty)

    def test_time_to_reach(self):
        series = metrics.ErrorSeries(
            wall=np.array([0.0, 1.0, 2.0, 3.0]),
            objective=np.array([4.0, 3.0, 1.0, 0.5]),
            gap=np.array([4.0, 3.0, 1.0, 0.5]))
        assert metrics.time_to_reach(series, 1.0) == 2.0
        assert math.isnan(metrics.time_to_reach(series, 0.1))


def bound_oracle(variance="1"):
    # High-precision evaluation of the documented closed form for
    # K=1, D=2, eps=0.1, sigma^2=variance, L=1, c_max=10, mu=10, tau=100, m=1000,
    # initial gap 1, h* = 0.5.
    getcontext().prec = 50
    ten = Decimal(10)
    beta_tau = 1 + (Decimal(100) / ten).sqrt()
    head = ten * (1 + beta_tau * Decimal("0.5"))
    mid = 3 * Decimal("0.01") * ten * ten ** Decimal("1.5") / 4
    tail = (2 * 2 * Decimal("0.1") + Decimal(variance) / 2 + 2 * Decimal("0.1")) * ten * Decimal(1000).sqrt()
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
        # The sample-path bound with c_max = mu = 10, m = 10 * tau and variance 1 * 0.2.
        assert got == pytest.approx(bound_oracle(variance="0.2"), rel=1e-12)


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
            compute_time=2.5, rounds=8, holdout=model.holdout(200))
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
