import math

import numpy as np
import pytest

from ambsim import seeding, timing


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


class TestShiftedExponential:
    def test_monte_carlo_mean(self):
        model = timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=600)
        draws = np.array([model.batch_time(0, t, seed=1) for t in range(1, 100_001)])
        assert draws.mean() == pytest.approx(2.5, abs=0.02)

    def test_monte_carlo_variance(self):
        model = timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=600)
        draws = np.array([model.batch_time(0, t, seed=2) for t in range(1, 100_001)])
        assert draws.var() == pytest.approx(1.5**2, rel=0.05)

    def test_all_draws_exceed_shift(self):
        model = timing.ShiftedExponential(rate=1.0, shift=0.7, reference_batch=1)
        assert all(model.batch_time(i, t, seed=3) > 0.7 for i in range(4) for t in range(1, 50))

    def test_repeatability_and_stream_separation(self):
        model = timing.ShiftedExponential(rate=1.0, shift=0.0, reference_batch=1)
        a = model.batch_time(3, 11, seed=9)
        assert model.batch_time(3, 11, seed=9) == a
        assert model.batch_time(4, 11, seed=9) != a
        assert model.batch_time(3, 12, seed=9) != a
        assert model.batch_time(3, 11, seed=10) != a

    def test_expected_max_matches_harmonic_oracle(self):
        model = timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=600)
        n, trials = 10, 10_000
        maxima = np.array([
            max(model.batch_time(i, t, seed=4) for i in range(n))
            for t in range(1, trials + 1)
        ])
        oracle = 1.5 * harmonic(n) + 1.0
        sem = maxima.std() / math.sqrt(trials)
        assert abs(maxima.mean() - oracle) <= 4 * sem

    def test_order_statistics_bound(self):
        # E[max of n draws] <= mean + std * sqrt(n - 1) for any square-integrable law.
        n, trials = 10, 4000
        for model in (
            timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=1),
            timing.DeterministicTiming(period=3.0),
        ):
            maxima = np.array([
                max(model.batch_time(i, t, seed=5) for i in range(n))
                for t in range(1, trials + 1)
            ])
            bound = model.mean_batch_time() + model.std_batch_time() * math.sqrt(n - 1)
            sem = maxima.std() / math.sqrt(trials) if maxima.std() > 0 else 0.0
            assert maxima.mean() <= bound + 4 * sem + 1e-12


class TestPerGradientTime:
    def test_reference_case(self):
        model = timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=600)
        assert model.per_gradient_time(2.5) == pytest.approx(1.0 / 240.0)

    def test_identity_reference(self):
        model = timing.DeterministicTiming(period=3.0, reference_batch=1)
        assert model.per_gradient_time(3.0) == 3.0

    def test_linear_progress_beyond_reference(self):
        model = timing.ShiftedExponential(rate=1.0, shift=0.0, reference_batch=600)
        per_grad = model.per_gradient_time(2.5)
        assert 900 * per_grad == pytest.approx(2.5 * 900 / 600)


class TestDeterministic:
    def test_constant(self):
        model = timing.DeterministicTiming(period=3.0)
        assert all(model.batch_time(i, t, seed=0) == 3.0 for i in range(3) for t in range(1, 10))


class TestTraceReplay:
    def test_load_and_wraparound(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("node,epoch,batch_time_seconds\n0,1,2.0\n0,2,4.0\n1,1,3.0\n1,2,5.0\n")
        model = timing.load_timing_trace(path, reference_batch=10)
        assert model.batch_time(0, 1, seed=0) == 2.0
        assert model.batch_time(1, 2, seed=0) == 5.0
        assert model.batch_time(0, 3, seed=0) == 2.0  # wraps
        assert model.mean_batch_time() == pytest.approx(3.5)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("node,epoch,seconds\n0,1,2.0\n")
        with pytest.raises(ValueError, match="header"):
            timing.load_timing_trace(path, reference_batch=1)

    def test_rejects_nonpositive_time(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("node,epoch,batch_time_seconds\n0,1,-2.0\n")
        with pytest.raises(ValueError, match="positive"):
            timing.load_timing_trace(path, reference_batch=1)

    @pytest.mark.parametrize("table, reference_batch, match", [
        ((), 1, "at least one"),
        (((1.0,), ()), 1, "at least one"),
        (((1.0, math.nan),), 1, "finite"),
        (((math.inf,),), 1, "finite"),
        (((0.0,),), 1, "positive"),
        (((1.0,),), 0, "reference batch"),
    ])
    def test_constructor_validates_its_inputs(self, table, reference_batch, match):
        with pytest.raises(ValueError, match=match):
            timing.TraceTiming(table=table, reference_batch=reference_batch)


class TestGroupedPause:
    def make_model(self, **kwargs):
        return timing.GroupedPauseTiming.default_groups(**kwargs)

    def test_group_one_pause_statistics(self):
        model = self.make_model()
        draws = model.pauses(0, 1, seed=6, count=20_000)
        assert draws.mean() == pytest.approx(5.0, abs=0.05)
        assert draws.std() == pytest.approx(1.0, abs=0.05)

    def test_negative_draws_become_zero(self):
        model = timing.GroupedPauseTiming(group_means=(-50.0,), group_vars=(1.0,),
                                          assignment=(0,), base_gradient_time=1.0)
        draws = [model.pause(0, 1, k, seed=7) for k in range(100)]
        assert all(d == 0.0 for d in draws)

    def test_window_truncates_pause_at_deadline(self):
        # One gradient takes 1s; the pause draw is 7s but only 2s remain.
        model = timing.GroupedPauseTiming(group_means=(7.0,), group_vars=(0.0,),
                                          assignment=(0,), base_gradient_time=1.0)
        count, busy, nxt = model.compute_window(0, 1, seed=8, window=3.0)
        assert count == 1
        assert busy == pytest.approx(3.0)
        assert nxt == 1

    def test_window_counts_pauses_between_gradients(self):
        model = timing.GroupedPauseTiming(group_means=(2.0,), group_vars=(0.0,),
                                          assignment=(0,), base_gradient_time=1.0)
        # Timeline: work 1, pause 2, work 1, pause 2, work 1 -> 7s for 3 gradients.
        count, busy, _ = model.compute_window(0, 1, seed=9, window=7.0)
        assert count == 3
        assert busy == pytest.approx(7.0)

    def test_fixed_count_has_no_trailing_pause(self):
        model = timing.GroupedPauseTiming(group_means=(7.0,), group_vars=(0.0,),
                                          assignment=(0,), base_gradient_time=1.0)
        elapsed, nxt = model.fixed_count_time(0, 1, seed=10, count=4)
        assert elapsed == pytest.approx(4 * 1.0 + 3 * 7.0)
        assert nxt == 3

    def test_completion_stats_match_monte_carlo(self):
        model = self.make_model()
        counts = np.full(10, 10)
        mean, std = model.completion_stats(counts)
        sims = []
        for t in range(1, 3001):
            for node in range(10):
                elapsed, _ = model.fixed_count_time(node, t, seed=11, count=10)
                sims.append(elapsed)
        sims = np.array(sims)
        assert sims.mean() == pytest.approx(mean, rel=0.02)
        assert sims.std() == pytest.approx(std, rel=0.05)

    def test_pause_determinism_across_index(self):
        model = self.make_model()
        assert model.pause(2, 3, 4, seed=12) == model.pause(2, 3, 4, seed=12)
        assert model.pause(2, 3, 4, seed=12) != model.pause(2, 3, 5, seed=12)

    def test_pauses_are_a_bitwise_prefix_of_longer_blocks(self):
        model = self.make_model()
        long = model.pauses(3, 7, seed=13, count=500)
        for k in (0, 1, 2, 17, 499):
            assert model.pauses(3, 7, seed=13, count=k).tobytes() == long[:k].tobytes()
        assert model.pause(3, 7, 17, seed=13) == long[17]
        assert long.tobytes() != model.pauses(3, 8, seed=13, count=500).tobytes()
        assert long.tobytes() != model.pauses(4, 7, seed=13, count=500).tobytes()


def reference_window(model, node, epoch, seed, window, start_index=0):
    """compute_window as one scalar pause() per gradient."""
    g = model.base_gradient_time
    elapsed, count, index = 0.0, 0, start_index
    while elapsed + g <= window:
        elapsed += g
        count += 1
        pause = model.pause(node, epoch, index, seed)
        index += 1
        elapsed += min(pause, window - elapsed)
    return count, elapsed, index


def reference_fixed_count(model, node, epoch, seed, count, start_index=0):
    """fixed_count_time as one scalar pause() per gradient."""
    if count == 0:
        return 0.0, start_index
    elapsed = count * model.base_gradient_time
    index = start_index
    for _ in range(count - 1):
        elapsed += model.pause(node, epoch, index, seed)
        index += 1
    return elapsed, index


class TestPauseBlocks:
    MODELS = [
        timing.GroupedPauseTiming.default_groups(base_gradient_time=5.0),
        timing.GroupedPauseTiming.default_groups(base_gradient_time=0.7),
        timing.GroupedPauseTiming(group_means=(0.3, -0.1), group_vars=(0.2, 0.05),
                                  assignment=(0, 1, 0), base_gradient_time=0.1),
    ]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("start_index", [0, 3, 11])
    def test_window_matches_scalar_reference(self, model, start_index):
        for node in range(len(model.assignment)):
            for window in (0.0, 0.65, 1.0, 14.5, 60.0, 202.7):
                got = model.compute_window(node, 2, seed=5, window=window,
                                           start_index=start_index)
                want = reference_window(model, node, 2, 5, window, start_index)
                assert got == want
                assert type(got[1]) is float

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("start_index", [0, 3, 11])
    def test_fixed_count_matches_scalar_reference(self, model, start_index):
        for node in range(len(model.assignment)):
            for count in (0, 1, 2, 10, 37):
                got = model.fixed_count_time(node, 4, seed=6, count=count,
                                             start_index=start_index)
                assert got == reference_fixed_count(model, node, 4, 6, count, start_index)
                assert type(got[0]) is float

    @pytest.mark.parametrize("start_index", [0, 4])
    def test_window_regrows_its_block_past_the_floor_estimate(self, monkeypatch, start_index):
        # With no pauses, ten steps of 0.1 sum to 0.9999999999999999, so ten
        # gradients fit in a 1.0 window although 1.0 // 0.1 == 9.0.
        model = timing.GroupedPauseTiming(group_means=(-50.0,), group_vars=(1.0,),
                                          assignment=(0,), base_gradient_time=0.1)
        assert 1.0 // 0.1 == 9.0
        want = reference_window(model, 0, 1, 8, 1.0, start_index)
        calls = []
        substream = seeding.substream
        monkeypatch.setattr(seeding, "substream",
                            lambda *args: calls.append(args) or substream(*args))
        got = model.compute_window(0, 1, seed=8, window=1.0, start_index=start_index)
        assert got == want
        assert got[0] == 10 and got[2] == start_index + 10
        assert len(calls) == 2  # the block sized by the floor, then one twice as long

    @pytest.mark.parametrize("model", MODELS)
    def test_capped_first_block_regrows_to_the_same_pauses(self, model, monkeypatch):
        monkeypatch.setattr(timing.GroupedPauseTiming, "FIRST_BLOCK", 2)
        for start_index in (0, 5):
            for window in (14.5, 60.0, 202.7):
                got = model.compute_window(1, 3, seed=4, window=window, start_index=start_index)
                assert got == reference_window(model, 1, 3, 4, window, start_index)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(ValueError, match="group means"):
            timing.GroupedPauseTiming((math.nan,), (1.0,), (0,), 1.0)
        with pytest.raises(ValueError, match="group variances"):
            timing.GroupedPauseTiming((1.0,), (-1.0,), (0,), 1.0)
        with pytest.raises(ValueError, match="group variances"):
            timing.GroupedPauseTiming((1.0,), (math.inf,), (0,), 1.0)
        with pytest.raises(ValueError, match="base gradient time"):
            timing.GroupedPauseTiming((1.0,), (1.0,), (0,), math.nan)
        with pytest.raises(ValueError, match="base gradient time"):
            timing.GroupedPauseTiming((1.0,), (1.0,), (0,), math.inf)
        model = timing.GroupedPauseTiming((1.0,), (1.0,), (0,), 1.0)
        for window in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="window"):
                model.compute_window(0, 1, seed=1, window=window)


class TestSpeedupFormulas:
    def test_bound_examples(self):
        assert timing.speedup_bound(1, 2.5, 1.5) == 1.0
        assert timing.speedup_bound(10, 2.5, 0.0) == 1.0
        assert timing.speedup_bound(10, 2.5, 1.5) == pytest.approx(2.8)

    def test_asymptotic_ratio_pure_exponential(self):
        assert timing.shifted_exp_asymptotic_ratio(math.e**2, 1.0, 0.0) == pytest.approx(2.0)

    def test_asymptotic_ratio_reference_case(self):
        got = timing.shifted_exp_asymptotic_ratio(10, 2 / 3, 1.0)
        assert got == pytest.approx((1.5 * math.log(10) + 1.0) / 2.5, abs=1e-12)
        assert got == pytest.approx(1.7815510557964276, abs=1e-12)

    def test_asymptotic_ratio_increases_with_n(self):
        values = [timing.shifted_exp_asymptotic_ratio(n, 2 / 3, 1.0) for n in (2, 5, 10, 100, 1000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            timing.speedup_bound(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            timing.shifted_exp_asymptotic_ratio(1, 1.0, 0.0)
