import builtins
import math

import numpy as np
import pytest

from ambsim import seeding, timing
from test_golden import neumaier_sum


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


def per_node_linear_epoch(model, node, epoch, rng, window, count, comm):
    """One node's anytime and fixed-batch answers, as the per-node protocol computed them."""
    batch_time = model.draw_batch_time(node, epoch, rng)
    per_grad = model.per_gradient_time(batch_time)
    extra = int(math.floor(comm / per_grad))
    return (int(math.floor(window / per_grad)), extra, batch_time), (count * per_grad, extra)


class TestAllNodeEpochs:
    MODELS = [
        timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=60),
        timing.ShiftedExponential(rate=1.0, shift=0.0, reference_batch=7),
        timing.DeterministicTiming(period=3.0, reference_batch=7),
        timing.TraceTiming(table=((1.0, 2.5, 0.3), (4.0,), (0.7, 1.1), (2.0, 2.0, 9.0, 0.1),
                                  (1.3,), (5.5, 0.2)), reference_batch=11),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=["shifted", "shift-0", "deterministic", "trace"])
    def test_match_per_node_answers_bit_for_bit(self, model):
        n, seed = 5, 9
        counts = np.array([0, 1, 7, 60, 61])

        def rngs(epoch):
            if model.stream is None:
                return [None] * n
            return [seeding.substream(seed, model.stream, i, epoch) for i in range(n)]

        for epoch in (1, 2, 4):
            for window, comm in ((0.0, 0.0), (2.5, 1.0), (7.3, 0.0), (0.0, 4.1)):
                want = [per_node_linear_epoch(model, i, epoch, rng, window, count, comm)
                        for i, (rng, count) in enumerate(zip(rngs(epoch), counts.tolist()))]
                b, a, times = model.window_epoch(epoch, rngs(epoch), window, comm)
                assert (b.dtype.kind, a.dtype.kind, times.dtype.kind) == ("i", "i", "f")
                assert list(zip(b.tolist(), a.tolist())) == [w[0][:2] for w in want]
                assert times.tobytes() == np.array([w[0][2] for w in want]).tobytes()
                durations, a, times = model.batch_epoch(epoch, rngs(epoch), counts, comm)
                assert durations.tobytes() == np.array([w[1][0] for w in want]).tobytes()
                assert a.tolist() == [w[1][1] for w in want]
                assert times.tobytes() == np.array([w[0][2] for w in want]).tobytes()

    def test_a_batch_time_of_zero_is_rejected(self):
        class ZeroDraw:
            def exponential(self, scale):
                return 0.0

        model = timing.ShiftedExponential(rate=1.0, shift=0.0, reference_batch=7)
        with pytest.raises(ValueError, match="batch time must be positive"):
            model.window_epoch(1, [seeding.substream(1, seeding.TIMING, 0, 1), ZeroDraw()],
                               2.0, 1.0)
        with pytest.raises(ValueError, match="batch time must be positive"):
            model.batch_epoch(1, [ZeroDraw()], np.array([3]), 1.0)

    def test_counts_beyond_int64_are_rejected(self):
        model = timing.DeterministicTiming(period=1e-300, reference_batch=1)
        with pytest.raises(ValueError, match="int64"):
            model.window_epoch(1, [None, None], 2.0, 0.0)
        with pytest.raises(ValueError, match="int64"):
            model.batch_epoch(1, [None], np.array([3]), 2.0)


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

    def test_window_batch_averages_only_the_first_n_nodes(self):
        # Twelve trace nodes, of which a 10-node graph runs the first 10: their
        # mean batch time is 2.375, against 2.625 over all twelve (76.19).
        table = tuple((1.0 + 0.25 * i, 1.5 + 0.25 * i) for i in range(12))
        model = timing.TraceTiming(table=table, reference_batch=10)
        assert model.mean_window_batch(2.0, 10) == pytest.approx(10 * 2.0 / 0.2375)
        assert model.mean_window_batch(2.0, 12) == pytest.approx(12 * 2.0 / 0.2625)

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


def loop_completion_stats(model, counts):
    """The per-node loop the pause model's ``completion_stats`` replaced."""
    counts = np.asarray(counts, dtype=int)
    means = np.empty(len(counts))
    variances = np.empty(len(counts))
    for i, k in enumerate(counts):
        j = model.assignment[i]
        pm, pv = timing._clipped_normal_moments(model.group_means[j], model.group_vars[j])
        means[i] = k * model.base_gradient_time + max(0, k - 1) * pm
        variances[i] = max(0, k - 1) * pv
    total_var = float(np.mean(variances) + np.var(means))
    return float(np.mean(means)), math.sqrt(total_var)


def loop_mean_window_batch(model, window, n):
    """The per-node sum the pause model's ``mean_window_batch`` replaced, added in node order."""
    total = 0.0
    for node in range(n):
        j = model.assignment[node]
        pause = timing._clipped_normal_moments(model.group_means[j], model.group_vars[j])[0]
        total += window / (model.base_gradient_time + pause)
    return total


class TestPauseMoments:
    def test_match_the_per_node_loops_bit_for_bit(self, monkeypatch):
        # Zero counts, groups of variance 0 and negative group means all occur.
        # The "auto" work scale must also hold under the builtin ``sum`` of
        # Python 3.12, which adds floats with compensation.
        rng = np.random.default_rng(12)
        for trial in range(400):
            groups = int(rng.integers(1, 6))
            means = rng.uniform(-30, 60, size=groups)
            variances = np.where(rng.random(groups) < 0.3, 0.0, rng.uniform(0, 200, size=groups))
            n = int(rng.integers(1, 40))
            model = timing.GroupedPauseTiming(
                tuple(means.tolist()), tuple(variances.tolist()),
                tuple(rng.integers(0, groups, size=n).tolist()), float(rng.uniform(0.01, 20)))
            counts = np.where(rng.random(n) < 0.2, 0, rng.integers(0, 5000, size=n))
            assert (np.array(model.completion_stats(counts)).tobytes()
                    == np.array(loop_completion_stats(model, counts)).tobytes())
            window = float(rng.uniform(0.1, 1e4))
            for nodes in (1, n):
                want = np.float64(loop_mean_window_batch(model, window, nodes)).tobytes()
                assert np.float64(model.mean_window_batch(window, nodes)).tobytes() == want
                with monkeypatch.context() as patch:
                    patch.setattr(builtins, "sum", neumaier_sum)
                    assert np.float64(model.mean_window_batch(window, nodes)).tobytes() == want

    def test_variance_0_groups_by_hand(self):
        # Group 0's negative mean clips to no pause at all.
        model = timing.GroupedPauseTiming((-3.0, 4.0), (0.0, 0.0), (0, 1, 1), 2.0)
        assert model.completion_stats([0, 0, 0]) == (0.0, 0.0)
        assert model.completion_stats([1, 2, 2]) == (6.0, math.sqrt(8.0))
        assert model.mean_window_batch(12.0, 3) == 12.0 / 2.0 + 2 * 12.0 / 6.0


def pause_rng(seed, node, epoch):
    """The generator the timing protocol takes: stream (PAUSES, node, epoch) at ``seed``."""
    return seeding.substream(seed, seeding.PAUSES, node, epoch)


class NormalSpy:
    """A pause generator that records the size of each ``standard_normal`` call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


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
    def test_window_fits_a_gradient_past_the_floor_estimate(self, monkeypatch, start_index):
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
        # The tenth gradient's pause is in the one draw, from the one generator.
        assert model.window_pauses(1.0) == 11
        assert len(calls) == 1

    def test_pause_free_windows_at_the_cap_read_only_their_draw(self, monkeypatch):
        # With no pauses a window fits the most gradients, and rounding may fit
        # one more than window // g. A window just under the cap still reads
        # only the window_pauses(window) pauses drawn for it.
        cap = timing.GroupedPauseTiming.MAX_WINDOW_GRADIENTS
        models = [timing.GroupedPauseTiming((-1.0,), (0.0,), (0,), g) for g in (0.1, 0.7)]
        windows = []
        for model in models:
            window = cap * model.base_gradient_time
            while window / model.base_gradient_time > cap:
                window = math.nextafter(window, 0.0)
            windows.append(window)
            assert not model.pauses(0, 1, 8, 1000).any()
        # Every pause is 0.0, so the scalar reference need not draw each one anew.
        monkeypatch.setattr(timing.GroupedPauseTiming, "pause", lambda *args: 0.0)
        for model, window in zip(models, windows):
            want = reference_window(model, 0, 1, 8, window)
            assert model.compute_window(0, 1, seed=8, window=window) == want
            assert want[0] <= window // model.base_gradient_time + 1
        # Both windows of one node-epoch at the cap, from one draw.
        count, busy, nxt = want
        want = [count, reference_window(model, 0, 1, 8, window, nxt)[0], busy]
        got = model.window_epoch(1, [pause_rng(8, 0, 1)], window, window)
        assert [a.tolist() for a in got] == [[v] for v in want]

    @pytest.mark.parametrize("model", MODELS)
    def test_window_pauses_cover_windows_that_are_sums_of_gradients(self, model):
        # A pause-free window of exactly k summed gradients fits all k of them,
        # whatever window // g rounds to, and reads only the pauses drawn for it.
        g, n = model.base_gradient_time, len(model.assignment)
        free = timing.GroupedPauseTiming((-1.0,), (0.0,), (0,) * n, g)
        window = 0.0
        for k in range(300):
            for start_index in (0, 5):
                got = free.compute_window(0, 3, seed=2, window=window, start_index=start_index)
                assert got == (k, window, start_index + k)
            assert k <= free.window_pauses(window) - 1 == int(window // g) + 1
            got = free.window_epoch(3, [pause_rng(2, node, 3) for node in range(n)], window, window)
            assert [a.tolist() for a in got] == [[k] * n, [k] * n, [window] * n]
            window += g

    def test_window_pauses_is_the_rule_the_walk_keeps(self):
        model = timing.GroupedPauseTiming((1.0,), (1.0,), (0,), 0.5)
        cap = model.MAX_WINDOW_GRADIENTS
        assert [model.window_pauses(w) for w in (0.0, 0.49, 0.5, 7.25)] == [2, 2, 3, 16]
        assert model.window_pauses(cap * 0.5) == cap + 2
        with pytest.raises(ValueError, match=f"at most {cap} are allowed"):
            model.window_pauses(math.nextafter(cap * 0.5, math.inf))
        for window in (math.inf, math.nan, -1.0, -1e-300):
            with pytest.raises(ValueError, match="window must be finite and non-negative"):
                model.window_pauses(window)

    @pytest.mark.parametrize("model", MODELS)
    def test_epochs_match_two_separate_windows(self, model):
        # The communication window continues the compute phase's stream at
        # the index where that phase stopped. The all-node call answers each
        # node as its own two windows do.
        nodes = range(len(model.assignment))
        for window, comm in ((0.0, 7.5), (14.5, 0.0), (60.0, 14.5), (202.7, 60.0)):
            want = []
            for node in nodes:
                count, busy, nxt = reference_window(model, node, 2, 5, window)
                want.append((count, reference_window(model, node, 2, 5, comm, nxt)[0], busy))
            got = model.window_epoch(2, [pause_rng(5, node, 2) for node in nodes], window, comm)
            assert [a.dtype.kind for a in got] == ["i", "i", "f"]
            assert list(zip(*(a.tolist() for a in got))) == want
        for counts, comm in (([0, 1, 10], 14.5), ([37, 0, 1], 60.0), ([10, 10, 2], 0.0)):
            counts = np.resize(counts, len(nodes))
            want = []
            for node, count in zip(nodes, counts.tolist()):
                busy, nxt = reference_fixed_count(model, node, 4, 6, count)
                want.append((busy, reference_window(model, node, 4, 6, comm, nxt)[0], busy))
            got = model.batch_epoch(4, [pause_rng(6, node, 4) for node in nodes], counts, comm)
            assert [a.dtype.kind for a in got] == ["f", "i", "f"]
            assert list(zip(*(a.tolist() for a in got))) == want

    def test_one_stream_per_node_and_epoch(self, monkeypatch):
        # Every pause comes from the one generator the caller passes, and none
        # is addressed anew.
        model = self.MODELS[0]
        pairs = [(node, epoch) for node in range(len(model.assignment)) for epoch in (1, 2)]
        rngs = {(node, epoch, k): pause_rng(3, node, epoch)
                for node, epoch in pairs for k in (0, 1)}
        want = {}
        for node, epoch in pairs:
            count, busy, nxt = reference_window(model, node, epoch, 3, 202.7)
            want[node, epoch, 0] = (count, reference_window(model, node, epoch, 3, 60.0, nxt)[0],
                                    busy)
            busy, nxt = reference_fixed_count(model, node, epoch, 3, 37)
            want[node, epoch, 1] = (busy, reference_window(model, node, epoch, 3, 60.0, nxt)[0],
                                    busy)
        calls = []
        substream = seeding.substream
        monkeypatch.setattr(seeding, "substream",
                            lambda *args: calls.append(args) or substream(*args))
        nodes = range(len(model.assignment))
        for epoch in (1, 2):
            got = model.window_epoch(epoch, [rngs[node, epoch, 0] for node in nodes], 202.7, 60.0)
            assert list(zip(*(a.tolist() for a in got))) == [want[node, epoch, 0] for node in nodes]
            got = model.batch_epoch(epoch, [rngs[node, epoch, 1] for node in nodes],
                                    np.full(len(nodes), 37), 60.0)
            assert list(zip(*(a.tolist() for a in got))) == [want[node, epoch, 1] for node in nodes]
        assert calls == []

    @pytest.mark.parametrize("model", MODELS)
    def test_one_normal_draw_per_node_epoch(self, model):
        # Both windows of an anytime node-epoch, or a fixed batch's gaps and
        # its communication window, take their pauses from one call.
        nodes = range(len(model.assignment))
        for window, comm in ((0.0, 60.0), (14.5, 0.0), (60.0, 14.5), (202.7, 60.0)):
            spies = [NormalSpy(pause_rng(5, node, 2)) for node in nodes]
            model.window_epoch(2, spies, window, comm)
            size = model.window_pauses(window) + model.window_pauses(comm)
            assert [spy.sizes for spy in spies] == [[size]] * len(nodes)
        counts = np.resize([0, 1, 10, 37], len(nodes))
        for comm in (0.0, 14.5, 60.0):
            spies = [NormalSpy(pause_rng(6, node, 4)) for node in nodes]
            model.batch_epoch(4, spies, counts, comm)
            assert [spy.sizes for spy in spies] == [[max(count - 1, 0) + model.window_pauses(comm)]
                                                    for count in counts.tolist()]

    @pytest.mark.parametrize("model", MODELS)
    def test_windows_beyond_the_walk_cap_raise_before_drawing(self, model):
        g = model.base_gradient_time
        beyond = (model.MAX_WINDOW_GRADIENTS + 1) * g
        for window, comm in ((1e12, 0.0), (beyond, 0.0), (0.0, beyond)):
            rng = pause_rng(1, 0, 1)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="at most"):
                model.window_epoch(1, [rng], window, comm)
            assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="at most"):
            model.compute_window(0, 1, seed=1, window=beyond)

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
            with pytest.raises(ValueError, match="window"):
                model.window_epoch(1, [pause_rng(1, 0, 1)], 5.0, window)
            with pytest.raises(ValueError, match="window"):
                model.batch_epoch(1, [pause_rng(1, 0, 1)], np.array([3]), window)


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
