import functools
import math

import numpy as np
import pytest

from ambsim import dualavg, engine, objectives, seeding, timing, topology
from test_objectives import oracle_draw, oracle_grad_mean, oracle_loss_batch
from test_topology import random_connected_graph


LINEAR = objectives.make_linear_regression(6, 1e-2, seed=3)


def small_config(**overrides):
    model = LINEAR
    defaults = dict(
        mode="amb",
        graph=topology.testbed_graph(),
        objective=model,
        timing=timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=60),
        schedule=dualavg.Schedule(offset=10.0, work_scale=600.0),
        comm_time=1.0,
        tau=5,
        radius=10.0,
        seed=17,
        compute_time=2.5,
        rounds=5,
    )
    defaults.update(overrides)
    return engine.RunConfig(**defaults)


class TestConfigValidation:
    def test_mode_specific_requirements(self):
        with pytest.raises(ValueError, match="compute_time"):
            small_config(compute_time=None)
        with pytest.raises(ValueError, match="batch"):
            small_config(mode="fmb", compute_time=None, batch=None)
        with pytest.raises(ValueError, match="single-node"):
            small_config(mode="serial", rounds="exact")

    def test_non_finite_times_are_rejected(self):
        with pytest.raises(ValueError, match="communication time"):
            small_config(comm_time=math.inf)
        with pytest.raises(ValueError, match="communication time"):
            small_config(comm_time=math.nan)
        with pytest.raises(ValueError, match="compute time"):
            small_config(compute_time=math.inf)
        with pytest.raises(ValueError, match="compute time"):
            small_config(compute_time=math.nan)
        with pytest.raises(ValueError, match="radius"):
            small_config(radius=math.inf)

    def test_round_spec_validation(self):
        with pytest.raises(ValueError):
            small_config(rounds=0)
        with pytest.raises(ValueError):
            small_config(rounds=("uniform", 0, 4))
        with pytest.raises(ValueError):
            small_config(rounds="sometimes")

    @pytest.mark.parametrize("holdout", [
        400, 0, [1.0, 2.0], (np.zeros((4, 6)),),
        # No rows, labels for fewer rows, rows of the wrong width, features as one row.
        LINEAR.holdout(0), (LINEAR.holdout(4)[0], LINEAR.holdout(3)[1]),
        (np.zeros((4, 5)), np.zeros(4)), (np.zeros(6), np.zeros(1)),
    ])
    def test_holdout_must_be_a_drawn_pair(self, holdout):
        with pytest.raises(ValueError, match=r"objective\.holdout\(count\)"):
            small_config(holdout=holdout)
        x, y = LINEAR.holdout(4)
        assert small_config(holdout=(x, y)).holdout[0] is x
        # A softmax row holds feat_dim features, not the model's classes * feat_dim weights.
        softmax = objectives.make_logistic_regression(3, 4, seed=5)
        x, y = softmax.holdout(4)
        assert small_config(objective=softmax, holdout=(x, y)).holdout[0] is x
        with pytest.raises(ValueError, match=r"objective\.holdout\(count\)"):
            small_config(objective=softmax, holdout=(np.zeros((4, softmax.dim)), y))


def window_epoch(cfg):
    """``(b, a, T)`` of epoch 1 from the timing model, with the generators a run gives it."""
    return cfg.timing.window_epoch(1, engine._Streams(cfg, 1, 1).timing(1), cfg.compute_time,
                                   cfg.comm_time)


class TestComputePhase:
    def test_deterministic_batch_sizes(self):
        cfg = small_config(
            graph=topology.complete_graph(2),
            timing=timing.DeterministicTiming(period=1.0, reference_batch=1),
            compute_time=3.0,
        )
        b, a, _ = window_epoch(cfg)
        assert list(b) == [3, 3]
        assert int(b.sum()) == 6
        assert list(a) == [1, 1]

    def test_floor_formula_reference_case(self):
        # 600-gradient pairing: batch time 2.5 for 60 gradients, window 2.5.
        cfg = small_config(
            timing=timing.DeterministicTiming(period=2.5, reference_batch=60),
            compute_time=2.5,
        )
        b, _, _ = window_epoch(cfg)
        assert all(b == 60)

    def test_fmb_remainder_rule(self):
        assert list(engine._fmb_batches(7, 3)) == [3, 2, 2]
        assert list(engine._fmb_batches(600, 10)) == [60] * 10

    def test_matched_compute_time(self):
        assert engine.matched_compute_time(600, 10, 2.5) == pytest.approx((1 + 10 / 600) * 2.5)
        assert engine.matched_compute_time(10**9, 10, 2.5) == pytest.approx(2.5, abs=1e-6)
        assert engine.matched_compute_time(60_000, 10, 14.5) == pytest.approx(14.5, abs=3e-3)


def oracle_consensus_phase(matrix, messages, rounds_per_node):
    """The engine's consensus loop before ``average_consensus`` took per-node counts:
    one step at a time, each node keeping its row after its own count."""
    out = np.empty_like(messages)
    m = messages
    for k in range(1, int(rounds_per_node.max()) + 1):
        m = engine.average_consensus(matrix, m, 1)
        done = rounds_per_node == k
        out[done] = m[done]
    return out


class TestConsensus:
    @pytest.mark.parametrize("dim", [2, 50, 210])
    def test_per_node_counts_match_the_per_round_loop_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim + 1)
        graphs = [topology.testbed_graph(), topology.ring_graph(150)]
        graphs += [random_connected_graph(rng, n) for n in (5, 17, 40)]
        for g in graphs:
            cm = topology.build_consensus_matrix(g)
            values = rng.standard_normal((g.n, dim)) * rng.uniform(0.1, 100)
            values[rng.random(g.n) < 0.3] = 0.0  # nodes with b_i = 0 send zero rows
            for low, high in ((1, 1), (4, 4), (1, 8), (3, 6)):
                counts = rng.integers(low, high + 1, size=g.n)
                want = oracle_consensus_phase(cm, values, counts).view(np.uint64)
                got = engine.average_consensus(cm, values, counts)
                assert np.array_equal(got.view(np.uint64), want)
                if low == high:  # one count for every node
                    got = engine.average_consensus(cm, values, low)
                    assert np.array_equal(got.view(np.uint64), want)

    def test_mass_conservation_each_round(self):
        rng = np.random.default_rng(0)
        cm = topology.build_consensus_matrix(topology.testbed_graph())
        values = rng.standard_normal((10, 4)) * 50
        total = values.sum(axis=0)
        current = values
        for _ in range(20):
            current = engine.average_consensus(cm, current, 1)
            assert np.abs(current.sum(axis=0) - total).max() <= 1e-9 * np.abs(total).max()

    def test_geometric_contraction_in_disagreement(self):
        rng = np.random.default_rng(1)
        cm = topology.build_consensus_matrix(topology.testbed_graph())
        values = rng.standard_normal((10, 3))
        mean = values.mean(axis=0)
        initial = np.linalg.norm(values - mean)
        for r in range(1, 21):
            out = engine.average_consensus(cm, values, r)
            assert np.linalg.norm(out - mean) <= cm.lambda2**r * initial * (1 + 1e-9)

    @pytest.mark.parametrize("dim", [2, 50, 210])
    def test_sparse_step_matches_dense_product_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        graphs = [topology.testbed_graph(), topology.ring_graph(150),
                  topology.complete_graph(12)]
        graphs += [random_connected_graph(rng, n) for n in (5, 17, 40)]
        for g in graphs:
            cm = topology.build_consensus_matrix(g)
            values = rng.standard_normal((g.n, dim)) * rng.uniform(0.1, 100)
            values[rng.random(g.n) < 0.3] = 0.0  # nodes with b_i = 0 send zero rows
            dense, sparse = values, values
            for _ in range(8):
                dense = (cm.matrix[:, :, None] * dense[None, :, :]).sum(axis=1)
                sparse = engine.average_consensus(cm, sparse, 1)
                assert np.array_equal(sparse.view(np.uint64), dense.view(np.uint64))

    def test_each_column_is_averaged_on_its_own_bit_for_bit(self):
        # The engine carries the batch-size scalar as the messages' last
        # column; it must come out as if it had been carried alone.
        rng = np.random.default_rng(4)
        for g in (topology.testbed_graph(), topology.ring_graph(150),
                  random_connected_graph(rng, 23)):
            cm = topology.build_consensus_matrix(g)
            scalars = rng.uniform(0, 500, size=g.n)
            scalars[rng.random(g.n) < 0.3] = 0.0
            messages = np.column_stack([rng.standard_normal((g.n, 9)) * 40, scalars])
            alone = engine.average_consensus(cm, scalars[:, None], 8)
            beside = engine.average_consensus(cm, messages, 8)
            flat = engine.average_consensus(cm, scalars, 8)
            assert alone.shape == (g.n, 1) and flat.shape == (g.n,)
            assert np.array_equal(beside[:, -1].view(np.uint64), alone[:, 0].view(np.uint64))
            assert np.array_equal(flat.view(np.uint64), alone[:, 0].view(np.uint64))
            for j in range(9):
                column = engine.average_consensus(cm, messages[:, j], 8)
                assert np.array_equal(beside[:, j].view(np.uint64), column.view(np.uint64))

    def test_exact_mode_matches_error_free_dual(self):
        cfg = small_config(rounds="exact", tau=4)
        trace = engine.run(cfg)
        assert max(r.consensus_error for r in trace.records) <= 1e-9

    def test_finite_rounds_with_exact_normalization(self):
        cfg = small_config(rounds=30, exact_batch_norm=True, tau=3)
        trace = engine.run(cfg)
        # 30 rounds of a 0.944-mixing matrix shrink disagreement by ~0.18;
        # errors must decay well below the initial message spread.
        assert all(r.consensus_error < 1.0 for r in trace.records)

    def test_per_node_round_draws_are_in_range(self):
        cfg = small_config(rounds=("uniform", 2, 6), tau=3)
        trace = engine.run(cfg)
        for record in trace.records:
            assert record.rounds_used.min() >= 2
            assert record.rounds_used.max() <= 6

    def test_node_round_count_does_not_depend_on_graph_size(self):
        small = small_config(graph=topology.ring_graph(5), rounds=("uniform", 3, 8))
        large = small_config(graph=topology.ring_graph(150), rounds=("uniform", 3, 8))

        def resolve(cfg, t):
            return engine._resolve_rounds(cfg, t, engine._Streams(cfg, 1, 9))

        for t in (1, 2, 9):
            few, many = resolve(small, t), resolve(large, t)
            assert few.shape == (5,) and many.shape == (150,)
            assert np.array_equal(few, many[:5])
            assert few.min() >= 3 and many.min() >= 3 and many.max() <= 8
        assert not np.array_equal(resolve(large, 1), resolve(large, 2))

    def test_degenerate_batch_share_keeps_dual(self):
        # Path graph: node 0 is two hops from the only node with work, so a
        # single round leaves its batch-share estimate at zero.
        table = ((100.0,), (100.0,), (0.5,))
        cfg = small_config(
            graph=topology.make_graph(3, [(0, 1), (1, 2)]),
            timing=timing.TraceTiming(table=table, reference_batch=1),
            compute_time=1.0,
            rounds=1,
            tau=1,
        )
        trace = engine.run(cfg)
        record = trace.records[0]
        assert record.batch_sizes[0] == 0 and record.batch_sizes[2] == 2
        assert record.degenerate_nodes == 1


def csv_softmax(tmp_path):
    rows = np.random.default_rng(8).integers(0, 256, (30, 5))
    path = tmp_path / "labeled.csv"
    path.write_text("".join(f"{i % 3}," + ",".join(map(str, r)) + "\n" for i, r in enumerate(rows)))
    return objectives.make_logistic_regression(3, 6, seed=5, csv_path=path)


class TestGradientsAndLosses:
    @pytest.mark.parametrize("make_model", [
        lambda tmp: objectives.make_linear_regression(6, 1e-2, seed=3),
        lambda tmp: objectives.make_logistic_regression(3, 4, seed=5),
        lambda tmp: objectives.make_linear_regression(1, 0.3, seed=3),
        lambda tmp: objectives.make_linear_regression(5, 0.0, seed=3),
        csv_softmax,
    ], ids=["model0", "model1", "linear-d1", "linear-noise-free", "softmax-csv"])
    def test_one_pass_per_node_matches_separate_passes_bit_for_bit(self, make_model, tmp_path):
        # The chunked pass against the per-node loop it replaced, with the
        # separate draw, loss and gradient passes as the oracle. Node 1 has
        # b = 0 < a, nodes 3 and 7 have b = a = 0, node 4 has more rows than
        # a chunk holds, nodes 5 and 6 fill a chunk exactly, and node 12 is
        # a chunk alone with no batch. A softmax model has no known optimum,
        # so its extra-capacity rows are never drawn and its potential loss
        # sums are NaN; its batch rows are still the first b_i of each
        # node's b_i + a_i oracle rows.
        model = make_model(tmp_path)
        cap = engine.CHUNK_VALUES // model.dim
        b = np.array([5, 0, 1, 0, cap + 3, cap // 2, cap - cap // 2 - 4, 0, 2, 9, 3, 0, 0])
        a = np.array([2, 4, 0, 0, 4, 2, 2, 0, 1, 30, 0, 7, cap + 1])
        assert list(engine._chunks((b + a).tolist(), cap)) == [
            [0, 1, 2], [4], [5, 6], [8, 9, 10, 11], [12]]
        n = len(b)
        cfg = small_config(objective=model, graph=topology.ring_graph(n))
        rng = np.random.default_rng(4)
        state = engine.EngineState(primal=rng.standard_normal((n, model.dim)),
                                   dual=np.zeros((n, model.dim)), wall=0.0)
        t = 3
        grads, loss_b, loss_c = engine._gradients_and_losses(cfg, state, t, b, a,
                                                             engine._Streams(cfg, 1, 4))
        want_grads = np.zeros_like(state.primal)
        want_b, want_c = np.zeros(n), np.zeros(n)
        for i in range(n):
            if b[i] + a[i] == 0:
                continue
            lanes = functools.partial(seeding.substream, model.seed, seeding.SAMPLES, i, t)
            x, y = oracle_draw(model, lanes, int(b[i] + a[i]))
            w = state.primal[i]
            losses = oracle_loss_batch(model, w, x, y)
            want_b[i] = float(np.sum(losses[: b[i]]))
            want_c[i] = float(np.sum(losses))
            if b[i] > 0:
                want_grads[i] = oracle_grad_mean(model, w, x[: b[i]], y[: b[i]])
        assert grads.tobytes() == want_grads.tobytes()
        assert loss_b.tobytes() == want_b.tobytes()
        assert not grads[[1, 3, 7, 11, 12]].any() and not loss_b[[1, 3, 7, 11, 12]].any()
        if model.optimum_value is None:
            assert np.isnan(loss_c).all()
        else:
            assert loss_c.tobytes() == want_c.tobytes()
            assert not loss_c[[3, 7]].any()

    @pytest.mark.parametrize("model", [
        objectives.make_linear_regression(6, 1e-2, seed=3),
        objectives.make_logistic_regression(3, 4, seed=5),
    ], ids=["linear", "softmax"])
    def test_extra_capacity_rows_are_drawn_only_with_a_known_optimum(self, model,
                                                                     monkeypatch):
        drawn = []
        draw_rows = model.draw_rows

        def spy(counts, lanes):
            drawn.extend(counts)
            return draw_rows(counts, lanes)

        monkeypatch.setattr(model, "draw_rows", spy)
        trace = engine.run(small_config(objective=model, tau=4))
        assert all(r.extra_capacity.any() for r in trace.records)
        if model.optimum_value is None:
            rows = [r.batch_sizes for r in trace.records]
            assert all(np.isnan(r.loss_sum_potential).all() for r in trace.records)
        else:
            rows = [r.batch_sizes + r.extra_capacity for r in trace.records]
        assert drawn == [count for r in rows for count in r.tolist() if count]


class TestWallClock:
    def test_amb_wall_clock_is_exact(self):
        cfg = small_config(tau=50)
        trace = engine.run(cfg)
        assert trace.wall[-1] == 50 * (cfg.compute_time + cfg.comm_time)
        for k, record in enumerate(trace.records, start=1):
            assert record.wall_end == k * (cfg.compute_time + cfg.comm_time)

    def test_fmb_wall_clock_accumulates_maxima(self):
        cfg = small_config(mode="fmb", compute_time=None, batch=600, tau=8)
        trace = engine.run(cfg)
        expected = 0.0
        for t, record in enumerate(trace.records, start=1):
            draws = [cfg.timing.batch_time(i, t, cfg.seed) for i in range(10)]
            expected += max(draws) + cfg.comm_time
            assert record.compute_duration == pytest.approx(max(draws), abs=1e-12)
        assert trace.wall[-1] == pytest.approx(expected, abs=1e-9)

    def test_fmb_uneven_batch_durations(self):
        cfg = small_config(mode="fmb", compute_time=None, batch=7,
                           graph=topology.complete_graph(3),
                           timing=timing.DeterministicTiming(period=3.0, reference_batch=7),
                           tau=1)
        trace = engine.run(cfg)
        record = trace.records[0]
        assert list(record.batch_sizes) == [3, 2, 2]
        assert record.compute_duration == pytest.approx(3 * 3.0 / 7)


class TestEmptyBatch:
    def test_flagged_and_dual_carried(self):
        cfg = small_config(
            timing=timing.DeterministicTiming(period=10.0, reference_batch=1),
            compute_time=3.0,
            tau=2,
        )
        trace = engine.run(cfg)
        assert all(r.empty_batch for r in trace.records)
        assert all(r.global_batch == 0 for r in trace.records)
        # duals started at zero and no gradients were taken, so they stay zero
        assert np.abs(trace.records[-1].primal_after).max() == 0.0


class TestSerialEquivalence:
    def test_serial_mode_equals_single_node_run(self):
        model = objectives.make_linear_regression(5, 1e-2, seed=4)
        shared = dict(
            objective=model,
            timing=timing.ShiftedExponential(rate=1.0, shift=0.5, reference_batch=10),
            schedule=dualavg.Schedule(offset=8.0, work_scale=50.0),
            comm_time=0.4, tau=10, radius=6.0, seed=9, compute_time=1.5,
            rounds="exact", exact_batch_norm=True,
        )
        serial = engine.run(engine.RunConfig(mode="serial", graph=topology.complete_graph(1), **shared))
        amb = engine.run(engine.RunConfig(mode="amb", graph=topology.complete_graph(1), **shared))
        for rs, ra in zip(serial.records, amb.records):
            assert np.array_equal(rs.primal_after, ra.primal_after)


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self):
        for overrides in (
            dict(rounds=("uniform", 2, 6)),
            dict(timing=timing.GroupedPauseTiming.default_groups(base_gradient_time=0.2),
                 compute_time=3.0),
        ):
            a = engine.run(small_config(tau=4, **overrides))
            b = engine.run(small_config(tau=4, **overrides))
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.primal_after, rb.primal_after)
                assert np.array_equal(ra.batch_sizes, rb.batch_sizes)
                assert np.array_equal(ra.batch_times, rb.batch_times)
                assert ra.consensus_error == rb.consensus_error

    def test_zero_epochs(self):
        trace = engine.run(small_config(tau=0))
        assert trace.tau == 0
        assert trace.records == []


class TestGroupedPauseIntegration:
    def test_amb_pauses_reduce_batches(self):
        pauses = timing.GroupedPauseTiming.default_groups(base_gradient_time=1.0)
        cfg = small_config(timing=pauses, compute_time=30.0, tau=2)
        trace = engine.run(cfg)
        record = trace.records[0]
        # group 0 nodes (~mean pause 5) finish about 30/6 gradients; group 4
        # nodes (~mean pause 55) rarely finish more than one.
        assert record.batch_sizes[0] >= record.batch_sizes[9]
        assert record.batch_sizes.max() <= 30

    def test_fmb_durations_include_pauses(self):
        pauses = timing.GroupedPauseTiming(group_means=(2.0,), group_vars=(0.0,),
                                           assignment=(0, 0), base_gradient_time=1.0)
        cfg = small_config(mode="fmb", compute_time=None, batch=6,
                           graph=topology.complete_graph(2), timing=pauses, tau=1)
        trace = engine.run(cfg)
        # 3 gradients of 1s with 2 pauses of 2s each.
        assert trace.records[0].compute_duration == pytest.approx(3.0 + 4.0)
