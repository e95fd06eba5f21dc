"""Every CSV of ``cli.run_experiment`` against a plain per-node reference engine.

A seeded generator writes small valid configs across modes, timing kinds,
round forms, batch normalizations, models, holdouts and paired runs. The
reference runs each one node by node from the oracles the other tests keep:
``oracle_draw`` for each node's samples, the row oracles for its losses and
mean gradient, the dense product ``(p[:, :, None] * v[None]).sum(axis=1)``
for a consensus round, a per-round loop in which each node reads its row
after its own count, and the primal map applied to one row at a time. It
writes its own CSV bytes, which must equal the program's bit for bit.

The reference shares with the program only what it does not check: config
resolution (``cli.build_run_config``), the timing models' per-node answers,
the mixing matrix, the schedule's ``beta`` and the speedup bound.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

from ambsim import cli, dualavg, engine, seeding, timing, topology
from test_objectives import oracle_draw, oracle_grad_mean, oracle_loss_batch, oracle_rows

MODES = ("amb", "fmb", "serial")
TIMINGS = ("shifted_exponential", "deterministic", "grouped_pause", "trace")
ROUNDS = ("int", "uniform", "exact")
MODELS = ("linear", "linear-noise-free", "softmax")
COUNT = 30


def make_config(k: int, rng: np.random.Generator, trace_path: str) -> tuple:
    """Config ``k`` as ``(command, payload)``. Each option cycles with a different period,
    so every value of every option appears among the first 12 configs."""
    mode = MODES[k % 3]
    kind = TIMINGS[k % 4]
    rounds = ROUNDS[(k // 3) % 3]
    model = MODELS[(k // 2) % 3]
    paired = mode != "serial" and k % 5 == 1
    # A slow node may finish no gradient in a window. On a ring with few
    # rounds, some nodes then hear from no one with work, and some epochs
    # have no batch at all.
    slow = k % 5 in (0, 2)
    topo = [{"kind": "testbed"}, {"kind": "complete", "n": int(rng.integers(2, 7))},
            {"kind": "ring", "n": int(rng.integers(6 if slow else 3, 13))}][
                2 if slow else int(rng.integers(3))]
    n = {"testbed": 10}.get(topo["kind"]) or topo["n"]
    if model == "softmax":
        objective = {"kind": "logistic_regression", "classes": int(rng.integers(2, 5)),
                     "dim": int(rng.integers(2, 7)), "seed": int(rng.integers(100))}
    else:
        # A slow run at dim 1 averages one-column duals in an epoch without a batch.
        objective = {"kind": "linear_regression", "dim": 1 if slow else int(rng.integers(1, 9)),
                     "noise_var": 0.0 if model == "linear-noise-free"
                     else float(rng.uniform(1e-3, 0.1)), "seed": int(rng.integers(100))}
    if kind == "shifted_exponential":
        tim = {"kind": kind, "rate": float(rng.uniform(0.3, 2.0)),
               "shift": float(rng.uniform(2.0, 4.0) if slow else rng.uniform(0.2, 1.5)),
               "reference_batch": 1 if slow else int(rng.integers(2, 12))}
    elif kind == "deterministic":
        tim = {"kind": kind, "period": 9.0 if slow else float(rng.uniform(0.3, 2.0)),
               "reference_batch": 1 if slow else int(rng.integers(2, 12))}
    elif kind == "grouped_pause":
        tim = {"kind": kind, "group_means": [float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 4))],
               "group_vars": [float(rng.uniform(0, 1)), float(rng.uniform(0, 2))],
               "assignment": [int(g) for g in rng.integers(0, 2, size=n)],
               "base_gradient_time": float(rng.uniform(0.2, 0.6))}
    else:
        tim = {"kind": kind, "path": trace_path,
               "reference_batch": 1 if slow else int(rng.integers(2, 12))}
    consensus = {"exact_batch_norm": bool(k % 2),
                 "rounds": {"int": 1 if slow else int(rng.integers(1, 6)), "exact": "exact",
                            "uniform": ["uniform", 1, 2] if slow else
                            ["uniform", int(rng.integers(1, 3)), int(rng.integers(3, 7))]}[rounds]}
    run = {"tau": int(rng.integers(2, 6)), "seed": int(rng.integers(1000)),
           "communication_time": float(rng.choice([0.0, rng.uniform(0.1, 1.5)])),
           "radius": "auto" if k % 4 == 3 else float(rng.uniform(2.0, 10.0)),
           "holdout": 0 if k % 7 in (2, 5) else int(rng.integers(5, 60))}
    if mode == "fmb" or paired or k % 6 == 0:
        # A slow fmb run gives node 0 the only sample.
        run["batch"] = 1 if slow and mode == "fmb" else int(rng.integers(1, 4 * n + 1))
    run["compute_time"] = "auto" if "batch" in run and k % 4 == 0 else float(rng.uniform(1.0, 3.5))
    schedule = {"offset": float(rng.uniform(1.0, 30.0)),
                "work_scale": "auto" if k % 3 == 2 else float(rng.uniform(5.0, 200.0))}
    payload = {"mode": mode, "objective": objective, "topology": topo, "consensus": consensus,
               "timing": tim, "schedule": schedule, "run": run,
               "output": {"repeats": int(rng.integers(1, 3))}}
    return ("compare" if paired else "run"), payload


def write_trace_table(path, rng):
    """A batch-time trace for 13 nodes (more than any generated graph), three epochs each.

    Every node takes 30 s in its third epoch, so an amb run finds no batch in
    epoch 3 after two epochs of work, and averages nonzero duals alone.
    """
    lines = ["node,epoch,batch_time_seconds"]
    for node in range(13):
        times = [rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0), 30.0]
        lines += [f"{node},{epoch},{time!r}" for epoch, time in enumerate(times, start=1)]
    path.write_text("\n".join(lines) + "\n")


def configs(tmp_path) -> list:
    rng = np.random.default_rng(20061575)
    trace = tmp_path / "batch_times.csv"
    write_trace_table(trace, rng)
    return [make_config(k, rng, str(trace)) for k in range(COUNT)]


def cell(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def csv_bytes(header: str, rows) -> bytes:
    return ("\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n").encode()


def dense_step(p, values):
    """One consensus round as the dense product; a lone column gets a copy beside it,
    because numpy adds a reduced axis pairwise when it is the innermost one."""
    wide = values if values.shape[1] > 1 else np.hstack([values, values])
    return (p[:, :, None] * wide[None]).sum(axis=1)[:, : values.shape[1]]


def consensus(p, messages, rounds, exact: bool):
    """Each node's row after its own number of rounds, one round at a time."""
    if exact:
        return np.tile(messages.mean(axis=0), (len(messages), 1))
    out = np.empty_like(messages)
    m = messages
    for k in range(1, int(rounds.max()) + 1):
        m = dense_step(p, m)
        done = rounds == k
        out[done] = m[done]
    return out


def node_pass(model, w, x, y, b: int):
    """A node's per-row losses and the mean gradient of its first ``b`` rows."""
    if model.kind == "linear_regression":
        grad = oracle_grad_mean(model, w, x[:b], y[:b]) if b else np.zeros(model.dim)
        return oracle_loss_batch(model, w, x, y), grad
    losses, rows = oracle_rows(model, w, x, y, b)
    return losses, rows.reshape(b, model.dim).sum(axis=0) / max(b, 1)


def reference_run(config):
    """Per-epoch rows ``(wall, b, a, T, rounds, compute, error, primal, loss_c)``."""
    n, model = config.graph.n, config.objective
    p = topology.build_consensus_matrix(config.graph, config.scheme).matrix
    primal, dual, wall = np.zeros((n, model.dim)), np.zeros((n, model.dim)), 0.0
    potential = model.optimum_value is not None
    epochs = []
    for t in range(1, config.tau + 1):
        rngs = [None if config.timing.stream is None
                else seeding.substream(config.seed, config.timing.stream, i, t) for i in range(n)]
        if config.mode == "fmb":
            b = np.array([config.batch // n + (i < config.batch % n) for i in range(n)])
            durations, a, times = config.timing.batch_epoch(t, rngs, b, config.comm_time)
            compute = float(durations.max())
            wall = wall + compute + config.comm_time
        else:
            b, a, times = config.timing.window_epoch(t, rngs, config.compute_time,
                                                     config.comm_time)
            compute, wall = config.compute_time, t * (config.compute_time + config.comm_time)
        # Without a known optimum only the batch rows are drawn, and no regret is kept.
        grads, loss_c = np.zeros((n, model.dim)), np.zeros(n)
        for i in range(n):
            count = int(b[i] + a[i]) if potential else int(b[i])
            if count:
                lanes = functools.partial(seeding.substream, model.seed, seeding.SAMPLES, i, t)
                x, y = oracle_draw(model, lanes, count)
                losses, grads[i] = node_pass(model, primal[i], x, y, int(b[i]))
                loss_c[i] = float(np.sum(losses))
        if config.rounds == "exact":
            rounds = np.zeros(n, dtype=int)
        elif isinstance(config.rounds, int):
            rounds = np.full(n, config.rounds)
        else:
            _, low, high = config.rounds
            rounds = seeding.substream(config.seed, seeding.ROUNDS, t).integers(low, high + 1,
                                                                                size=n)
        exact_rounds = config.rounds == "exact"
        total = int(b.sum())
        if total == 0:
            z = consensus(p, dual, rounds, exact_rounds)
            target = dual.mean(axis=0)
        else:
            summands = dual + grads
            messages = np.zeros((n, model.dim + 1))
            for i in range(n):
                if b[i]:
                    messages[i] = (n * b[i]) * np.append(summands[i], 1.0)
            out = consensus(p, messages, rounds, exact_rounds)
            target = (b[:, None] * summands).sum(axis=0) / total
            z = np.empty_like(dual)
            for i in range(n):
                if config.exact_batch_norm:
                    z[i] = out[i, :-1] / total
                else:
                    z[i] = dual[i] if out[i, -1] <= 0.0 else out[i, :-1] / out[i, -1]
        beta = dualavg.beta(config.schedule, t + 1)
        primal = np.array([dualavg.primal_update(row, beta, config.radius) for row in z])
        dual = z
        error = float(np.linalg.norm(z - target, axis=1).max())
        epochs.append((wall, b, a, times, rounds, compute, error, primal, loss_c))
    return epochs


def reference_files(config, holdout, seed: int, mode: str, files: dict) -> tuple:
    """Write one run's trace and node CSVs into ``files``; return its summary row and series."""
    model = config.objective
    epochs = reference_run(config)
    walls = [0.0] + [e[0] for e in epochs]
    gaps = [math.nan] * len(walls)
    if holdout is not None:
        hx, hy = holdout

        def score(w):
            return float(np.mean(oracle_loss_batch(model, w, hx, hy)))

        values = [score(np.zeros(model.dim))] + [score(e[7].mean(axis=0)) for e in epochs]
        w_star = getattr(model, "w_star", None)
        best = min(values) if w_star is None else score(w_star)
        gaps = [v - best for v in values]
    regret = [math.nan] * len(walls)
    if model.optimum_value is not None:
        regret, loss, count = [0.0], 0.0, 0
        for e in epochs:
            loss, count = loss + float(np.sum(e[8])), count + int((e[1] + e[2]).sum())
            regret.append(loss - count * model.optimum_value)
    files[f"{mode}_seed{seed}.csv"] = csv_bytes(cli.TRACE_HEADER, (
        (t, walls[t], int(e[1].sum()), int((e[1] + e[2]).sum()), int(e[4].max()), e[6],
         gaps[t], regret[t]) for t, e in enumerate(epochs, start=1)))
    files[f"{mode}_seed{seed}_nodes.csv"] = csv_bytes(cli.NODES_HEADER, (
        (t, i, int(e[1][i]), int(e[2][i]), int(e[1][i] + e[2][i]), int(e[4][i]), float(e[3][i]))
        for t, e in enumerate(epochs, start=1) for i in range(config.graph.n)))
    lam = topology.build_consensus_matrix(config.graph, config.scheme).lambda2
    summary = (seed, mode, config.tau, config.graph.n, lam, walls[-1],
               sum(int(e[1].sum()) for e in epochs), sum(int((e[1] + e[2]).sum()) for e in epochs),
               gaps[-1], regret[-1])
    return summary, epochs, walls, gaps


def reference_experiment(command: str, spec) -> dict:
    modes = ("amb", "fmb") if command == "compare" else (spec.mode,)
    count = spec.run["holdout"]
    files, summary, compare = {}, [], []
    for seed in range(spec.run["seed"], spec.run["seed"] + spec.output["repeats"]):
        runs = {}
        for mode in modes:
            config = cli.build_run_config(spec, seed, mode)
            model = config.objective
            holdout = (oracle_draw(model, functools.partial(seeding.substream, model.seed,
                                                            seeding.HOLDOUT), count)
                       if count else None)
            row, *runs[mode] = reference_files(config, holdout, seed, mode, files)
            summary.append(row)
        if command == "compare":
            (amb, wall_a, gap_a), (fmb, wall_f, gap_f) = runs["amb"], runs["fmb"]
            s_a, s_f = (float(np.cumsum([e[5] for e in run])[-1]) for run in (amb, fmb))
            config = cli.build_run_config(spec, seed, "fmb")
            mu, sigma = config.timing.completion_stats(fmb[0][1])
            cross = next((w for w, g in zip(wall_a, gap_a) if g <= gap_f[-1]), math.nan)
            compare.append((seed, s_a, s_f, s_f / s_a, timing.speedup_bound(config.graph.n, mu, sigma),
                            wall_a[-1], wall_f[-1], gap_a[-1], gap_f[-1], cross))
    files["summary.csv"] = csv_bytes(cli.SUMMARY_HEADER, summary)
    if command == "compare":
        files["compare.csv"] = csv_bytes(cli.COMPARE_HEADER, compare)
    return files


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("AMB_SEED", raising=False)


def test_generator_covers_every_option_and_edge(tmp_path):
    # What the runs meet, after config resolution (serial mode forces exact rounds).
    seen = set()
    for k, (command, payload) in enumerate(configs(tmp_path)):
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        for mode in ("amb", "fmb") if command == "compare" else (spec.mode,):
            config = cli.build_run_config(spec, spec.run["seed"], mode)
            model = config.objective
            rounds = config.rounds if isinstance(config.rounds, str) else type(config.rounds)
            seen |= {mode, command, spec.timing["kind"], rounds, config.exact_batch_norm,
                     (model.kind, getattr(model, "noise_var", None) == 0.0),
                     ("holdout", spec.run["holdout"] > 0)}
            records = engine.run(config).records
            seen |= {"no batch" for r in records if r.empty_batch}
            seen |= {"unheard node" for r in records if r.degenerate_nodes}
            seen |= {"one column" for r in records if r.empty_batch and model.dim == 1}
    assert seen >= {*MODES, *TIMINGS, "run", "compare", int, tuple, "exact", True, False,
                    ("linear_regression", True), ("linear_regression", False),
                    ("logistic_regression", False), ("holdout", True), ("holdout", False),
                    "no batch", "unheard node", "one column"}


@pytest.mark.parametrize("k", range(COUNT))
def test_every_csv_matches_the_per_node_reference(k, tmp_path):
    command, payload = configs(tmp_path)[k]
    outdir = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "output": {**payload["output"],
                                                       "directory": str(outdir)}}))
    assert cli.main([command, str(path)]) == 0
    got = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    want = reference_experiment(command, cli.parse_config(path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
