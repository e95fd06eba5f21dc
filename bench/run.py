"""Benchmark for ambsim: host time per experiment, end to end and layer by layer.

Usage, from the repository root::

    python3 bench/run.py --workload paused_pair --seed 1 --seconds 40 --trace 0

The workload seed makes the experiment config (see ``workloads.py``). One
closed-loop client, this process, runs one ``cli.run_experiment`` after
another for ``--seconds`` seconds, with BLAS/OpenMP threads capped at the
number of usable cores. Each run's output files must match the first run's
byte for byte and pass the workload's checks.

``--trace 0`` alternates set-up and untraced experiments, after one
untimed warm-up experiment.
``--trace 1`` alternates untraced experiments with traced ones (set-up plus
experiment under ``ambtrace.Tracer``) and reports per-layer metrics, plus
the tracing overhead relative to the untraced experiments.

Every metric is printed with its unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full results, with host facts, run samples, output
hashes and checks, go to ``bench/out/<workload>-seed<n>-trace<t>/results.json``.
The exit status is 1 if any check fails and 2 if ambsim's sources are not
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import ambtrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "seeding.substream_calls": "count", "seeding.substream_s": "s",
    "timing.calls": "count", "timing.pause_draws": "count", "timing.self_s": "s",
    "objectives.samples_drawn": "count", "objectives.draw_s": "s",
    "objectives.grad_rows": "count", "objectives.grad_s": "s",
    "objectives.useful_sample_frac": "ratio",
    "objectives.loss_rows": "count", "objectives.loss_s": "s",
    "metrics.holdout_loss_s": "s", "metrics.build_trace_s": "s", "metrics.self_s": "s",
    "engine.epochs": "count", "engine.epoch_ms_p50": "ms", "engine.epoch_ms_p90": "ms",
    "engine.self_s": "s",
    "dualavg.primal_calls": "count", "dualavg.primal_s": "s",
    "topology.build_s": "s", "topology.lambda2_s": "s",
    "cli.parse_s": "s", "cli.build_run_config_s": "s", "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def cap_threads() -> tuple:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc, before


def load_ambsim() -> SimpleNamespace:
    """Import ambsim from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ambsim" / "__init__.py").is_file():
        print(f"error: no ambsim sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import ambsim
    from ambsim import cli, dualavg, engine, metrics, objectives, seeding, timing, topology
    if Path(ambsim.__file__).resolve().parent != src / "ambsim":
        print(f"error: imported ambsim from {ambsim.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(cli=cli, dualavg=dualavg, engine=engine, metrics=metrics,
                           objectives=objectives, seeding=seeding, timing=timing,
                           topology=topology)


def git_commit():
    """The checkout's commit, read from ``.git`` without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(np, nproc: int, threads_before: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": nproc,
        "thread_env_before": threads_before,
        "thread_env_applied": {var: os.environ[var] for var in THREAD_VARS},
        "thread_cap": nproc,
        "git_commit": git_commit(),
    }


def read_outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def outputs_sha256(files: dict) -> str:
    digest = hashlib.sha256()
    for name, data in sorted(files.items()):
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


class Bench:
    """One workload's config, its reference outputs, and every run's outcome."""

    def __init__(self, m, workload, seed: int, workdir: Path):
        self.m = m
        self.workload = workload
        self.outdir = workdir / "outputs"
        self.config = workloads.make_config(workload, seed, str(self.outdir))
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.spec = m.cli.parse_config(self.config_path)
        self.reference = None
        self.reference_problems = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self) -> float:
        """parse_config, build_run_config and the first run's consensus matrix."""
        m = self.m
        start = time.perf_counter()
        spec = m.cli.parse_config(self.config_path)
        config = m.cli.build_run_config(spec, spec.run["seed"])
        m.topology.build_consensus_matrix(config.graph, config.scheme)
        return time.perf_counter() - start

    def experiment(self):
        """Run one experiment and check its outputs; return its host seconds, or None if it raised."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.m.cli.run_experiment(self.spec)
        except Exception:  # a failed run is counted, and the loop keeps measuring
            self.failed += 1
            self.problems.append(f"run {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        files = read_outputs(self.outdir)
        problems = []
        if self.reference is None:
            self.reference = files
            try:
                self.reference_problems = self.workload.check(self.config, files)
            except (KeyError, ValueError) as exc:  # a missing file or a malformed field
                self.reference_problems = [f"outputs unreadable: {exc!r}"]
        elif files != self.reference:
            changed = sorted(set(files) ^ set(self.reference)
                             | {k for k in files if files[k] != self.reference.get(k)})
            problems.append(f"run {self.attempted} differs from the first run in {changed}")
        problems += self.reference_problems
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]
        return elapsed

    def results(self) -> dict:
        files = self.reference or {}
        result = {
            "outputs_sha256": outputs_sha256(files) if files else None,
            "output_files": {k: hashlib.sha256(v).hexdigest() for k, v in files.items()},
            "checks_passed": not self.problems,
            "problems": self.problems,
        }
        if "compare.csv" in files:
            # Not gated: whether the fixed-window run ever reaches the fixed-batch
            # final gap depends on the objective seed.
            ratios = workloads.crossing_ratios(files)
            result["crossing_ratio_by_seed"] = {s: None if math.isnan(r) else r
                                                for s, r in ratios.items()}
        return result


def tail(samples: list):
    """The highest percentile with at least ten samples beyond it, as (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_untraced(bench: Bench, seconds: float) -> tuple:
    """Alternate set-up and experiment for about ``seconds``, after one warm-up experiment.

    Host speed on a shared VM switches between states that last seconds to
    minutes, and per-experiment times form a mixture of them. Spreading the
    set-ups over the whole run exposes them to the same states as the
    experiments. ``run_s`` is the mean, total experiment time over count:
    the median of such a mixture jumps between states from run to run.
    """
    start = time.perf_counter()
    bench.experiment()  # makes the reference outputs; not timed
    setups, runs = [], []
    iteration_s = 0.0
    # Stop when the next set-up and experiment would likely end past ``seconds``.
    while (time.perf_counter() - start + iteration_s < seconds
           or bench.attempted <= MIN_RUNS):
        began = time.perf_counter()
        setups.append(bench.setup())
        elapsed = bench.experiment()
        if elapsed is not None:
            runs.append(elapsed)
        iteration_s = time.perf_counter() - began
    if not runs:
        return None, {}
    run_s = statistics.mean(runs)
    processed = workloads.processed_samples(bench.reference)
    tail_s, tail_pct = tail(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "samples_per_s": processed / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_samples_s": setups, "run_samples_s": runs, "run_count": len(runs),
              "run_s_median": statistics.median(runs),
              "run_s_tail": tail_s, "run_s_tail_percentile": tail_pct,
              "processed_samples_per_run": processed}
    return metrics, detail


def traced_iteration(bench: Bench):
    """Set-up plus one experiment under a fresh tracer; every wrapper is removed after."""
    tracer = ambtrace.Tracer()
    tracer.install(ambtrace.wrap_points(bench.m))
    try:
        bench.setup()
        elapsed = bench.experiment()
    finally:
        tracer.restore()
    return elapsed, tracer


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> tuple:
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    iteration_s = 0.0
    while (time.perf_counter() - start + iteration_s < seconds
           or bench.attempted < 2 * MIN_TRACED_RUNS):
        began = time.perf_counter()
        elapsed = bench.experiment()
        if elapsed is not None:
            plain.append(elapsed)
        elapsed, tracer = traced_iteration(bench)
        iteration_s = time.perf_counter() - began
        if elapsed is None:
            continue
        traced.append(elapsed)
        layers.append(ambtrace.layer_metrics(tracer.spans, tracer.counts))
        if len(layers) == 1:
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write("name,start,end,parent\n")
                for name, s, e, parent in tracer.spans:
                    fh.write(f"{name},{s!r},{e!r},{parent}\n")
            counts = dict(tracer.counts)
    if not plain or not layers:
        return None, {}
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # Counts repeat exactly from run to run; keep them whole numbers.
        middle = statistics.median_low if isinstance(values[0], int) else statistics.median
        metrics[name] = middle(values)
    metrics["cli.csv_bytes"] = sum(len(v) for v in bench.reference.values())
    metrics["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(plain) - 1.0
    detail = {"untraced_run_samples_s": plain, "traced_run_samples_s": traced,
              "traced_count": len(traced), "first_traced_counts": counts,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, threads_before = cap_threads()
    os.environ.pop("AMB_SEED", None)  # the workload seed alone picks the run seeds
    m = load_ambsim()
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(m, workload, args.seed, workdir)
    if args.trace:
        metrics, detail = measure_traced(bench, args.seconds, workdir / "spans.csv")
        units = PER_LAYER_UNITS
    else:
        metrics, detail = measure_untraced(bench, args.seconds)
        units = END_TO_END_UNITS

    checks = bench.results()
    results = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client: one experiment after another in this process",
        "host": host_facts(np, nproc, threads_before),
        "config": bench.config,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
        **detail,
        **checks,
    }
    (workdir / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    shutil.rmtree(bench.outdir, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no experiment completed", file=sys.stderr)
        return 1
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        count = detail["run_count"]
        print(f"  run_s median {detail['run_s_median']:.6g} s over {count} runs")
        if detail["run_s_tail"] is None:
            print("  run_s tail: fewer than 11 runs, no percentile has ten beyond it")
        else:
            print(f"  run_s p{detail['run_s_tail_percentile']:.0f} {detail['run_s_tail']:.6g} s")
    print(f"  {'failed_frac':32s} {results['failed_frac']:.6g} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    print(f"  results: {(workdir / 'results.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": results["metrics"],
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
