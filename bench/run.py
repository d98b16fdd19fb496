#!/usr/bin/env python3
"""Run one tppat benchmark workload and print its metrics.

    python3 bench/run.py --workload lsq_pair --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --write-spec

A run repeats one unit, a ``prepare_data`` setup followed by one sweep
through ``run_experiment``, until ``--seconds`` have passed, then sets up
again until it has ``SETUP_REPS`` setup samples covering ``SETUP_MIN_S``.
Every job passes a correctness gate; the error tables of all sweeps, and of
earlier runs of the same code and config, must be byte-identical.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every layer
in ``tracer.LAYERS`` and prints the per-layer metrics, plus the tracing
overhead when an untraced run of the same seed is on record. The last line of
standard output is the JSON result. Records, spans and output files go to
``.bench_out/`` in the repository root. ``--write-spec`` regenerates
``BENCHMARK.json`` from the tables below. ``--workload all`` runs every
workload in turn, each in a process of its own so that peak memory is its own.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy loads
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 10
SETUP_REPS = 3
SETUP_MIN_S = 1.0      # cheap setups are repeated until their median is steady

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("error_pct.sigma", "%", "lower", 0.15),
    ("error_pct.mu", "%", "lower", 0.15),
)


def _per_layer():
    from tracer import LAYERS
    metrics = []
    for layer in LAYERS:
        metrics += [(f"{layer}.calls", "count", "lower"),
                    (f"{layer}.s", "s", "lower"),
                    (f"{layer}.self_s", "s", "lower")]
    return metrics + [
        ("forward.newton_steps", "count", "lower"),
        ("forward.zero_step_ratio", "ratio", "lower"),
        ("lsq.bfgs_iterations", "count", "lower"),
        ("lsq.line_search_trials", "count", "lower"),
        ("lsq.trials_per_iteration", "ratio", "lower"),
        ("lsq.unconverged_ratio", "ratio", "lower"),
        ("direct.flagged_nodes", "count", "lower"),
        ("transfer.target_nodes", "count", "lower"),
        ("transfer.relocate_ratio", "ratio", "lower"),
        ("experiments.concurrency", "ratio", "higher"),
    ]


def write_spec(path: Path) -> None:
    from workloads import WORKLOADS
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in _per_layer()],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def import_package():
    """Import tppat from this checkout's src/, never from anywhere else."""
    if not (SRC / "tppat" / "__init__.py").is_file():
        sys.exit(f"bench: no tppat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tppat
    if Path(tppat.__file__).resolve().parent != (SRC / "tppat").resolve():
        sys.exit(f"bench: imported tppat from {tppat.__file__}, not from {SRC}")


@dataclass
class Run:
    """What one benchmark run measured."""

    tracer: object
    probe: object
    jobs_per_sweep: int
    attempted: int = 0
    failed: int = 0
    completed: int = 0                              # sweeps that returned
    rows: list = field(default_factory=list)        # (coefficient, eps, seed, error)
    tables: list = field(default_factory=list)      # errors.csv bytes per sweep
    problems: list = field(default_factory=list)
    table_sha256: str | None = None


def gate_failures(rows, bound: dict, jobs: int) -> int:
    """Jobs whose errors are not finite or, at epsilon 0, exceed the bound."""
    bad, seen = set(), set()
    for coeff, eps, seed, err in rows:
        seen.add((eps, seed))
        if not math.isfinite(err) or (eps == 0.0 and err > bound[coeff]):
            bad.add((eps, seed))
    return len(bad) + max(0, jobs - len(seen))


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    from tppat import experiments
    from speed import SpeedProbe
    from tracer import JOB_LAYERS, LAYERS, Tracer

    cfg = workload.config(seed)
    jobs = 1 + (len(cfg.noise_levels) - 1) * len(cfg.seeds)
    out = workdir / ("output" if workload.write_outputs else "tables")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    affinity = os.sched_getaffinity(0)
    # a serial run stays on one CPU, beside the probe that rescales its times;
    # the threaded run keeps raw wall times, which the probes tracked worse
    probed = {min(affinity)} if workload.threads == 1 else set()
    if probed:
        os.sched_setaffinity(0, probed)
    try:
        run = Run(tracer=Tracer(LAYERS if trace else JOB_LAYERS),
                  probe=SpeedProbe(probed), jobs_per_sweep=jobs)
        try:
            _sweeps(run, workload, cfg, seconds, out, experiments)
        finally:
            run.probe.stop()
    finally:
        os.sched_setaffinity(0, affinity)
    return run


def _sweeps(run: Run, workload, cfg, seconds: float, out: Path, experiments) -> None:
    tracer = run.tracer
    jobs = run.jobs_per_sweep

    def setup():
        with tracer.phase("setup"):
            return experiments.prepare_data(cfg, threads=workload.threads)

    with tracer.installed():
        start = perf_counter()
        while True:
            bundle = setup()
            run.attempted += jobs
            try:
                with tracer.phase("sweep"):
                    table = experiments.run_experiment(
                        workload.experiment, cfg,
                        output_dir=out if workload.write_outputs else None,
                        threads=workload.threads, bundle=bundle)
            except Exception:              # report the failed sweep, stop the run
                run.failed += jobs
                run.problems.append(traceback.format_exc())
                break
            run.completed += 1
            run.rows += table.rows
            run.failed += gate_failures(table.rows, workload.eps0_bound, jobs)
            if not workload.write_outputs:
                table.save(out)
            run.tables.append((out / "errors.csv").read_bytes())
            if perf_counter() - start >= seconds:
                break
        while (len(tracer.phases("setup")) < SETUP_REPS
               or sum(s.seconds for s in tracer.phases("setup")) < SETUP_MIN_S):
            setup()


def end_to_end(run: Run, raw: bool = False) -> dict:
    """End-to-end metrics; times in reference seconds unless ``raw``."""
    def seconds(span):
        return span.seconds if raw else run.probe.normalize(span.start, span.end)

    tracer = run.tracer
    setups = [seconds(s) for s in tracer.phases("setup")]
    sweeps = [seconds(s) for s in tracer.phases("sweep")][:run.completed]
    jobs = tracer.jobs(seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": _ratio(run.jobs_per_sweep * run.completed, sum(sweeps)),
        "job_s.p50": statistics.median(jobs) if jobs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for coeff in ("sigma", "mu"):
        errs = [err for c, _, _, err in run.rows if c == coeff]
        metrics[f"error_pct.{coeff}"] = sum(errs) / len(errs) if errs else 0.0
    return metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _concurrency(tracer) -> float:
    """Job seconds per sweep second: above 1 when jobs overlap."""
    return _ratio(sum(tracer.jobs()), sum(s.seconds for s in tracer.phases("sweep")))


def per_layer(run: Run) -> dict:
    from tracer import LAYERS
    tracer = run.tracer
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        for key in ("calls", "s", "self_s"):
            metrics[f"{layer}.{key}"] = totals[layer][key]
    newton = totals["forward.solve_semilinear"]
    lsq = totals["lsq.run_lsq"]
    trials = (totals["lsq.Evaluator.forward_states"]["calls"]
              - totals["lsq.Evaluator.gradient"]["calls"])
    located = sum(s.counts.get("transfer.target_nodes", 0) for s in tracer.spans)
    distinct = sum(t.node_count for _, t in tracer.mesh_pairs.values())
    metrics.update({
        "forward.newton_steps": newton["forward.newton_steps"],
        "forward.zero_step_ratio": _ratio(newton["forward.zero_step_solves"],
                                          newton["calls"]),
        "lsq.bfgs_iterations": lsq["lsq.bfgs_iterations"],
        "lsq.line_search_trials": trials,
        "lsq.trials_per_iteration": _ratio(trials, lsq["lsq.bfgs_iterations"]),
        "lsq.unconverged_ratio": _ratio(lsq["lsq.unconverged"], lsq["calls"]),
        "direct.flagged_nodes": totals["direct.fit_pair_pointwise"]["direct.flagged_nodes"],
        "transfer.target_nodes": totals["transfer.transfer_field"]["transfer.target_nodes"],
        "transfer.relocate_ratio": _ratio(located, distinct),
        "experiments.concurrency": _concurrency(tracer),
    })
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tppat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_determinism(run: Run, key: str, results: Path) -> str:
    """Same code and config must give byte-identical error tables."""
    digests = {hashlib.sha256(t).hexdigest() for t in run.tables}
    if len(digests) > 1:
        return "error tables differ between sweeps of this run"
    if not digests:
        return ""
    digest = digests.pop()
    for path in sorted(results.glob("*.json")):
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier.get("key") == key and earlier.get("table_sha256") not in (None, digest):
            return f"error table differs from the earlier run in {path.name}"
    run.table_sha256 = digest
    return ""


def print_human(workload, run: Run, e2e: dict, raw: dict, layers: dict | None,
                overhead: dict | None, env: dict) -> None:
    print(f"# workload {workload.name}: experiment {workload.experiment}, "
          f"n={workload.mesh_n}, data_n={workload.data_mesh_n}, "
          f"threads={workload.threads}, outputs={workload.write_outputs}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {run.completed} sweep(s) of {run.jobs_per_sweep} jobs, "
          f"{len(run.tracer.phases('setup'))} setups; times in reference seconds, "
          f"raw wall in the last column")
    units = dict((n, u) for n, u, _, _ in END_TO_END)
    for name, value in e2e.items():
        note = f"  (median of {len(run.tracer.jobs())} jobs)" if name == "job_s.p50" else ""
        print(f"{name:<22} {value:>14.6g} {units[name]:<4} {raw[name]:>14.6g}{note}")
    print(f"{'failed_ratio':<22} {_ratio(run.failed, run.attempted):>14.6g} "
          f"({run.failed}/{run.attempted})")
    print(f"{'concurrency':<22} {_concurrency(run.tracer):>14.6g} job s per sweep s")
    for problem in run.problems:
        print("# problem: " + problem.strip().replace("\n", "\n#   "))
    if layers is None:
        return
    unit_s = raw["setup_s"] + _ratio(run.jobs_per_sweep, raw["jobs_per_s"])
    print(f"# per-layer wall seconds per run unit (one setup + one sweep = {unit_s:.4g} s)")
    print(f"{'layer':<42} {'calls':>9} {'s':>10} {'self_s':>10} {'share':>7}")
    from tracer import LAYERS
    for layer in LAYERS:
        s = layers[f"{layer}.s"]
        print(f"{layer:<42} {layers[f'{layer}.calls']:>9.6g} {s:>10.4g} "
              f"{layers[f'{layer}.self_s']:>10.4g} {100 * _ratio(s, unit_s):>6.1f}%")
    for name, value in layers.items():
        if not name.endswith((".calls", ".s", ".self_s")):
            print(f"{name:<42} {value:>9.6g}")
    if overhead:
        print("# tracing overhead (traced - untraced, same seed)")
        for name, diff in overhead.items():
            print(f"{name:<22} {diff:>+14.6g} {units[name]}")
    else:
        print("# tracing overhead: no untraced record of this seed and code")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.write_spec:
        write_spec(ROOT / "BENCHMARK.json")
        return 0
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    tag = f"{workload.name}-seed{args.seed}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    run = measure(workload, args.seed, args.seconds, bool(args.trace), OUT / tag)
    e2e = end_to_end(run)
    raw = end_to_end(run, raw=True)
    env = environment(args.seed)
    digest = source_digest()
    key = hashlib.sha256("\0".join([digest, workload.experiment,
                                    workload.config(args.seed).canonical_text()])
                         .encode()).hexdigest()
    problem = check_determinism(run, key, results)
    if problem:
        run.problems.append(problem)

    layers = overhead = None
    if args.trace:
        layers = per_layer(run)
        run.tracer.write(OUT / f"spans-{tag}.jsonl")
        untraced = results / f"{tag}-trace0.json"
        if untraced.is_file():
            record = json.loads(untraced.read_text(encoding="utf-8"))
            if record["source_sha256"] == digest:
                overhead = {n: e2e[n] - record["end_to_end"][n] for n in e2e}
    (results / f"{tag}-trace{args.trace}.json").write_text(json.dumps({
        "env": env, "workload": workload.name, "trace": args.trace,
        "source_sha256": digest, "key": key, "table_sha256": run.table_sha256,
        "attempted": run.attempted, "failed": run.failed,
        "end_to_end": e2e, "end_to_end_raw_wall": raw, "per_layer": layers,
        "tracing_overhead": overhead, "probe_samples": len(run.probe.samples),
    }, indent=1) + "\n", encoding="utf-8")

    print_human(workload, run, e2e, raw, layers, overhead, env)
    units = {n: u for n, u, _, _ in END_TO_END}
    units.update((n, u) for n, u, _ in _per_layer())
    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
