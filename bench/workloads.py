"""The benchmark's workloads: experiment sweeps as the CLI runs them.

Each workload is a fixed recipe; the benchmark seed only draws the noise
seeds of its (epsilon, seed) job list, so the package receives nothing but an
ordinary ``ExperimentConfig``. Why each workload exists is in ``why`` and in
README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tppat.config import ExperimentConfig, default_config

NOISE_LEVELS = (0.0, 1.0, 2.0, 5.0)

# Noiseless error bounds (percent) of the correctness gate, from the test
# suite: acceptance criterion 1 (direct), criterion 2 (3 x LSQ_EPS0_REF) and
# test_crime_free_reconstruction_stays_accurate.
DIRECT_EPS0_BOUND = {"sigma": 0.5, "mu": 0.5}
LSQ_EPS0_BOUND = {"sigma": 3 * 0.22, "mu": 3 * 2.38}
CRIME_GUARD_EPS0_BOUND = {"sigma": 3.0, "mu": 3.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str            # "III" direct pair, "IV" least-squares pair
    mesh_n: int
    data_mesh_n: int | None    # set: data on another mesh (inversion-crime guard)
    threads: int
    write_outputs: bool
    noise_seeds: int           # noise seeds per sweep; jobs = 1 + 3 * noise_seeds
    eps0_bound: dict

    def config(self, seed: int) -> ExperimentConfig:
        """The experiment config of one run; ``seed`` draws the noise seeds."""
        cfg = default_config()
        cfg.mesh_n = self.mesh_n
        cfg.data_mesh_n = self.data_mesh_n
        cfg.noise_levels = list(NOISE_LEVELS)
        # independent of the workload name, so that lsq_pair and
        # lsq_pair_threads2 run the same jobs for one seed
        cfg.seeds = random.Random(seed).sample(range(1, 2**31), self.noise_seeds)
        return cfg.validate()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lsq_pair",
        why="experiment IV at n=32, serial, eps 0/1/2/5: the CLI default "
            "least-squares path, time in Newton, adjoint and linear solves",
        experiment="IV", mesh_n=32, data_mesh_n=None, threads=1,
        write_outputs=False, noise_seeds=1, eps0_bound=LSQ_EPS0_BOUND),
    Workload(
        name="lsq_pair_threads2",
        why="the lsq_pair jobs through run_experiment(threads=2): the only "
            "workload on the job pool, as in the criterion-6 sweep",
        experiment="IV", mesh_n=32, data_mesh_n=None, threads=2,
        write_outputs=False, noise_seeds=1, eps0_bound=LSQ_EPS0_BOUND),
    Workload(
        name="direct_pair_n128",
        why="experiment III at n=128 writing the output tree: cold large "
            "solves, per-job assembly, error metric, CSV; no LSQ, no transfer",
        experiment="III", mesh_n=128, data_mesh_n=None, threads=1,
        write_outputs=True, noise_seeds=3, eps0_bound=DIRECT_EPS0_BOUND),
    Workload(
        name="direct_crime_guard",
        why="experiment III, data at n=128 moved to n=96: transfer dominates "
            "each job, so solver changes should not move it",
        experiment="III", mesh_n=96, data_mesh_n=128, threads=1,
        write_outputs=False, noise_seeds=1, eps0_bound=CRIME_GUARD_EPS0_BOUND),
)}
