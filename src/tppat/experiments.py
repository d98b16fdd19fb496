"""Batch experiment drivers: data generation, reconstruction sweeps, tables.

Four canonical experiments:

    I   direct reconstruction of mu with sigma known
    II  least-squares reconstruction of mu with sigma known
    III direct simultaneous reconstruction of (sigma, mu)
    IV  least-squares simultaneous reconstruction of (sigma, mu)

Each runs across the configured noise levels and seeds and reports relative
L2 errors against the generating phantom. Synthetic data come from forward
solves with the true coefficients; when the config sets a separate data mesh,
data are generated there, noise is applied on the data mesh, and the noisy
datum is interpolated onto the reconstruction mesh (inversion-crime guard).
Everything is deterministic given the config and seeds; sweeps parallelize
over (noise level, seed) jobs without affecting results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import direct, fem, lsq, transfer
from .config import ExperimentConfig
from .direct import DatumSet
from .errors import ValidationError
from .forward import (ForwardOperator, NewtonConfig, add_noise, compute_datum,
                      solve_semilinear)
from .mesh import Mesh, build_square_mesh, save_mesh
from .metrics import relative_l2_error

EXPERIMENTS = ("I", "II", "III", "IV")


def noise_stream_seed(base_seed: int, source_index: int, epsilon: float) -> list:
    """Deterministic per-(source, noise level) seed material."""
    return [int(base_seed), int(source_index), int(round(epsilon * 1000))]


@dataclass
class DataBundle:
    """Clean synthetic data plus everything needed to reconstruct.

    operator is the forward operator of the true diffusion on the
    reconstruction mesh, and locator (crime guard only) the reconstruction
    nodes located in the data mesh; prepare_data builds each once. Every
    reconstruction job uses them, including jobs running at once on the
    thread pool, so they are read-only: nothing may modify them or their
    arrays.
    """

    config: ExperimentConfig
    mesh: Mesh                      # reconstruction mesh
    data_mesh: Mesh                 # equals mesh unless the crime guard is on
    coeffs: "fem.CoefficientSet"    # truth on the reconstruction mesh
    data_coeffs: "fem.CoefficientSet"
    sources: list                   # BoundarySource on the reconstruction mesh
    data_sources: list
    u_clean: list                   # forward solutions on the data mesh
    H_clean: list                   # clean data on the data mesh
    reports: list
    operator: ForwardOperator
    # mesh nodes located in data_mesh, for every datum's transfer; None
    # unless the crime guard is on
    locator: transfer.PairLocator | None = None

    @property
    def crime_guard(self) -> bool:
        return self.data_mesh is not self.mesh

    def datum_set(self, epsilon: float, seed: int) -> DatumSet:
        """Noisy data on the reconstruction mesh for one (epsilon, seed)."""
        fields = []
        meta = []
        for j, H in enumerate(self.H_clean):
            noisy = add_noise(H, epsilon, noise_stream_seed(seed, j, epsilon))
            if self.crime_guard:
                noisy = transfer.transfer_field(self.data_mesh, self.mesh, noisy,
                                                locator=self.locator)
            fields.append(noisy)
            meta.append({"epsilon": epsilon, "seed": seed})
        return DatumSet(sources=list(self.sources), data=fields, meta=meta)


def prepare_data(cfg: ExperimentConfig, newton: NewtonConfig | None = None,
                 threads: int = 1) -> DataBundle:
    """Solve the forward problems at the true coefficients.

    Builds one forward operator per mesh. The data-mesh operator serves the
    setup Newton solves; with the crime guard it is dropped before the
    reconstruction-mesh operator is built, so the two never coexist.
    """
    cfg.validate()
    mesh = build_square_mesh(cfg.mesh_n)
    if cfg.data_mesh_n is not None and cfg.data_mesh_n != cfg.mesh_n:
        data_mesh = build_square_mesh(cfg.data_mesh_n)
    else:
        data_mesh = mesh
    coeffs = cfg.phantom.coefficients(mesh)
    data_coeffs = cfg.phantom.coefficients(data_mesh) if data_mesh is not mesh else coeffs
    sources = [s.build(mesh) for s in cfg.sources]
    data_sources = ([s.build(data_mesh) for s in cfg.sources]
                    if data_mesh is not mesh else sources)
    newton = newton or NewtonConfig()
    operator = ForwardOperator(data_mesh, data_coeffs.diffusion)

    def solve_one(g):
        return solve_semilinear(data_mesh, data_coeffs, g, newton, operator=operator)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve_one, data_sources))
    else:
        results = [solve_one(g) for g in data_sources]
    u_clean = [u for u, _ in results]
    reports = [r for _, r in results]
    H_clean = [compute_datum(data_coeffs, u) for u in u_clean]
    if data_mesh is not mesh:
        operator = None         # release the data-mesh operator before the next
        operator = ForwardOperator(mesh, coeffs.diffusion)
    # built here, before any job thread can reach datum_set
    locator = transfer.make_locator(data_mesh, mesh) if data_mesh is not mesh else None
    return DataBundle(config=cfg, mesh=mesh, data_mesh=data_mesh, coeffs=coeffs,
                      data_coeffs=data_coeffs, sources=sources,
                      data_sources=data_sources, u_clean=u_clean,
                      H_clean=H_clean, reports=reports, operator=operator,
                      locator=locator)


def reconstruct(which: str, bundle: DataBundle, datum_set: DatumSet):
    """Run one experiment's reconstruction. Returns {coefficient: field}.

    The least-squares experiments start every fitted field at the midpoint of
    the bounds; II holds sigma at its true value and returns it as well.
    """
    cfg = bundle.config
    mesh = bundle.mesh
    Gamma = bundle.coeffs.gruneisen
    gamma = bundle.coeffs.diffusion
    if which == "I":
        mu = direct.recover_mu_from_set(mesh, Gamma, gamma, datum_set,
                                        bundle.coeffs.single_photon,
                                        operator=bundle.operator)
        return {"mu": mu}
    if which == "III":
        sigma, mu, report = direct.recover_pair(mesh, Gamma, gamma, datum_set,
                                                operator=bundle.operator)
        return {"sigma": sigma, "mu": mu, "condition_report": report}
    if which in ("II", "IV"):
        mu_only = which == "II"
        mid = np.full(mesh.node_count,
                      0.5 * (cfg.lsq.bound_floor + cfg.lsq.bound_ceiling))
        sigma0 = bundle.coeffs.single_photon if mu_only else mid
        sigma, mu, report = lsq.run_lsq(mesh, (Gamma, gamma), datum_set,
                                        (sigma0, mid), cfg.lsq, mu_only=mu_only,
                                        operator=bundle.operator)
        return {"sigma": sigma, "mu": mu, "lsq_report": report}
    raise ValidationError(f"unknown experiment {which!r}; expected one of "
                          f"{', '.join(EXPERIMENTS)}")


ALGORITHMS = {"I": "direct", "II": "lsq", "III": "direct", "IV": "lsq"}
COEFFS_RECOVERED = {"I": ("mu",), "II": ("mu",),
                    "III": ("sigma", "mu"), "IV": ("sigma", "mu")}


@dataclass
class ExperimentTable:
    experiment: str
    rows: list = field(default_factory=list)    # (coefficient, epsilon, seed, error)

    def add(self, coefficient, epsilon, seed, error):
        self.rows.append((coefficient, float(epsilon), int(seed), float(error)))

    def mean_errors(self) -> dict:
        sums: dict = {}
        for coeff, eps, _, err in self.rows:
            key = (coeff, eps)
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + err, count + 1)
        return {key: total / count for key, (total, count) in sorted(sums.items())}

    def save(self, directory):
        directory = Path(directory)
        algo = ALGORITHMS[self.experiment]
        lines = ["experiment,algorithm,coefficient,epsilon,seed,error_percent"]
        for coeff, eps, seed, err in self.rows:
            lines.append(f"{self.experiment},{algo},{coeff},{eps:g},{seed},{err:.17g}")
        (directory / "errors.csv").write_text("\n".join(lines) + "\n",
                                              encoding="ascii")
        lines = ["experiment,algorithm,coefficient,epsilon,mean_error_percent"]
        for (coeff, eps), err in self.mean_errors().items():
            lines.append(f"{self.experiment},{algo},{coeff},{eps:g},{err:.17g}")
        (directory / "errors_mean.csv").write_text("\n".join(lines) + "\n",
                                                   encoding="ascii")


def run_experiment(which: str, cfg: ExperimentConfig, output_dir=None,
                   threads: int = 1, bundle: DataBundle | None = None) -> ExperimentTable:
    """Run one experiment across noise levels and seeds; optionally write files."""
    if which not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {which!r}; expected one of "
                              f"{', '.join(EXPERIMENTS)}")
    bundle = bundle or prepare_data(cfg, threads=threads)
    truth = {"sigma": bundle.coeffs.single_photon, "mu": bundle.coeffs.two_photon}
    table = ExperimentTable(experiment=which)

    jobs = []
    for eps in cfg.noise_levels:
        seeds = [cfg.seeds[0]] if eps == 0.0 else cfg.seeds
        for seed in seeds:
            jobs.append((eps, seed))

    # for the error table; assembled before any job result is held, because
    # its assembly temporaries set the sweep's peak memory at large n
    mass = fem.assemble_weighted_mass(bundle.mesh, np.ones(bundle.mesh.node_count))

    def run_job(job):
        eps, seed = job
        datum_set = bundle.datum_set(eps, seed)
        return reconstruct(which, bundle, datum_set)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_job, jobs))
    else:
        outcomes = [run_job(job) for job in jobs]

    keep_fields: dict = {}
    for (eps, seed), fields in zip(jobs, outcomes):
        for coeff in COEFFS_RECOVERED[which]:
            table.add(coeff, eps, seed, relative_l2_error(
                fields[coeff], truth[coeff], bundle.mesh, mass=mass))
        if seed == cfg.seeds[0]:
            keep_fields[eps] = fields

    if output_dir is not None:
        outdir = Path(output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        table.save(outdir)
        for eps, fields in keep_fields.items():
            tag = f"eps{eps:g}"
            for coeff in COEFFS_RECOVERED[which]:
                fem.save_field(outdir / f"recon_{coeff}_{tag}.csv", fields[coeff],
                               clipped_path=outdir / f"recon_{coeff}_{tag}_clipped.csv")
            if "condition_report" in fields:
                fields["condition_report"].save(outdir / f"condition_{tag}.csv")
            if "lsq_report" in fields:
                fields["lsq_report"].save(outdir / f"lsq_report_{tag}.csv")
        write_manifest(outdir, cfg, command=f"experiment {which}")
    return table


def run_forward(cfg: ExperimentConfig, output_dir, base_seed: int | None = None,
                threads: int = 1) -> DataBundle:
    """Generate and store synthetic data: clean and noisy datum files."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = prepare_data(cfg, threads=threads)
    seed = cfg.seeds[0] if base_seed is None else int(base_seed)

    save_mesh(bundle.mesh, outdir / "mesh.txt")
    if bundle.crime_guard:
        save_mesh(bundle.data_mesh, outdir / "data_mesh.txt")

    lines = ["source,iterations,converged,final_residual"]
    for j, report in enumerate(bundle.reports, start=1):
        lines.append(f"{j},{report.iterations},{int(report.converged)},"
                     f"{report.residual_history[-1]:.17g}")
    (outdir / "forward_report.csv").write_text("\n".join(lines) + "\n",
                                               encoding="ascii")

    for j, (u, H) in enumerate(zip(bundle.u_clean, bundle.H_clean), start=1):
        fem.save_field(outdir / f"u{j}.csv", u)
        fem.save_field(outdir / f"H{j}.csv", H)
        for eps in cfg.noise_levels:
            noisy = add_noise(H, eps, noise_stream_seed(seed, j - 1, eps))
            fem.save_field(outdir / f"H{j}_eps{eps:g}_seed{seed}.csv", noisy)

    write_manifest(outdir, cfg, command="forward", base_seed=seed)
    return bundle


def write_manifest(directory, cfg: ExperimentConfig, command: str,
                   base_seed: int | None = None) -> None:
    """Reproducibility record: versions, command, seeds, config echo.

    Deliberately excludes anything that varies between equivalent runs
    (timestamps, host paths, thread counts) so reruns are byte-identical.
    """
    parts = [
        "tppat manifest",
        f"version = {__version__}",
        f"command = {command}",
    ]
    if base_seed is not None:
        parts.append(f"base_seed = {base_seed}")
    parts.append("")
    parts.append(cfg.canonical_text())
    Path(directory, "manifest.txt").write_text("\n".join(parts), encoding="ascii")
