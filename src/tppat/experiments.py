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
Everything is deterministic given the config and seeds. With threads > 1,
the setup solves and the (noise level, seed) jobs run on a thread pool when
the mesh they solve on has at least POOL_MIN_NODES nodes, and serially
otherwise; neither changes results.
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
from .errors import ValidationError, require_count
from .forward import (ForwardOperator, add_noise, compute_datum, noise_stream_seed,
                      solve_semilinear)
from .mesh import Mesh, build_square_mesh, save_mesh
from .metrics import relative_l2_error, squared_l2_norm

EXPERIMENTS = ("I", "II", "III", "IV")


@dataclass(frozen=True, eq=False)
class DataBundle:
    """Clean synthetic data plus everything needed to reconstruct.

    operator is the forward operator of the true diffusion on the
    reconstruction mesh, through which every reconstruction solve gets the
    mesh and gamma, and locator (crime guard only) the reconstruction nodes
    located in the data mesh; prepare_data builds each once. Without the
    crime guard u_clean is on the reconstruction mesh too, and every job
    starts its direct density solves from it (reconstruct). Every
    reconstruction job uses them, including jobs running at once on the
    thread pool, so the bundle is a value: frozen, with tuples for its
    sequences, and prepare_data makes the arrays of u_clean, H_clean and
    coeffs read-only.
    """

    config: ExperimentConfig
    mesh: Mesh                      # reconstruction mesh
    data_mesh: Mesh                 # equals mesh unless the crime guard is on
    coeffs: "fem.CoefficientSet"    # truth on the reconstruction mesh
    sources: tuple                  # BoundarySource on the reconstruction mesh
    u_clean: tuple                  # forward solutions on the data mesh
    H_clean: tuple                  # clean data on the data mesh
    reports: tuple
    operator: ForwardOperator
    # mesh nodes located in data_mesh, for every datum's transfer; None
    # unless the crime guard is on
    locator: transfer.PairLocator | None = None

    @property
    def crime_guard(self) -> bool:
        return self.data_mesh is not self.mesh

    def noisy_data(self, epsilon: float, seed: int) -> list:
        """The J noisy data on the data mesh for one (epsilon, seed)."""
        return [add_noise(H, epsilon, noise_stream_seed(seed, j, epsilon))
                for j, H in enumerate(self.H_clean)]

    def datum_set(self, epsilon: float, seed: int) -> DatumSet:
        """Noisy data on the reconstruction mesh for one (epsilon, seed).

        meta repeats (epsilon, seed) per source; the library does not read it.
        """
        fields = self.noisy_data(epsilon, seed)
        if self.crime_guard:
            fields = [transfer.transfer_field(self.data_mesh, self.mesh, H,
                                              locator=self.locator) for H in fields]
        return DatumSet(sources=self.sources, data=fields, noise_level=epsilon,
                        meta=[{"epsilon": epsilon, "seed": seed} for _ in fields])


# Fewest mesh nodes at which solves go to the thread pool. On smaller meshes
# each numpy and BLAS call releases the GIL too briefly for two workers to
# beat one: on 2 CPUs, serial sweeps of III and IV beat 2-thread ones in
# most alternating pairs up to n=96 (9409 nodes), and 2 threads won from
# n=112 (12769 nodes) up.
POOL_MIN_NODES = 10000


def _map_jobs(function, items, threads: int, mesh: Mesh) -> list:
    """[function(item) for item in items], in item order.

    Runs on up to threads workers when there is more than one item and the
    mesh the items solve on has at least POOL_MIN_NODES nodes; serially
    otherwise.
    """
    if threads > 1 and len(items) > 1 and mesh.node_count >= POOL_MIN_NODES:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(function, items))
    return [function(item) for item in items]


def prepare_data(cfg: ExperimentConfig, threads: int = 1) -> DataBundle:
    """Solve the forward problems at the true coefficients.

    Builds each mesh's truth (mesh, coefficients, sources) by one path, the
    data mesh's first, and one forward operator per mesh. The data-mesh
    operator serves the setup Newton solves; with the crime guard it is
    dropped before the reconstruction mesh's truth and operator are built,
    so the two operators never coexist. threads (an integer >= 1) is the
    most workers for those solves; they use the pool only on a data mesh of
    at least POOL_MIN_NODES nodes. cfg is checked again first, in case a
    field was assigned after it was made. The bundle is frozen, and the
    arrays of its u_clean, H_clean and coeffs are made read-only.
    """
    require_count(threads, "threads")
    cfg.validate()

    def truth(n):
        mesh = build_square_mesh(n)
        return mesh, cfg.phantom.coefficients(mesh), tuple(s.build(mesh) for s in cfg.sources)

    data_n = cfg.data_mesh_n or cfg.mesh_n
    data_mesh, data_coeffs, data_sources = truth(data_n)
    operator = ForwardOperator(data_mesh, data_coeffs.diffusion)

    def solve_one(g):
        return solve_semilinear(operator, data_coeffs.single_photon,
                                data_coeffs.two_photon, g)

    results = _map_jobs(solve_one, data_sources, threads, data_mesh)
    u_clean = tuple(u for u, _ in results)
    reports = tuple(r for _, r in results)
    H_clean = tuple(compute_datum(data_coeffs, u) for u in u_clean)
    if data_n == cfg.mesh_n:
        mesh, coeffs, sources, locator = data_mesh, data_coeffs, data_sources, None
    else:
        operator = None         # release the data-mesh operator before the next
        mesh, coeffs, sources = truth(cfg.mesh_n)
        operator = ForwardOperator(mesh, coeffs.diffusion)
        # built here, before any job thread can reach datum_set
        locator = transfer.make_locator(data_mesh, mesh)
    for array in (*u_clean, *H_clean, *vars(coeffs).values()):
        array.setflags(write=False)
    return DataBundle(config=cfg, mesh=mesh, data_mesh=data_mesh, coeffs=coeffs,
                      sources=sources, u_clean=u_clean, H_clean=H_clean,
                      reports=reports, operator=operator, locator=locator)


def reconstruct(which: str, bundle: DataBundle, datum_set: DatumSet):
    """Run one experiment's reconstruction. Returns {coefficient: field}.

    Every experiment starts with the direct fit of the datum: its densities
    u_j* (direct.recover_all_fields) and the pointwise fit on them
    (direct.recover_pair), I and II with sigma known, III and IV for the
    pair. Without the crime guard the density solves start from the
    bundle's clean forward fields u_clean, which already solve them for
    noiseless data; with it they start cold, as u_clean is on the data
    mesh. I and III return that fit. II and IV refine it by least squares,
    which projects it onto the bounds and starts its first forward solves
    from the u_j*. Nodes the direct fit flags carry its nearest-neighbour
    fill. With one source the pair fit does not exist, so IV starts sigma at
    the midpoint of the bounds and mu from the fit with that sigma. I and II
    hold sigma at its true value and return it as well. Data that both fits
    cannot weigh never get here: a DatumSet rejects them when it is made.
    """
    if which not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {which!r}; expected one of "
                              f"{', '.join(EXPERIMENTS)}")
    cfg = bundle.config
    op = bundle.operator
    Gamma = bundle.coeffs.gruneisen
    if which in ("I", "II"):
        sigma_known = bundle.coeffs.single_photon
    elif which == "IV" and datum_set.size == 1:
        sigma_known = np.full(bundle.mesh.node_count,
                              0.5 * (cfg.lsq.bound_floor + cfg.lsq.bound_ceiling))
    else:
        sigma_known = None
    stars = direct.recover_all_fields(
        op, Gamma, datum_set, u0=None if bundle.crime_guard else bundle.u_clean)
    sigma, mu, report = direct.recover_pair(op, Gamma, datum_set,
                                            sigma_known=sigma_known, stars=stars)
    if which in ("I", "III"):
        return {"sigma": sigma, "mu": mu, "condition_report": report}
    sigma, mu, report = lsq.run_lsq(op, Gamma, datum_set, (sigma, mu), cfg.lsq,
                                    mu_only=which == "II", u0=stars)
    return {"sigma": sigma, "mu": mu, "lsq_report": report}


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
        prefix = f"{self.experiment},{algo},"
        columns = list(zip(*self.rows)) or [()] * 4
        fem.write_columns(directory / "errors.csv",
                          "experiment,algorithm,coefficient,epsilon,seed,error_percent",
                          prefix + "%s,%g,%d,%.17g\n", *columns)
        means = self.mean_errors()
        fem.write_columns(directory / "errors_mean.csv",
                          "experiment,algorithm,coefficient,epsilon,mean_error_percent",
                          prefix + "%s,%g,%.17g\n", [c for c, _ in means],
                          [e for _, e in means], list(means.values()))


def run_experiment(which: str, cfg: ExperimentConfig, output_dir=None,
                   threads: int = 1, bundle: DataBundle | None = None) -> ExperimentTable:
    """Run one experiment across noise levels and seeds; optionally write files.

    bundle, when given, must be prepare_data's bundle of this cfg, and
    threads (the most job workers) an integer >= 1. The jobs use the pool
    only on a reconstruction mesh of at least POOL_MIN_NODES nodes, and the
    setup only on such a data mesh. cfg is checked again here, with or
    without a bundle, in case a field was assigned after it was made or
    after prepare_data. A config the experiment cannot run (III with one
    source) is rejected before setup.
    """
    require_count(threads, "threads")
    if which not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {which!r}; expected one of "
                              f"{', '.join(EXPERIMENTS)}")
    cfg.validate()
    if not cfg.noise_levels:
        raise ValidationError("an experiment needs at least one noise level")
    if which == "III" and len(cfg.sources) < 2:
        raise ValidationError(f"experiment III fits (sigma, mu) pointwise and needs at "
                              f"least 2 sources, got {len(cfg.sources)}")
    if bundle is not None and bundle.config is not cfg:
        raise ValidationError("the bundle was prepared from another config")
    bundle = bundle or prepare_data(cfg, threads=threads)
    truth = {"sigma": bundle.coeffs.single_photon, "mu": bundle.coeffs.two_photon}
    truth_norms = {coeff: squared_l2_norm(truth[coeff], bundle.mesh)
                   for coeff in COEFFS_RECOVERED[which]}
    table = ExperimentTable(experiment=which)

    # noiseless data run once, with the first seed
    jobs = [(eps, seed) for eps in cfg.noise_levels
            for seed in (cfg.seeds[:1] if eps == 0.0 else cfg.seeds)]
    outcomes = _map_jobs(lambda job: reconstruct(which, bundle, bundle.datum_set(*job)),
                         jobs, threads, bundle.mesh)

    keep_fields: dict = {}
    for (eps, seed), fields in zip(jobs, outcomes):
        for coeff in COEFFS_RECOVERED[which]:
            table.add(coeff, eps, seed, relative_l2_error(
                fields[coeff], truth[coeff], bundle.mesh, truth_norms[coeff]))
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


def run_forward(cfg: ExperimentConfig, output_dir) -> DataBundle:
    """Generate and store synthetic data: clean and noisy datum files for the
    first seed."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = prepare_data(cfg)
    seed = cfg.seeds[0]

    save_mesh(bundle.mesh, outdir / "mesh.txt")
    if bundle.crime_guard:
        save_mesh(bundle.data_mesh, outdir / "data_mesh.txt")

    reports = bundle.reports
    fem.write_columns(outdir / "forward_report.csv",
                      "source,iterations,converged,final_residual", "%d,%d,%d,%.17g\n",
                      range(1, len(reports) + 1), [r.iterations for r in reports],
                      [r.converged for r in reports],
                      [r.residual_history[-1] for r in reports])

    for j, (u, H) in enumerate(zip(bundle.u_clean, bundle.H_clean), start=1):
        fem.save_field(outdir / f"u{j}.csv", u)
        fem.save_field(outdir / f"H{j}.csv", H)
    for eps in cfg.noise_levels:
        for j, noisy in enumerate(bundle.noisy_data(eps, seed), start=1):
            fem.save_field(outdir / f"H{j}_eps{eps:g}_seed{seed}.csv", noisy)

    write_manifest(outdir, cfg, command="forward", base_seed=seed)
    return bundle


def write_manifest(directory, cfg: ExperimentConfig | None, command: str,
                   base_seed: int | None = None) -> None:
    """Reproducibility record: versions, command, seeds, config echo.

    Every manifest.txt is written here. cfg None (tppat mesh, which reads no
    config) writes the header alone. Deliberately excludes anything that
    varies between equivalent runs (timestamps, host paths, thread counts)
    so reruns are byte-identical.
    """
    parts = [
        "tppat manifest",
        f"version = {__version__}",
        f"command = {command}",
    ]
    if base_seed is not None:
        parts.append(f"base_seed = {base_seed}")
    parts.append("")
    if cfg is not None:
        parts.append(cfg.canonical_text())
    Path(directory, "manifest.txt").write_text("\n".join(parts), encoding="ascii")
