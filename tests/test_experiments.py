import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weakref

import tppat
from tppat import direct, experiments, fem, forward, metrics, transfer
from tppat.config import write_config
from tppat.errors import ValidationError
from tppat.experiments import (COEFFS_RECOVERED, EXPERIMENTS, prepare_data, reconstruct,
                               run_experiment, run_forward)
from tppat.forward import RESIDUAL_TOL, add_noise, noise_stream_seed
from tppat.lsq import LsqConfig
from tppat.mesh import build_square_mesh
from tppat.phantoms import SHAPES, Inclusion, Phantom, PhantomField

from builders import config

# the sweep most tests here run, or change: one noiseless job at n = 6
QUICK = config(mesh_n=6, noise_levels=[0.0], seeds=[3], lsq=LsqConfig(max_iterations=60))


def test_experiment_i_direct_mu_only():
    table = run_experiment("I", QUICK)
    means = table.mean_errors()
    assert set(k[0] for k in means) == {"mu"}
    assert means[("mu", 0.0)] <= 0.5


def test_experiment_i_flags_and_fills_nonpositive_nodes_instead_of_aborting(tmp_path):
    # a strongly absorbing background at 20 % noise drives the recovered
    # density nonpositive at some nodes of both jobs
    cfg = replace(QUICK, mesh_n=8, noise_levels=[0.0, 20.0], seeds=[101, 102],
                  phantom=replace(QUICK.phantom, single_photon=replace(
                      QUICK.phantom.single_photon, background=20.0)))
    bundle = prepare_data(cfg)
    table = run_experiment("I", cfg, output_dir=tmp_path, bundle=bundle)
    assert len(table.rows) == 3
    report = reconstruct("I", bundle, bundle.datum_set(20.0, 101))["condition_report"]
    rows = np.loadtxt(tmp_path / "condition_eps20.csv", delimiter=",", skiprows=1)
    flagged = rows[:, 2].astype(bool)
    assert flagged.any() and not flagged.all()
    assert np.array_equal(flagged, report.flagged)
    mu = fem.load_field(tmp_path / "recon_mu_eps20.csv", bundle.mesh)
    for i in np.nonzero(flagged)[0]:
        assert mu[i] == mu[report.filled_from[i]]
        assert not flagged[report.filled_from[i]]


def test_experiment_ii_lsq_mu_only():
    table = run_experiment("II", QUICK)
    means = table.mean_errors()
    assert set(k[0] for k in means) == {"mu"}
    assert means[("mu", 0.0)] <= 1.0


def test_experiment_iv_recovers_both():
    table = run_experiment("IV", QUICK)
    means = table.mean_errors()
    assert set(k[0] for k in means) == {"sigma", "mu"}
    assert all(np.isfinite(v) for v in means.values())


@pytest.mark.parametrize("which", ["II", "IV"])
def test_least_squares_runs_with_one_source(which):
    # one datum has no pair fit to start from: IV starts sigma at the
    # midpoint of the bounds and mu from the fit with that sigma, and the
    # unregularized fit still converges
    cfg = replace(QUICK, mesh_n=8, noise_levels=[0.0, 2.0], sources=QUICK.sources[:1])
    bundle = prepare_data(cfg)
    for eps in cfg.noise_levels:
        fields = reconstruct(which, bundle, bundle.datum_set(eps, 3))
        assert np.all(np.isfinite(fields["sigma"])) and np.all(np.isfinite(fields["mu"]))
        report = fields["lsq_report"]
        assert report.converged, (eps, report.iterations, report.message)


@pytest.mark.parametrize("bundled", [False, True])
def test_experiment_iii_with_one_source_is_rejected_before_setup(monkeypatch, bundled):
    # the pair fit needs two sources, so the sweep fails before any solve,
    # naming the experiment and the source count
    cfg = replace(QUICK, mesh_n=4, sources=QUICK.sources[:1])
    bundle = prepare_data(cfg) if bundled else None
    calls = []
    monkeypatch.setattr(experiments, "prepare_data", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError, match=r"experiment III .* 2 sources, got 1"):
        run_experiment("III", cfg, bundle=bundle)
    assert calls == []


def phantom_fields(scale):
    """A background and 0-2 inclusions, each value within a factor 2 of scale."""
    value = st.floats(0.5 * scale, 2.0 * scale)
    coordinate = st.floats(-0.8, 0.8)
    inclusion = st.builds(Inclusion, st.sampled_from(SHAPES),
                          st.tuples(coordinate, coordinate), st.floats(0.1, 0.5), value)
    return st.builds(PhantomField, value, st.lists(inclusion, max_size=2))


@st.composite
def small_configs(draw):
    default = config()
    floor = draw(st.sampled_from([0.001, 0.02, 0.1, 0.3]))
    return config(
        mesh_n=draw(st.integers(1, 8)), data_mesh_n=draw(st.none() | st.integers(4, 12)),
        phantom=draw(st.builds(Phantom, **{
            f.name: phantom_fields(getattr(default.phantom, f.name).background)
            for f in fields(Phantom)})),
        sources=draw(st.lists(st.sampled_from(default.sources), min_size=1, max_size=4,
                              unique_by=id)),
        noise_levels=draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0]),
                                   min_size=1, max_size=2, unique=True)),
        seeds=[draw(st.integers(0, 999))],
        lsq=LsqConfig(bound_floor=floor,
                      bound_ceiling=floor + draw(st.sampled_from([0.01, 0.2, 1.0])),
                      max_iterations=draw(st.integers(1, 40))))


# run_lsq's stops: (converged, message)
LSQ_STOPS = {(True, ""), (True, "noise level reached"), (False, "iteration cap reached"),
             (False, "line search failed; returning best iterate")}


@settings(max_examples=12, deadline=None)
@given(cfg=small_configs(), which=st.sampled_from(EXPERIMENTS))
def test_a_sweep_either_runs_or_is_rejected_before_setup(cfg, which, tmp_path_factory):
    # every config the validator passes either fails before any solve, or
    # keeps the contract on every job: noiseless direct fits exact to solver
    # precision on unflagged nodes (without the crime guard), least squares
    # within its bounds, strictly descending and stopped for a stated reason
    # (not always converged), and one and two workers writing the same tree
    bundles, jobs = [], []

    def counting(*args, **kwargs):
        bundles.append(prepare_data(*args, **kwargs))
        return bundles[-1]

    def recording(experiment, bundle, datum_set):
        jobs.append((datum_set.noise_level, reconstruct(experiment, bundle, datum_set)))
        return jobs[-1][1]

    out = tmp_path_factory.mktemp("sweep")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "prepare_data", counting)
        mp.setattr(experiments, "reconstruct", recording)
        mp.setattr(experiments, "POOL_MIN_NODES", 0)
        try:
            table = run_experiment(which, cfg, output_dir=out / "t1")
        except ValidationError:
            assert bundles == []
            return
        run_experiment(which, cfg, output_dir=out / "t2", threads=2)
    assert len(bundles) == 2
    assert len(table.rows) == len(cfg.noise_levels) * len(COEFFS_RECOVERED[which])
    assert all(np.isfinite(row[3]) for row in table.rows)
    trees = [{p.name: p.read_bytes() for p in sorted((out / t).iterdir())}
             for t in ("t1", "t2")]
    assert trees[0] == trees[1]
    truth = {"sigma": bundles[0].coeffs.single_photon, "mu": bundles[0].coeffs.two_photon}
    for eps, fields in jobs:
        if "condition_report" in fields and eps == 0.0 and not bundles[0].crime_guard:
            report = fields["condition_report"]
            bound = 1e-8 * np.maximum(1.0, report.condition)
            for coeff in COEFFS_RECOVERED[which]:
                error = np.abs(fields[coeff] - truth[coeff]) / truth[coeff]
                assert np.all((error <= bound)[~report.flagged]), coeff
        if "lsq_report" in fields:
            report = fields["lsq_report"]
            for coeff in COEFFS_RECOVERED[which]:
                assert np.all(fields[coeff] >= cfg.lsq.bound_floor)
                assert np.all(fields[coeff] <= cfg.lsq.bound_ceiling)
            history = report.objective_history
            assert all(b < a for a, b in zip(history, history[1:]))
            assert (report.converged, report.message) in LSQ_STOPS


def test_experiment_ii_takes_a_known_sigma_outside_the_bounds():
    # II fits mu alone, so only mu0 must lie within [bound_floor, bound_ceiling]
    cfg = replace(QUICK, mesh_n=8, phantom=replace(QUICK.phantom, single_photon=replace(
        QUICK.phantom.single_photon, background=0.6)))
    assert cfg.phantom.single_photon.background > cfg.lsq.bound_ceiling
    table = run_experiment("II", cfg)
    assert table.mean_errors()[("mu", 0.0)] <= 1e-6


def test_unknown_experiment_rejected():
    with pytest.raises(ValidationError):
        run_experiment("V", QUICK)
    bundle = prepare_data(QUICK)
    with pytest.raises(ValidationError, match="unknown experiment"):
        reconstruct("V", bundle, bundle.datum_set(0.0, 3))


@pytest.mark.parametrize("which", ["I", "II", "III", "IV"])
def test_every_experiment_solves_the_direct_densities_once(monkeypatch, which):
    # one path for I-IV: reconstruct solves the densities u_j* once and hands
    # them to the pointwise fit, which then solves nothing again
    bundle = prepare_data(QUICK)
    calls = []
    recover_all_fields, recover_pair = direct.recover_all_fields, direct.recover_pair

    def recording_fields(*args, **kwargs):
        calls.append(recover_all_fields(*args, **kwargs))
        return calls[-1]

    def recording_pair(*args, stars=None, **kwargs):
        calls.append(stars)
        return recover_pair(*args, stars=stars, **kwargs)

    monkeypatch.setattr(direct, "recover_all_fields", recording_fields)
    monkeypatch.setattr(direct, "recover_pair", recording_pair)
    reconstruct(which, bundle, bundle.datum_set(0.0, 3))
    assert len(calls) == 2 and calls[1] is calls[0]


def test_sweep_without_noise_levels_rejected_before_setup(monkeypatch, tmp_path):
    def no_setup(*args, **kwargs):
        raise AssertionError("prepare_data ran")

    monkeypatch.setattr(experiments, "prepare_data", no_setup)
    with pytest.raises(ValidationError, match="at least one noise level"):
        run_experiment("III", replace(QUICK, noise_levels=[]), output_dir=tmp_path / "x")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", [0, -4, 1.5, True])
def test_a_worker_count_below_one_or_not_an_integer_is_rejected(threads, monkeypatch,
                                                                tmp_path):
    bundle = prepare_data(QUICK)
    with pytest.raises(ValidationError, match="threads must be an integer >= 1"):
        prepare_data(QUICK, threads=threads)
    with pytest.raises(ValidationError, match="threads must be an integer >= 1"):
        run_experiment("III", QUICK, output_dir=tmp_path / "x", threads=threads,
                       bundle=bundle)

    def no_setup(*args, **kwargs):
        raise AssertionError("prepare_data ran")

    monkeypatch.setattr(experiments, "prepare_data", no_setup)
    with pytest.raises(ValidationError, match="threads must be an integer >= 1"):
        run_experiment("III", QUICK, output_dir=tmp_path / "x", threads=threads)
    assert not (tmp_path / "x").exists()


def test_bundle_of_another_config_rejected(tmp_path):
    # noise levels and seeds come from cfg, the phantom, sources and [lsq]
    # settings from the bundle's: one sweep would mix two configs
    bundle = prepare_data(QUICK)
    other = replace(QUICK, phantom=replace(QUICK.phantom, two_photon=replace(
        QUICK.phantom.two_photon, background=0.07)))
    with pytest.raises(ValidationError, match="another config"):
        run_experiment("III", other, output_dir=tmp_path / "x", bundle=bundle)
    assert not (tmp_path / "x").exists()
    assert run_experiment("III", bundle.config, bundle=bundle).rows


def test_a_config_changed_after_setup_is_validated_with_its_bundle(tmp_path):
    # the bundle is still this cfg's, but cfg no longer passes validate():
    # unchecked, the sweep ran four jobs whose files share the tag eps2
    cfg = replace(QUICK)
    bundle = prepare_data(cfg)
    cfg.seeds = [3, 3]
    cfg.noise_levels = [2.0, 2.0000001]
    with pytest.raises(ValidationError, match="share the file tag eps2"):
        run_experiment("III", cfg, output_dir=tmp_path / "x", bundle=bundle)
    assert not (tmp_path / "x").exists()


def test_experiment_outputs_reconstruction_files(tmp_path):
    cfg = replace(QUICK, noise_levels=[0.0, 2.0], seeds=[3, 4])
    run_experiment("III", cfg, output_dir=tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    for eps in ("eps0", "eps2"):
        assert f"recon_sigma_{eps}.csv" in names
        assert f"recon_mu_{eps}.csv" in names
        assert f"recon_mu_{eps}_clipped.csv" in names
        assert f"condition_{eps}.csv" in names
    assert "manifest.txt" in names


def test_sweep_numbers_the_rows_of_each_row_format_once(tmp_path):
    # 2 L field files (their clipped companions reuse the formatted rows) and
    # L condition reports share two numbered templates, one per row format;
    # a second sweep of the same node count builds none
    cfg = replace(QUICK, mesh_n=8, noise_levels=[0.0, 2.0, 5.0])
    bundle = prepare_data(cfg)
    calls = 3 * len(cfg.noise_levels)               # format_columns calls per sweep
    fem._numbered_rows.cache_clear()
    run_experiment("III", cfg, output_dir=tmp_path / "a", bundle=bundle)
    info = fem._numbered_rows.cache_info()
    assert (info.misses, info.hits) == (2, calls - 2)
    run_experiment("III", cfg, output_dir=tmp_path / "b", bundle=bundle)
    info = fem._numbered_rows.cache_info()
    assert (info.misses, info.hits) == (2, 2 * calls - 2)


def test_experiment_lsq_outputs_report(tmp_path):
    cfg = replace(QUICK, mesh_n=5)
    run_experiment("IV", cfg, output_dir=tmp_path)
    assert (tmp_path / "lsq_report_eps0.csv").exists()


def test_noiseless_runs_once_per_level():
    cfg = replace(QUICK, noise_levels=[0.0], seeds=[3, 4, 5])
    table = run_experiment("III", cfg)
    assert len(table.rows) == 2          # sigma + mu, one seed only


def test_direct_pair_midlevel_noise_band():
    # reference results for this benchmark family put the direct pair errors
    # near (1.56%, 5.55%) at the 2% noise level; stay within a factor of two
    means = run_experiment("III", config(mesh_n=32, noise_levels=[2.0])).mean_errors()
    assert 1.56 / 2.0 <= means[("sigma", 2.0)] <= 1.56 * 2.0
    assert 5.55 / 2.0 <= means[("mu", 2.0)] <= 5.55 * 2.0


def test_noise_stream_seeds_distinct():
    seen = {tuple(noise_stream_seed(7, j, e)) for j in range(4)
            for e in (0.0, 1.0, 2.0, 5.0)}
    assert len(seen) == 16


def test_run_forward_reports_converged_solves(tmp_path):
    cfg = replace(QUICK, noise_levels=[0.0, 1.0], seeds=[11])
    bundle = run_forward(cfg, tmp_path)
    assert all(r.converged for r in bundle.reports)
    lines = (tmp_path / "forward_report.csv").read_text().splitlines()
    assert lines[0] == "source,iterations,converged,final_residual"
    assert len(lines) == 5
    for line, report in zip(lines[1:], bundle.reports):
        _, iterations, converged, final_residual = line.split(",")
        assert int(iterations) == len(report.residual_history) - 1 >= 1
        assert converged == "1"
        assert float(final_residual) <= RESIDUAL_TOL     # run_forward's default


def test_bundle_datum_set_matches_noise_model():
    cfg = replace(QUICK, noise_levels=[2.0], seeds=[9])
    bundle = prepare_data(cfg)
    ds = bundle.datum_set(2.0, 9)
    expected = add_noise(bundle.H_clean[0], 2.0, noise_stream_seed(9, 0, 2.0))
    assert np.array_equal(ds.data[0], expected)
    assert ds.noise_level == 2.0
    assert ds.meta[0] == {"epsilon": 2.0, "seed": 9}


@pytest.mark.parametrize("data_n", [None, 12])
def test_forward_files_are_the_data_the_experiments_reconstruct_from(tmp_path, data_n):
    # run_forward writes the noisy data on the data mesh; moved onto the
    # reconstruction mesh (crime guard only), they are datum_set's, bitwise
    cfg = replace(QUICK, mesh_n=8, data_mesh_n=data_n, noise_levels=[0.0, 2.0], seeds=[5])
    bundle = run_forward(cfg, tmp_path)
    reconstruction = prepare_data(cfg)
    for eps in cfg.noise_levels:
        ds = reconstruction.datum_set(eps, 5)
        for j, expected in enumerate(ds.data, start=1):
            H = fem.load_field(tmp_path / f"H{j}_eps{eps:g}_seed5.csv", bundle.data_mesh)
            if bundle.crime_guard:
                H = transfer.transfer_field(bundle.data_mesh, bundle.mesh, H)
            assert np.array_equal(H, expected), (eps, j)


def test_import_loads_no_scipy(tmp_path):
    # scipy is a development dependency only: the imports load none of it, and
    # the command line then runs with every scipy import blocked, for the
    # least-squares sweep and for the gradient check with kappa > 0, whose
    # regularizer applies the unit-diffusion stiffness
    src = str(Path(tppat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    write_config(config(lsq=LsqConfig(kappa=1e-3)), tmp_path / "kappa.ini")
    runs = [["experiment", "--which", "IV", "--noise", "0,2", "--out", str(tmp_path / "e4")],
            ["gradcheck", "--directions", "3", "--config", str(tmp_path / "kappa.ini"),
             "--out", str(tmp_path / "gc")]]
    code = ("import sys, tppat.experiments, tppat.cli; "
            "print(' '.join(m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy')); "
            "sys.modules['scipy'] = None; "
            f"print(*[tppat.cli.main(argv) for argv in {runs!r}])")
    lines = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=120).stdout.splitlines()
    loaded, codes = lines[0], lines[-1]
    assert loaded == "", (
        f"import tppat.experiments, tppat.cli loads {loaded}: with one BLAS thread the "
        f"two imports peak at 29.4 MB resident with numpy alone (26.8 MB), and at "
        f"50.6 MB with scipy.sparse, more than the 10 % peak_rss_mb bound of the "
        f"lsq_pair benchmark workload allows; the runtime needs numpy only")
    assert codes == "0 0"
    errors = np.loadtxt(tmp_path / "gc" / "gradcheck.csv", delimiter=",", skiprows=1)[:, 3]
    assert len(errors) == 3 and np.all(errors <= 1e-6)


@pytest.mark.parametrize("which", ["I", "II", "III", "IV"])
@pytest.mark.parametrize("data_n, builds", [(None, 1), (11, 2)])
def test_sweep_builds_one_operator_per_mesh(monkeypatch, which, data_n, builds):
    built = []              # weak references to every operator, in build order
    alive_at_build = []     # earlier operators still alive when each was built
    init = forward.ForwardOperator.__init__

    def counting_init(self, *args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in built))
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    located = []            # point counts of every location in a mesh
    locate = transfer._TriangleLocator.locate

    def counting_locate(self, points):
        located.append(len(points))
        return locate(self, points)

    monkeypatch.setattr(forward.ForwardOperator, "__init__", counting_init)
    monkeypatch.setattr(transfer._TriangleLocator, "locate", counting_locate)
    cfg = replace(QUICK, mesh_n=8, data_mesh_n=data_n, noise_levels=[0.0, 2.0], seeds=[3, 4])
    bundle = prepare_data(cfg)
    # with the crime guard, the reconstruction nodes are located once, in setup
    assert located == ([bundle.mesh.node_count] if data_n else [])
    run_experiment(which, cfg, bundle=bundle)
    assert len(located) == (1 if data_n else 0)
    assert len(built) == builds
    # with the crime guard, the data-mesh operator is gone before the next exists
    assert alive_at_build == [0] * builds
    assert built[-1]() is bundle.operator


def test_bundle_operator_gives_bitwise_the_fields_of_a_fresh_one():
    bundle = prepare_data(QUICK)
    Gamma = bundle.coeffs.gruneisen
    ds = bundle.datum_set(0.0, 3)
    shared = direct.recover_pair(bundle.operator, Gamma, ds)
    fresh = direct.recover_pair(
        forward.ForwardOperator(bundle.mesh, bundle.coeffs.diffusion), Gamma, ds)
    assert np.array_equal(shared[0], fresh[0]) and np.array_equal(shared[1], fresh[1])


@pytest.mark.parametrize("which, kappa, assemblies", [
    pytest.param("III", 0.0, 1, id="III-1"), pytest.param("IV", 0.0, 1, id="IV-1"),
    pytest.param("IV", 1e-6, 1 + 3, id="IV-kappa-4")])
def test_sweep_assembles_each_stiffness_matrix_once(monkeypatch, which, kappa, assemblies):
    # the operator's K once per sweep; least squares with kappa > 0 adds the
    # regularizer's unit-diffusion K1 once per job (3 jobs here)
    assembled = []
    assemble = fem.assemble_stiffness

    def counting(mesh, gamma):
        assembled.append(mesh.node_count)
        return assemble(mesh, gamma)

    monkeypatch.setattr(fem, "assemble_stiffness", counting)
    cfg = replace(QUICK, mesh_n=8, noise_levels=[0.0, 2.0], seeds=[3, 4],
                  lsq=replace(QUICK.lsq, kappa=kappa))
    table = run_experiment(which, cfg)
    assert len({(eps, seed) for _, eps, seed, _ in table.rows}) == 3
    assert assembled == [81] * assemblies


@pytest.mark.parametrize("which", ["I", "III"])
def test_sweep_integrates_each_truth_norm_once(monkeypatch, which):
    cfg = replace(QUICK, mesh_n=8, noise_levels=[0.0, 2.0, 5.0], seeds=[3, 4])
    bundle = prepare_data(cfg)
    truths = (bundle.coeffs.single_photon, bundle.coeffs.two_photon)
    integrated = []
    norm = metrics.squared_l2_norm

    def recording(values, mesh):
        integrated.append(any(np.array_equal(values, t) for t in truths))
        return norm(values, mesh)

    monkeypatch.setattr(metrics, "squared_l2_norm", recording)
    monkeypatch.setattr(experiments, "squared_l2_norm", recording)
    table = run_experiment(which, cfg, bundle=bundle)
    # one error norm per table row, one truth norm per recovered coefficient
    assert len(table.rows) == 5 * len(experiments.COEFFS_RECOVERED[which])
    assert integrated.count(False) == len(table.rows)
    assert integrated.count(True) == len(experiments.COEFFS_RECOVERED[which])


@pytest.mark.parametrize("which, data_n", [
    pytest.param("I", None, id="I"),
    pytest.param("III", None, id="III"),
    pytest.param("IV", None, id="IV"),
    pytest.param("III", 11, id="III-crime-guard"),
])
def test_threads_share_the_bundle_operator_without_changing_outputs(which, data_n,
                                                                   tmp_path, monkeypatch):
    # every mesh size goes to the pool, so the jobs really run at once
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", 0)
    cfg = replace(QUICK, mesh_n=8, data_mesh_n=data_n, noise_levels=[0.0, 1.0, 2.0, 5.0],
                  seeds=[3, 4])
    bundle = prepare_data(cfg)
    trees = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        run_experiment(which, cfg, output_dir=out, threads=threads, bundle=bundle)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "errors.csv" in trees[0]
    assert ("condition_eps5.csv" in trees[0]) == (which in ("I", "III"))
    assert trees[0] == trees[1]


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool experiments builds, in order."""
    built = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Spy)
    return built


@pytest.mark.parametrize("data_n, min_nodes, setup_pooled, jobs_pooled", [
    pytest.param(None, 50, False, False, id="below"),
    pytest.param(None, 49, True, True, id="at"),
    pytest.param(8, 81, True, False, id="crime-guard-data-mesh-only"),
    pytest.param(4, 49, False, True, id="crime-guard-reconstruction-mesh-only"),
])
def test_threads_use_the_pool_only_on_meshes_of_pool_min_nodes(data_n, min_nodes,
                                                               setup_pooled, jobs_pooled,
                                                               pools, monkeypatch):
    # setup solves on the data mesh (81 nodes at n=8, 25 at n=4), the jobs on
    # the n=6 reconstruction mesh (49 nodes)
    assert [build_square_mesh(n).node_count for n in (4, 6, 8)] == [25, 49, 81]
    cfg = replace(QUICK, data_mesh_n=data_n, noise_levels=[0.0, 2.0], seeds=[3, 4])
    serial = run_experiment("III", cfg).rows
    assert pools == []
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", min_nodes)
    bundle = prepare_data(cfg, threads=2)
    assert pools == [2] * setup_pooled
    table = run_experiment("III", cfg, threads=2, bundle=bundle)
    assert pools == [2] * (setup_pooled + jobs_pooled)
    assert table.rows == serial


def test_one_setup_solve_and_one_job_run_serially(pools, monkeypatch):
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", 0)
    run_experiment("I", replace(QUICK, sources=QUICK.sources[:1]), threads=2)
    assert pools == []


def test_pooled_results_come_back_in_item_order(pools, monkeypatch):
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", 0)
    last_started = threading.Event()
    finished = []

    def job(item):
        if item == 0:           # the first item finishes after the last starts
            last_started.wait(timeout=10)
        if item == 3:
            last_started.set()
        finished.append(item)
        return 10 * item

    results = experiments._map_jobs(job, [0, 1, 2, 3], 2, build_square_mesh(2))
    assert pools == [2]
    assert finished[-1] == 0
    assert results == [0, 10, 20, 30]
