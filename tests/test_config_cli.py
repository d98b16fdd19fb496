import configparser
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tppat import fem
from tppat.cli import main
from tppat.config import (SourceSpec, default_config, load_config, parse_config,
                          write_config)
from tppat.errors import ValidationError
from tppat.experiments import noise_stream_seed
from tppat.mesh import build_square_mesh, load_mesh


def small_config(tmp_path, n=6, levels="0, 2", seeds="5", data_n=None):
    cfg = default_config()
    cfg.mesh_n = n
    if data_n is not None:
        cfg.data_mesh_n = data_n
    cfg.noise_levels = [float(e) for e in levels.split(",")]
    cfg.seeds = [int(s) for s in seeds.split(",")]
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    return path


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_default_config_valid_and_roundtrips(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.ini"
    write_config(cfg, path)
    cfg2 = load_config(path)
    assert cfg2.canonical_text() == cfg.canonical_text()


def test_config_missing_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[mesh]\nn = 8\n")
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_bad_inclusion_shape(tmp_path):
    cfgtext = default_config().canonical_text().replace("disk;", "blob;", 1)
    path = tmp_path / "cfg.ini"
    path.write_text(cfgtext)
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_negative_noise_rejected(tmp_path):
    cfgtext = default_config().canonical_text().replace(
        "levels = 0, 1, 2, 5", "levels = -1, 2")
    path = tmp_path / "cfg.ini"
    path.write_text(cfgtext)
    with pytest.raises(ValidationError):
        load_config(path)


NUMBERISH = st.sampled_from(["nan", "inf", "-inf", "1e400", "1e306", "-1", "0", "-0",
                             "1e-300", "0.3", " 2 ", "7", "1_0", "auto", "", "1,2"])
TEXT = st.one_of(st.text(max_size=20), NUMBERISH,
                 st.lists(NUMBERISH, max_size=4).map(", ".join))
LSQ_KEYS = ("kappa", "grad_tol", "max_iterations", "history", "bound_floor",
            "bound_ceiling")


@settings(max_examples=300, deadline=None)
@given(noise=st.dictionaries(st.sampled_from(["levels", "seeds"]), TEXT, max_size=2),
       lsq=st.dictionaries(st.sampled_from(LSQ_KEYS), TEXT, max_size=6))
def test_parse_config_returns_in_range_values_or_raises_validation_error(noise, lsq):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config().canonical_text())
    for section, values in (("noise", noise), ("lsq", lsq)):
        for key, value in values.items():
            parser.set(section, key, value)
    try:
        cfg = parse_config(parser)
    except ValidationError:
        return
    assert all(math.isfinite(e) and e >= 0.0 for e in cfg.noise_levels)
    assert cfg.seeds and all(s >= 0 for s in cfg.seeds)
    for e in cfg.noise_levels:                   # the noise streams can be seeded
        np.random.default_rng(noise_stream_seed(cfg.seeds[0], 0, e))
    ls = cfg.lsq
    assert ls.kappa == "auto" or (math.isfinite(ls.kappa) and ls.kappa >= 0.0)
    assert math.isfinite(ls.grad_tol) and ls.grad_tol > 0.0
    assert ls.max_iterations >= 1 and ls.history >= 1
    assert 0.0 < ls.bound_floor < ls.bound_ceiling < math.inf


@pytest.mark.parametrize("section,key", [("mesh", "size"), ("noise", "level"),
                                         ("lsq", "max_iter")])
def test_parse_config_rejects_unknown_keys(section, key):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config().canonical_text())
    parser.set(section, key, "5")
    with pytest.raises(ValidationError, match=rf"\[{section}\] unknown key '{key}'"):
        parse_config(parser)


def test_source_spec_validation():
    with pytest.raises(ValidationError):
        SourceSpec("constant", {})
    with pytest.raises(ValidationError):
        SourceSpec("wiggle", {"value": 1.0})
    mesh = build_square_mesh(3)
    with pytest.raises(ValidationError):
        SourceSpec("constant", {"value": 0.0}).build(mesh)
    with pytest.raises(ValidationError):
        SourceSpec("affine", {"a": 0.5, "bx": 1.0, "by": 0.0}).build(mesh)
    g = SourceSpec("affine", {"a": 1.5, "bx": 1.0, "by": 0.0}).build(mesh)
    assert g.min_value > 0.0


def test_cli_mesh_command(tmp_path):
    out = tmp_path / "m"
    assert main(["mesh", "--n", "4", "--out", str(out)]) == 0
    mesh = load_mesh(out / "mesh.txt")
    assert mesh.triangle_count == 32


def test_cli_mesh_rejects_bad_n(tmp_path):
    assert main(["mesh", "--n", "0", "--out", str(tmp_path)]) == 1


def test_cli_forward_writes_expected_files(tmp_path):
    cfg_path = small_config(tmp_path, n=4, levels="0, 1, 2, 5", seeds="7")
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    clean = {f"H{j}.csv" for j in range(1, 5)} | {f"u{j}.csv" for j in range(1, 5)}
    assert clean <= names
    noisy = [n for n in names if "_eps" in n]
    assert len(noisy) == 16            # 4 sources x 4 noise levels
    assert "manifest.txt" in names
    assert "forward_report.csv" in names
    assert "mesh.txt" in names


def test_cli_forward_deterministic_across_runs(tmp_path):
    cfg_path = small_config(tmp_path, n=4, levels="0, 2", seeds="9")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["forward", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert read_tree(out1) == read_tree(out2)


def test_cli_recon_direct(tmp_path):
    cfg_path = small_config(tmp_path, n=6)
    out = tmp_path / "rd"
    assert main(["recon-direct", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"sigma.csv", "mu.csv", "sigma_clipped.csv", "mu_clipped.csv",
            "condition_report.csv", "errors.csv", "manifest.txt"} <= names
    header = (out / "condition_report.csv").read_text().splitlines()[0]
    assert header == "node,condition,flag"


@pytest.mark.parametrize("argv", [
    pytest.param(["experiment", "--which", "III"], id="experiment-III"),
    pytest.param(["recon-direct", "--noise", "40"], id="recon-direct"),
])
def test_clipped_companions_match_the_two_call_writer(argv, tmp_path, monkeypatch):
    # noise 40 drives some reconstructed values negative, so the companions
    # hold rows formatted again as well as rows copied from the raw fields
    cfg_path = small_config(tmp_path, n=8, levels="0, 2, 40", seeds="5, 6")
    argv = argv + ["--config", str(cfg_path), "--out"]
    assert main(argv + [str(tmp_path / "one_call")]) == 0
    save_field = fem.save_field

    def two_calls(path, values, clipped_path=None):
        save_field(path, values)
        if clipped_path is not None:
            save_field(clipped_path, fem.clip_nonnegative(values))

    monkeypatch.setattr(fem, "save_field", two_calls)
    assert main(argv + [str(tmp_path / "two_calls")]) == 0
    tree = read_tree(tmp_path / "one_call")
    assert tree == read_tree(tmp_path / "two_calls")
    companions = [name for name in tree if name.endswith("_clipped.csv")]
    assert len(companions) >= 2
    assert any(tree[name] != tree[name.replace("_clipped", "")] for name in companions)


def test_cli_recon_lsq(tmp_path):
    cfg_path = small_config(tmp_path, n=5)
    out = tmp_path / "rl"
    assert main(["recon-lsq", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"sigma.csv", "mu.csv", "lsq_report.csv", "errors.csv"} <= names


def test_cli_experiment_runs_and_tabulates(tmp_path):
    cfg_path = small_config(tmp_path, n=6, levels="0, 2", seeds="3, 4")
    out = tmp_path / "exp"
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "experiment,algorithm,coefficient,epsilon,seed,error_percent"
    # eps=0 runs once, eps=2 runs per seed, two coefficients each
    assert len(lines) == 1 + 2 * (1 + 2)
    assert (out / "errors_mean.csv").exists()
    assert (out / "manifest.txt").exists()


def test_cli_experiment_threads_do_not_change_outputs(tmp_path):
    cfg_path = small_config(tmp_path, n=6, levels="0, 2", seeds="3, 4")
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out1), "--threads", "1"]) == 0
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out2), "--threads", "3"]) == 0
    assert read_tree(out1) == read_tree(out2)


def test_cli_gradcheck(tmp_path):
    cfg_path = small_config(tmp_path, n=5)
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(cfg_path), "--out", str(out),
                 "--directions", "3"]) == 0
    lines = (out / "gradcheck.csv").read_text().splitlines()
    assert lines[0] == "direction,adjoint,fd,relative_error"
    assert len(lines) == 4


def test_cli_gradcheck_rejects_crime_guard_config(tmp_path):
    cfg_path = small_config(tmp_path, n=4, data_n=6)
    assert main(["gradcheck", "--config", str(cfg_path),
                 "--out", str(tmp_path / "gc"), "--directions", "1"]) == 1
    assert not (tmp_path / "gc").exists()


def test_cli_transfer_roundtrip(tmp_path):
    out = tmp_path / "meshes"
    assert main(["mesh", "--n", "4", "--out", str(out)]) == 0
    src_mesh = out / "mesh.txt"
    out2 = tmp_path / "meshes2"
    assert main(["mesh", "--n", "6", "--out", str(out2)]) == 0
    from tppat import fem
    src = load_mesh(src_mesh)
    field_path = tmp_path / "f.csv"
    fem.save_field(field_path, np.full(src.node_count, 1.25))
    target_field = tmp_path / "g.csv"
    assert main(["transfer", "--source-mesh", str(src_mesh),
                 "--target-mesh", str(out2 / "mesh.txt"),
                 "--field", str(field_path), "--out", str(target_field)]) == 0
    vals = fem.load_field(target_field)
    assert np.allclose(vals, 1.25, atol=1e-13)


def test_cli_exit_code_on_bad_config(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[mesh]\nn = not_a_number\n")
    assert main(["forward", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1


def test_cli_exit_code_on_solver_failure(tmp_path, monkeypatch):
    from tppat import cli
    from tppat.errors import SolverError

    def boom(*args, **kwargs):
        raise SolverError("synthetic non-convergence")

    monkeypatch.setattr(cli, "run_forward", boom)
    cfg_path = small_config(tmp_path, n=4)
    assert main(["forward", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x")]) == 2


def test_cli_write_config_roundtrip(tmp_path):
    path = tmp_path / "default.ini"
    assert main(["write-config", "--out", str(path)]) == 0
    cfg = load_config(path)
    assert cfg.mesh_n == default_config().mesh_n


def test_cli_noise_and_seed_overrides(tmp_path):
    cfg_path = small_config(tmp_path, n=4, levels="0, 1, 2, 5", seeds="7, 8")
    out = tmp_path / "ovr"
    assert main(["forward", "--config", str(cfg_path), "--out", str(out),
                 "--noise", "0,3", "--seed", "42"]) == 0
    noisy = [p.name for p in out.iterdir() if "_eps" in p.name]
    assert len(noisy) == 8             # 4 sources x 2 levels
    assert all("seed42" in n for n in noisy)


@pytest.mark.parametrize("argv", [
    ["experiment", "--which", "III", "--noise", "nan"],
    ["experiment", "--which", "III", "--noise", "inf"],
    ["experiment", "--which", "III", "--noise", "abc"],
    ["experiment", "--which", "III", "--seed", "-1"],
    ["recon-direct", "--noise", "0,2"],
])
def test_cli_bad_noise_or_seed_exits_1(tmp_path, argv):
    cfg_path = small_config(tmp_path, n=4)
    assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
