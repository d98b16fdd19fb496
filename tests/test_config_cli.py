import configparser
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tppat
from tppat import experiments, fem, gradcheck
from tppat.cli import build_parser, main
from tppat.config import (COEFF_SECTIONS, SOURCE_PARAMETERS, ExperimentConfig, SourceSpec,
                          default_config, load_config, parse_config, write_config)
from tppat.direct import ConditionReport
from tppat.errors import ValidationError
from tppat.forward import noise_stream_seed
from tppat.lsq import LsqConfig
from tppat.mesh import build_square_mesh, load_mesh
from tppat.phantoms import SHAPES, Inclusion, Phantom, PhantomField

from builders import bundle, config


def small_config(tmp_path, n=6, levels="0, 2", seeds="5", data_n=None):
    path = tmp_path / "config.ini"
    write_config(config(mesh_n=n, data_mesh_n=data_n,
                        noise_levels=[float(e) for e in levels.split(",")],
                        seeds=[int(s) for s in seeds.split(",")]), path)
    return path


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_default_config_valid_and_roundtrips(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.ini"
    write_config(cfg, path)
    cfg2 = load_config(path)
    assert cfg2.canonical_text() == cfg.canonical_text()


def test_lsq_section_roundtrips_to_identical_bytes(tmp_path):
    # integer keys print as integers: %g would write 1234567 as 1.23457e+06
    cfg = config(lsq=LsqConfig(kappa=2.5e-3, grad_tol=3e-7, max_iterations=1234567))
    first, second = tmp_path / "first.ini", tmp_path / "second.ini"
    write_config(cfg, first)
    loaded = load_config(first)
    write_config(loaded, second)
    assert "\nmax_iterations = 1234567\n" in first.read_text()
    assert loaded.lsq == cfg.lsq
    assert second.read_bytes() == first.read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PHANTOM_FIELD = st.builds(
    PhantomField, background=POSITIVE,
    inclusions=st.lists(st.builds(Inclusion, shape=st.sampled_from(SHAPES),
                                  center=st.tuples(FINITE, FINITE), size=POSITIVE,
                                  value=POSITIVE), max_size=2))
SOURCE = st.one_of(
    st.builds(lambda v: SourceSpec("constant", {"value": v}), FINITE),
    st.builds(lambda a, bx, by: SourceSpec("affine", {"a": a, "bx": bx, "by": by}),
              FINITE, FINITE, FINITE))


@st.composite
def configs(draw):
    """A valid config with arbitrary finite values in every float field."""
    floor, ceiling = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2, unique=True)))
    lsq = LsqConfig(kappa=draw(st.floats(min_value=0.0, allow_infinity=False)),
                    grad_tol=draw(POSITIVE), bound_floor=floor, bound_ceiling=ceiling)
    # levels with distinct file tags and noise streams, as validate asks
    levels = st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=4,
                      unique_by=(lambda e: f"{e:g}", lambda e: round(1000.0 * e)))
    return ExperimentConfig(
        phantom=Phantom(*(draw(PHANTOM_FIELD) for _ in COEFF_SECTIONS)),
        sources=draw(st.lists(SOURCE, min_size=1, max_size=3)),
        noise_levels=draw(levels), seeds=[draw(st.integers(0, 2**63))],
        lsq=lsq)


def test_config_echo_keeps_digits_beyond_the_sixth():
    phantom = default_config().phantom
    cfg = config(phantom=dataclasses.replace(phantom, two_photon=dataclasses.replace(
        phantom.two_photon, background=0.123456789)), lsq=LsqConfig(kappa=0.00123456789))
    text = cfg.canonical_text()
    assert "\nbackground = 0.123456789\n" in text
    assert "\nkappa = 0.00123456789\n" in text


# the settings records, and the data records that every job of a sweep shares
SETTINGS_RECORDS = {
    "LsqConfig": lambda: default_config().lsq,
    "SourceSpec": lambda: default_config().sources[2],
    "Inclusion": lambda: default_config().phantom.diffusion.inclusions[0],
    "PhantomField": lambda: default_config().phantom.diffusion,
    "Phantom": lambda: default_config().phantom,
    "DatumSet": lambda: bundle(mesh_n=4).datum_set(2.0, 3),
    "DataBundle": lambda: bundle(mesh_n=4),
    "CoefficientSet": lambda: bundle(mesh_n=4).coeffs,
    "ConditionReport": lambda: ConditionReport(np.ones(3), np.zeros(3, bool), np.arange(3)),
}


@pytest.mark.parametrize("record", SETTINGS_RECORDS.values(), ids=SETTINGS_RECORDS)
def test_settings_records_reject_assignment_to_every_field(record):
    """A settings or shared data record is checked when it is made and
    cannot change after.

    When the records were mutable, cfg.lsq.bound_floor = 0.6 on the default
    config passed validate(): experiment IV (n = 32, eps = 0, seed 101) then
    ran to sigma 215 % and mu 795 % error, and its manifest echoed a config
    that load_config rejects. Setting noise_level = -5.0 on the eps = 2,
    seed 3 datum set at n = 16 bypassed its check, and IV then stopped at
    "noise level reached" on a noise misfit of 0.02 (eps = 5's) instead of
    0.0032.
    """
    value = record()
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_settings_records_hold_no_mutable_container():
    cfg = config()
    with pytest.raises(TypeError):
        SourceSpec("constant", {"value": 0.5}).params["value"] = 1.0
    inclusion = cfg.phantom.diffusion.inclusions[0]
    built = PhantomField(background=0.2, inclusions=[inclusion])
    for pf in (built, *(getattr(cfg.phantom, name) for name in COEFF_SECTIONS)):
        assert isinstance(pf.inclusions, tuple)
    assert built == cfg.phantom.diffusion
    # a changed record is a new one, checked again
    with pytest.raises(ValidationError, match="lsq bounds must satisfy"):
        dataclasses.replace(cfg.lsq, bound_floor=0.6)
    with pytest.raises(ValidationError, match="inclusion size"):
        dataclasses.replace(inclusion, size=-0.3)
    with pytest.raises(ValidationError, match="seeds repeat: 3"):
        dataclasses.replace(cfg, seeds=[3, 3])
    # the data every job shares: tuples of read-only arrays; writing into
    # coeffs.single_photon changed the truth that every job is scored against
    b = bundle(mesh_n=4)
    ds = b.datum_set(2.0, 3)
    for sequence in (b.sources, b.u_clean, b.H_clean, b.reports, ds.sources, ds.data):
        assert isinstance(sequence, tuple)
    for array in (b.u_clean[0], b.H_clean[0], b.coeffs.single_photon, ds.data[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99.0
    # the run's own record stays mutable, and validate() checks its fields
    cfg.seeds = [-1]
    with pytest.raises(ValidationError, match="seeds must be nonnegative"):
        cfg.validate()


@settings(max_examples=200, deadline=None)
@given(cfg=configs())
def test_config_echo_reproduces_every_value(cfg, tmp_path_factory):
    # the phantom, source, noise and [lsq] values survive write_config and
    # load_config exactly, and the echo of the loaded config is the same bytes
    path = tmp_path_factory.mktemp("echo") / "cfg.ini"
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.canonical_text() == path.read_text()


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


def test_config_kappa_auto_is_a_bad_number(tmp_path):
    text = default_config().canonical_text()
    assert "\nkappa = 0\n" in text
    path = tmp_path / "cfg.ini"
    path.write_text(text.replace("\nkappa = 0\n", "\nkappa = auto\n"))
    with pytest.raises(ValidationError, match=r"\[lsq\] kappa: bad number 'auto'"):
        load_config(path)


NUMBERISH = st.sampled_from(["nan", "inf", "-inf", "1e400", "1e306", "-1", "0", "-0",
                             "1e-300", "0.3", " 2 ", "7", "1_0", "auto", "", "1,2"])
TEXT = st.one_of(st.text(max_size=20), NUMBERISH,
                 st.lists(NUMBERISH, max_size=4).map(", ".join))
LSQ_KEYS = tuple(f.name for f in dataclasses.fields(LsqConfig))


BAD_NUMBER = st.sampled_from(["nan", "inf", "1e400", "-1", "0", "x"])
EXTRA_KEY = st.sampled_from(["colour", "bx", "size", "a", "Value"])


def packed(kind, **params):
    """'kind; key = value; ...' from valid parts, with the kind or one value
    replaced by a BAD_NUMBER or any TEXT (a center by a pair with one
    BAD_NUMBER, or any TEXT), or with one EXTRA_KEY added."""
    def build(key, bad, bad_pair, extra):
        values = dict(params)
        if key in values:
            values[key] = bad_pair if key == "center" else bad
        elif key == "extra":
            values.setdefault(extra, "0.5")
        head = bad if key == "kind" else kind
        return "; ".join([head] + [f"{k} = {v}" for k, v in values.items()])

    return st.builds(build, st.sampled_from([*params, "kind", "extra"]),
                     st.one_of(BAD_NUMBER, TEXT),
                     st.one_of(BAD_NUMBER.map("{}, 0.4".format),
                               BAD_NUMBER.map("-0.2, {}".format), TEXT),
                     EXTRA_KEY)


SECTIONS = st.sampled_from(sorted(COEFF_SECTIONS.values()))
EDIT = st.one_of(
    st.tuples(SECTIONS, st.just("background"), st.one_of(BAD_NUMBER, TEXT)),
    st.tuples(SECTIONS, st.sampled_from(["inclusion1", "inclusion2"]),
              packed("disk", center="0.1, -0.2", size="0.3", value="0.2")),
    st.tuples(st.just("sources"), st.sampled_from(["source1", "source5"]),
              st.one_of(packed("constant", value="1.5"),
                        packed("affine", a="2", bx="0.5", by="-0.5"))))


@settings(max_examples=300, deadline=None)
@given(noise=st.dictionaries(st.sampled_from(["levels", "seeds"]), TEXT, max_size=2),
       lsq=st.dictionaries(st.sampled_from(LSQ_KEYS), TEXT, max_size=6),
       edit=st.one_of(EDIT, st.none()))
def test_parse_config_returns_in_range_values_or_raises_validation_error(
        noise, lsq, edit):
    changes = [(section, key, value) for section, values in (("noise", noise),
                                                             ("lsq", lsq))
               for key, value in values.items()]
    edits = [edit] if edit else []          # a coefficient or source entry
    # the edit alone too: an error in a later section would mask it
    for applied in (edits, changes + edits):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(default_config().canonical_text())
        for change in applied:
            parser.set(*change)
        try:
            cfg = parse_config(parser)
        except ValidationError:
            continue
        assert_in_range(cfg)


def assert_in_range(cfg):
    assert all(math.isfinite(e) and e >= 0.0 for e in cfg.noise_levels)
    assert cfg.seeds and all(s >= 0 for s in cfg.seeds)
    for e in cfg.noise_levels:                   # the noise streams can be seeded
        np.random.default_rng(noise_stream_seed(cfg.seeds[0], 0, e))
    ls = cfg.lsq
    assert math.isfinite(ls.kappa) and ls.kappa >= 0.0
    assert math.isfinite(ls.grad_tol) and ls.grad_tol > 0.0
    assert ls.max_iterations >= 1
    assert 0.0 < ls.bound_floor < ls.bound_ceiling < math.inf
    for name in COEFF_SECTIONS:
        pf = getattr(cfg.phantom, name)
        assert 0.0 < pf.background < math.inf
        for inc in pf.inclusions:
            assert inc.shape in SHAPES and 0.0 < inc.size < math.inf
            assert len(inc.center) == 2 and all(map(math.isfinite, inc.center))
            assert 0.0 < inc.value < math.inf
    for src in cfg.sources:
        assert sorted(src.params) == sorted(SOURCE_PARAMETERS[src.kind])
        assert all(math.isfinite(v) for v in src.params.values())


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: text.replace("[mesh]\n", "", 1), id="no-section-header"),
    pytest.param(lambda text: text + "\n[noise]\nlevels = 0\n", id="duplicate-section"),
    pytest.param(lambda text: text.replace("n = 32", "n = 32\nn = 8", 1),
                 id="duplicate-key"),
])
def test_load_config_rejects_malformed_ini(tmp_path, edit):
    path = tmp_path / "cfg.ini"
    path.write_text(edit(default_config().canonical_text()))
    with pytest.raises(ValidationError, match="malformed config file"):
        load_config(path)


@pytest.mark.parametrize("old, new, message", [
    ("source1 = constant; value = 0.5", "source1 = constant; value = abc", "bad number"),
    ("source1 = constant; value = 0.5", "source1 = constant; value = nan", "finite"),
    ("size = 0.3", "size = nan", "size must be finite"),
    ("center = -0.45, 0.4", "center = nan, 0.4", "center must be finite"),
    ("size = 0.3; value = 0.3", "size = 0.3; value = inf", "values must be finite"),
    ("background = 0.2", "background = nan", "background must be finite"),
])
def test_load_config_rejects_bad_packed_numbers(tmp_path, old, new, message):
    text = default_config().canonical_text()
    assert old in text
    path = tmp_path / "cfg.ini"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValidationError, match=message):
        load_config(path)


@pytest.mark.parametrize("old, new, message", [
    ("size = 0.3; value = 0.1", "size = 0.3; value = 0.1; colour = red",
     r"\[coefficients.two_photon\] inclusion1: unknown key 'colour'"),
    ("source1 = constant; value = 0.5", "source1 = constant; value = 1.5; bx = 7",
     r"\[sources\] source1: source 'constant': unknown key 'bx'"),
    ("source3 = affine; a = 1.75; bx = 1; by = 0", "source3 = affine; a = 1.75; bx = 1",
     r"\[sources\] source3: source 'affine': missing key 'by'"),
    ("source1 = constant; value = 0.5", "source1 = constant; value = 0.5; value = 9",
     r"\[sources\] source1: repeated key 'value'"),
    ("size = 0.3; value = 0.1", "size = 0.3; size = 0.3; value = 0.1",
     r"\[coefficients.two_photon\] inclusion1: repeated key 'size'"),
])
def test_load_config_rejects_unknown_or_missing_packed_keys(tmp_path, old, new, message):
    text = default_config().canonical_text()
    assert old in text
    path = tmp_path / "cfg.ini"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValidationError, match=message):
        load_config(path)


@pytest.mark.parametrize("section,key", [("mesh", "size"), ("noise", "level"),
                                         ("lsq", "max_iter")])
def test_parse_config_rejects_unknown_keys(section, key):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config().canonical_text())
    parser.set(section, key, "5")
    with pytest.raises(ValidationError, match=rf"\[{section}\] unknown key '{key}'"):
        parse_config(parser)


def test_cli_rejects_the_removed_lsq_history_key(tmp_path, capsys):
    # the L-BFGS memory is gone with L-BFGS: a config that still sets it is an
    # error before any work, not a key silently ignored
    path = tmp_path / "old.ini"
    path.write_text(default_config().canonical_text().replace(
        "[lsq]\n", "[lsq]\nhistory = 10\n", 1))
    out = tmp_path / "x"
    assert main(["experiment", "--which", "IV", "--config", str(path),
                 "--out", str(out)]) == 1
    assert "[lsq] unknown key 'history'" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("n", [8, 96, 128])
def test_affine_source_is_the_per_node_formula_in_boundary_order(n):
    # the one array expression over the boundary nodes gives the bits of
    # evaluating a + bx x + by y node by node, in mesh.boundary_list order
    mesh = build_square_mesh(n)
    for a, bx, by in ((1.4, 0.6, 0.0), (1.75, 0.0, -1.0), (2.5, 0.3, -0.7)):
        g = SourceSpec("affine", {"a": a, "bx": bx, "by": by}).build(mesh)
        expected = [a + bx * x + by * y for x, y in mesh.nodes[mesh.boundary_list].tolist()]
        assert g.values.tobytes() == np.array(expected).tobytes()


def test_cli_mesh_command(tmp_path):
    out = tmp_path / "m"
    assert main(["mesh", "--n", "4", "--out", str(out)]) == 0
    mesh = load_mesh(out / "mesh.txt")
    assert mesh.triangle_count == 32


def test_cli_mesh_manifest_is_the_header_alone(tmp_path):
    out = tmp_path / "m"
    assert main(["mesh", "--n", "4", "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_bytes() == (
        f"tppat manifest\nversion = {tppat.__version__}\ncommand = mesh --n 4\n"
        .encode("ascii"))


@pytest.mark.parametrize("which, small", [pytest.param(w, True, id=w)
                                          for w in experiments.EXPERIMENTS]
                         + [pytest.param("IV", False, id="IV-default-seed7")])
def test_a_manifest_reruns_its_run(which, small, tmp_path):
    # the config echo of a manifest, from its [mesh] line on, is a config
    # that runs the same sweep again, to the same bytes, overrides included
    options = (["--config", str(small_config(tmp_path, n=6, levels="0", seeds="3, 4"))]
               if small else ["--seed", "7"])
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["experiment", "--which", which, *options,
                 "--noise", "0,2", "--out", str(first)]) == 0
    manifest = (first / "manifest.txt").read_text()
    echo = tmp_path / "echo.ini"
    echo.write_text(manifest[manifest.index("[mesh]\n"):])
    assert main(["experiment", "--which", which, "--config", str(echo),
                 "--out", str(second)]) == 0
    assert read_tree(first) == read_tree(second)


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
    assert {"recon_sigma_eps0.csv", "recon_mu_eps0.csv", "recon_sigma_eps0_clipped.csv",
            "recon_mu_eps0_clipped.csv", "condition_eps0.csv", "errors.csv",
            "manifest.txt"} <= names
    header = (out / "condition_eps0.csv").read_text().splitlines()[0]
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
    assert {"recon_sigma_eps0.csv", "recon_mu_eps0.csv", "lsq_report_eps0.csv",
            "errors.csv"} <= names


RECON_DIRECT = (["recon-direct", "--noise", "2", "--seed", "5"],
                ["experiment", "--which", "III", "--noise", "2", "--seed", "5"])
RECON_LSQ = (["recon-lsq", "--seed", "5"],
             ["experiment", "--which", "IV", "--noise", "0", "--seed", "5"])


@pytest.mark.parametrize("recon, experiment, small", [
    pytest.param(*RECON_DIRECT, True, id="direct"),
    pytest.param(*RECON_LSQ, True, id="lsq"),
    pytest.param(["recon-direct", "--noise", "2"],
                 ["experiment", "--which", "III", "--noise", "2", "--seed", "3"], True,
                 id="first-config-seed"),
    pytest.param(*RECON_DIRECT, False, id="direct-default"),
    pytest.param(*RECON_LSQ, False, id="lsq-default"),
])
def test_cli_recon_is_one_job_of_the_experiment(recon, experiment, small, tmp_path):
    # the small config sweeps two levels and two seeds, the default one four
    # and ten; the recon command runs one job
    options = (["--config", str(small_config(tmp_path, n=6, levels="0, 2", seeds="3, 4"))]
               if small else [])
    trees = []
    for tag, argv in (("recon", recon), ("experiment", experiment)):
        out = tmp_path / tag
        assert main(argv + options + ["--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]
    assert len(trees[0]["errors.csv"].splitlines()) == 3     # header, sigma, mu


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


def test_cli_experiment_threads_do_not_change_outputs(tmp_path, monkeypatch):
    # every mesh size goes to the pool, so the jobs really run at once
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", 0)
    cfg_path = small_config(tmp_path, n=6, levels="0, 2", seeds="3, 4")
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out1), "--threads", "1"]) == 0
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out2), "--threads", "3"]) == 0
    assert read_tree(out1) == read_tree(out2)


@pytest.mark.parametrize("n, kappa", [pytest.param(5, 0.0, id="n5"),
                                      pytest.param(32, 0.0, id="n32"),
                                      pytest.param(32, 1e-3, id="n32-kappa")])
def test_cli_gradcheck(n, kappa, tmp_path):
    # with kappa > 0 the gradient holds the regularizer's, which applies the
    # unit-diffusion stiffness
    write_config(config(mesh_n=n, lsq=LsqConfig(kappa=kappa)), tmp_path / "config.ini")
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(tmp_path / "config.ini"), "--out", str(out),
                 "--directions", "3"]) == 0
    lines = (out / "gradcheck.csv").read_text().splitlines()
    assert lines[0] == "direction,adjoint,fd,relative_error"
    assert len(lines) == 4
    assert all(float(line.split(",")[3]) <= 1e-6 for line in lines[1:])


def test_cli_gradcheck_rejects_crime_guard_config(tmp_path):
    cfg_path = small_config(tmp_path, n=4, data_n=6)
    assert main(["gradcheck", "--config", str(cfg_path),
                 "--out", str(tmp_path / "gc"), "--directions", "1"]) == 1
    assert not (tmp_path / "gc").exists()


def test_cli_gradcheck_takes_no_noise_level(tmp_path, capsys):
    # the check runs on the clean data, so a level would go unused
    out = tmp_path / "gc"
    with pytest.raises(SystemExit) as exit_:
        main(["gradcheck", "--noise", "5", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --noise 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("directions", ["0", "-2"])
def test_cli_gradcheck_rejects_fewer_than_one_direction(tmp_path, directions):
    cfg_path = small_config(tmp_path, n=4)
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(cfg_path), "--out", str(out),
                 "--directions", directions]) == 1
    assert not out.exists()


@pytest.mark.parametrize("directions", [0, -2, 1.5, True])
def test_gradient_check_rejects_a_bad_direction_count_before_setup(directions,
                                                                   monkeypatch):
    def no_setup(*args, **kwargs):
        raise AssertionError("prepare_data ran")

    monkeypatch.setattr(gradcheck, "prepare_data", no_setup)
    with pytest.raises(ValidationError, match="directions must be an integer >= 1"):
        gradcheck.gradient_check(default_config(), directions=directions)


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_experiment_rejects_fewer_than_one_thread(tmp_path, threads):
    cfg_path = small_config(tmp_path, n=4)
    out = tmp_path / "x"
    assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                 "--out", str(out), "--threads", threads]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["experiment", "--which", "III"], ["recon-direct"]])
def test_cli_experiment_iii_rejects_one_source(command, tmp_path, capsys):
    write_config(config(sources=default_config().sources[:1]), tmp_path / "one.ini")
    out = tmp_path / "x"
    assert main(command + ["--config", str(tmp_path / "one.ini"), "--out", str(out)]) == 1
    assert "experiment III" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["forward"], ["recon-direct"], ["recon-lsq"],
                                     ["experiment", "--which", "I"], ["gradcheck"]])
def test_cli_threads_option_is_on_the_job_commands(command, tmp_path, capsys):
    # only experiment runs several jobs, so only it takes a worker count
    out = tmp_path / "o"
    argv = command + ["--out", str(out), "--threads", "2"]
    if command[0] == "experiment":
        assert build_parser().parse_args(argv).threads == 2
        return
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("option", ["--source-mesh", "--field"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_transfer_unreadable_file_exits_1_with_one_error_line(tmp_path, capsys,
                                                                  option, kind):
    assert main(["mesh", "--n", "4", "--out", str(tmp_path / "m")]) == 0
    mesh_path = tmp_path / "m" / "mesh.txt"
    field_path = tmp_path / "f.csv"
    fem.save_field(field_path, np.ones(25))
    bad = tmp_path / "absent.txt" if kind == "missing" else tmp_path
    paths = {"--source-mesh": mesh_path, "--field": field_path, option: bad}
    capsys.readouterr()
    assert main(["transfer", "--source-mesh", str(paths["--source-mesh"]),
                 "--target-mesh", str(mesh_path), "--field", str(paths["--field"]),
                 "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


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
    ["experiment", "--which", "III", "--noise", "1.0000001,1.0000002,2,2"],
    ["forward", "--noise", "0.0001,0.0002"],
    ["recon-lsq", "--noise", "1,2"],
    ["experiment", "--which", "III", "--noise", ","],
    ["experiment", "--which", "I", "--noise", ""],
    ["recon-direct", "--noise", ""],
])
def test_cli_bad_noise_or_seed_exits_1(tmp_path, argv):
    cfg_path = small_config(tmp_path, n=4)
    out = tmp_path / "x"
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_experiment_needs_a_noise_level_and_forward_does_not(tmp_path):
    # an empty levels entry: the sweep has no job, so it is an error before
    # any setup solve; forward writes the clean data alone
    cfg_path = small_config(tmp_path, n=4)
    text = cfg_path.read_text()
    cfg_path.write_text(text.replace("levels = 0, 2\n", "levels =\n"))
    assert load_config(cfg_path).noise_levels == []
    out = tmp_path / "x"
    assert main(["experiment", "--which", "I", "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    assert not out.exists()
    # so does an empty --noise override of the default config's levels
    assert main(["experiment", "--which", "I", "--noise", "", "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert not any("_eps" in p.name for p in out.iterdir())
    assert (out / "H1.csv").exists()


@pytest.mark.parametrize("changes, message", [
    pytest.param({"noise_levels": [1.0000001, 1.0000002], "seeds": [5]},
                 r"noise levels 1\.0000001 and 1\.0000002 share the file tag eps1$",
                 id="file-tag"),
    pytest.param({"noise_levels": [0.0, 2.0, 2.0], "seeds": [5]},
                 r"noise levels 2\.0 and 2\.0 share the file tag eps2$", id="repeated-level"),
    pytest.param({"noise_levels": [0.0001, 0.0002], "seeds": [5]},
                 r"noise levels 0\.0001 and 0\.0002 share the noise stream 0$",
                 id="noise-stream"),
    pytest.param({"noise_levels": [0.0, 2.0], "seeds": [5, 6, 5, 7, 6]},
                 r"seeds repeat: 5, 6$", id="seeds"),
    # int() ran seed 3.7 as 3 and True as 1, and the manifest echo of
    # 3.7 did not load; build_square_mesh rejected such an n only at setup
    pytest.param({"seeds": [3.7, 5]}, r"seeds must be integers, got 3\.7$",
                 id="fractional-seed"),
    pytest.param({"seeds": [5, True]}, r"seeds must be integers, got True$",
                 id="bool-seed"),
    pytest.param({"seeds": [4, -1]}, r"seeds must be nonnegative$", id="negative-seed"),
    pytest.param({"mesh_n": True}, r"mesh n must be an integer >= 1, got True$",
                 id="bool-mesh-n"),
    pytest.param({"mesh_n": 8.0}, r"mesh n must be an integer >= 1, got 8\.0$",
                 id="float-mesh-n"),
    pytest.param({"mesh_n": 0}, r"mesh n must be an integer >= 1, got 0$", id="mesh-n-0"),
    pytest.param({"data_mesh_n": 12.5}, r"data mesh n must be an integer >= 1, got 12\.5$",
                 id="float-data-mesh-n"),
])
def test_config_rejects_colliding_noise_levels_and_repeated_seeds(changes, message):
    # colliding levels would overwrite each other's files and share noise draws;
    # repeated seeds would duplicate error rows
    with pytest.raises(ValidationError, match=message):
        config(**changes)
