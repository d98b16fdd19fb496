"""End-to-end pins of the command line at full size, run in process.

Each row writes one config, default_config() with some fields changed, runs
tppat.cli.main on each of its argv lists (every one must exit 0) and checks
the trees they write. The thread pool is left as it is: below
experiments.POOL_MIN_NODES nodes both sides of a one/two-thread pair run
serially, and the n = 128 rows really solve on two workers.
"""

import dataclasses

import pytest

from tppat.cli import main
from tppat.config import write_config

from builders import config

DEFAULT = config()
NOISE = "noise level reached"


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def threads(name, argv):
    """The runs name1 and name2 of argv on one and on two threads."""
    return {f"{name}{t}": f"{argv} --threads {t}" for t in (1, 2)}


def same(name):
    """Criterion 8: the tree does not depend on the worker count."""
    def check(out):
        one, two = tree(out / f"{name}1"), tree(out / f"{name}2")
        assert one.keys() == two.keys()
        assert [p for p in one if one[p] != two[p]] == []
    return check


def newton_steps(name, *steps):
    """One converged forward row per source, with these Newton step counts."""
    def check(out):
        report = rows(out / name / "forward_report.csv")
        assert [int(r[1]) for r in report] == list(steps)
        assert all(r[2] == "1" and float(r[3]) <= 1e-10 for r in report)
    return check


def line_count(name, count):
    def check(out):
        assert len((out / name).read_text().splitlines()) == count
    return check


def means(run, eps):
    return {r[2]: float(r[4]) for r in rows(run / "errors_mean.csv") if float(r[3]) == eps}


def noiseless_within(name, percent):
    """Both mean errors of the noiseless run are within percent."""
    def check(out):
        got = means(out / name, 0.0)
        assert got.keys() == {"sigma", "mu"} and max(got.values()) <= percent, got
    return check


def means_near(name, reference, eps, share):
    """name's mean errors at eps lie within share of reference's."""
    def check(out):
        got, want = means(out / name, eps), means(out / reference, eps)
        assert got.keys() == want.keys() == {"sigma", "mu"}
        assert all(abs(got[c] - want[c]) <= share * want[c] for c in want), (got, want)
    return check


def stops(name, **last_rows):
    """Each least-squares report's last row: iterations, converged, message.

    A change to a tolerance, a stop rule or a step shows in the counts.
    """
    def check(out):
        for eps, (iterations, message) in last_rows.items():
            last = rows(out / name / f"lsq_report_{eps}.csv")[-1]
            assert (int(last[0]), last[4], last[5]) == (iterations, "1", message), eps
    return check


ROWS = [
    # the default problem's Newton counts show a change to the forcing terms;
    # transfer reads two mesh files and a field file
    pytest.param({}, {"fwd": "forward --noise 0", "m12": "mesh --n 12",
                      "t.csv": "transfer --source-mesh {out}/fwd/mesh.txt --target-mesh "
                               "{out}/m12/mesh.txt --field {out}/fwd/u1.csv"},
                 [newton_steps("fwd", 3, 4, 4, 4)], id="forward"),
    pytest.param({}, threads("e3t", "experiment --which III"), [same("e3t")],
                 id="III-threads"),
    # the size where the sine preconditioner's products release the GIL
    pytest.param({"mesh_n": 128}, threads("e3t", "experiment --which III"),
                 [same("e3t")], id="III-n128-threads"),
    # the density solves start from the clean fields and take no iteration
    pytest.param({"mesh_n": 128}, {"e3": "experiment --which III --noise 0"},
                 [noiseless_within("e3", 0.5)], id="III-n128-noiseless"),
    # the least-squares jobs share the bundle's operator on two workers
    pytest.param({"mesh_n": 128}, threads("e4t", "experiment --which IV --noise 0,2"),
                 [same("e4t")], id="IV-n128-threads"),
    # data on an n = 48 mesh moved to the reconstruction mesh; the transferred
    # datum has the n = 32 mesh's 1089 nodes and a header
    pytest.param({"data_mesh_n": 48},
                 {**threads("g3t", "experiment --which III --noise 0,2"),
                  **threads("g4t", "experiment --which IV --noise 0,2"),
                  "gfwd": "forward --noise 0,2",
                  "gH1.csv": "transfer --source-mesh {out}/gfwd/data_mesh.txt --target-mesh "
                             "{out}/gfwd/mesh.txt --field {out}/gfwd/H1_eps2_seed101.csv"},
                 [same("g3t"), same("g4t"), line_count("gH1.csv", 1090)],
                 id="crime-guard"),
    # the direct_crime_guard workload's sizes: setup's solves go to the pool
    pytest.param({"mesh_n": 96, "data_mesh_n": 128},
                 threads("g3t", "experiment --which III --noise 0,2"), [same("g3t")],
                 id="crime-guard-128"),
    pytest.param({}, {"e1": "experiment --which I --noise 0,2"}, [], id="I"),
    # both fits weigh the data by the noise, so least squares starts at its
    # own minimizer, and IV's errors at 5 % are III's to within 2 %
    pytest.param({}, {**threads("e4t", "experiment --which IV --noise 0,2,5"),
                      "e3": "experiment --which III --noise 5"},
                 [same("e4t"), means_near("e4t1", "e3", 5.0, 0.02),
                  stops("e4t1", eps0=(0, ""), eps2=(0, NOISE), eps5=(0, NOISE))],
                 id="IV"),
    # the regularizer enters the objective, the gradient and the initial metric
    pytest.param({"lsq": dataclasses.replace(DEFAULT.lsq, kappa=1e-3)},
                 {"e4": "experiment --which IV --noise 0,2"},
                 [stops("e4", eps0=(4, ""), eps2=(1, NOISE))], id="IV-kappa"),
    # bound_ceiling below sigma's inclusion (0.3): the start is projected
    # onto the box, and every job iterates
    pytest.param({"lsq": dataclasses.replace(DEFAULT.lsq, bound_ceiling=0.25)},
                 {"e4": "experiment --which IV --noise 0,2,5"},
                 [stops("e4", eps0=(13, ""), eps2=(5, NOISE), eps5=(3, NOISE))],
                 id="IV-box"),
    # sigma starts at the midpoint of the bounds
    pytest.param({"sources": DEFAULT.sources[:1]},
                 {"e4": "experiment --which IV --noise 0,2,5"},
                 [stops("e4", eps0=(11, ""), eps2=(7, NOISE), eps5=(6, NOISE))],
                 id="IV-one-source"),
    pytest.param({}, threads("e2t", "experiment --which II --noise 0,2,5"),
                 [same("e2t"), stops("e2t1", eps0=(0, ""), eps2=(0, NOISE), eps5=(1, NOISE))],
                 id="II"),
    # no interior node: every adjoint is exact, and II and IV stop at the start
    pytest.param({"mesh_n": 1}, {"e2": "experiment --which II --noise 0,2",
                                 "e4": "experiment --which IV --noise 0,2"},
                 [stops(name, eps0=(0, ""), eps2=(0, "")) for name in ("e2", "e4")],
                 id="n1"),
]


@pytest.mark.parametrize("edit, runs, checks", ROWS)
def test_cli_run(edit, runs, checks, tmp_path):
    path = tmp_path / "config.ini"
    write_config(config(**edit), path)
    out = tmp_path / "out"
    for name, argv in runs.items():
        argv = [a.format(out=out) for a in argv.split()] + ["--out", str(out / name)]
        if argv[0] not in ("mesh", "transfer"):
            argv += ["--config", str(path)]
        assert main(argv) == 0, argv
    for check in checks:
        check(out)
