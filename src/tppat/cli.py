"""Batch command-line front end.

Subcommands::

    mesh          build and save a structured mesh of (-1, 1)^2
    forward       solve the forward problems, write clean and noisy data
    recon-direct  experiment III as one job: direct (sigma, mu) reconstruction
    recon-lsq     experiment IV as one job: least-squares (sigma, mu)
    gradcheck     finite-difference verification of the adjoint gradient
    experiment    run experiment I, II, III or IV and tabulate errors
    transfer      interpolate a nodal field between two meshes

recon-direct and recon-lsq run the one (noise level, seed) job of --noise
(one level, 0 without it) and the first seed, and write that experiment's
output tree and manifest. Only experiment runs several jobs, so only it
takes --threads. gradcheck checks the clean data, so it takes no --noise.

Exit codes: 0 success, 1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__, fem, transfer
from .config import default_config, load_config, parse_number_list, write_config
from .errors import SolverError, ValidationError
from .experiments import (EXPERIMENTS, POOL_MIN_NODES, run_experiment, run_forward,
                          write_manifest)
from .gradcheck import gradient_check
from .mesh import build_square_mesh, load_mesh, save_mesh


def _load_config(args):
    cfg = load_config(args.config) if getattr(args, "config", None) else default_config()
    changes = {}
    if getattr(args, "noise", None) is not None:
        changes["noise_levels"] = parse_number_list(args.noise, "--noise")
    if getattr(args, "seed", None) is not None:
        changes["seeds"] = [args.seed]
    return dataclasses.replace(cfg, **changes)


def cmd_mesh(args):
    mesh = build_square_mesh(args.n)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, outdir / "mesh.txt")
    write_manifest(outdir, cfg=None, command=f"mesh --n {args.n}")
    print(f"mesh: {mesh.node_count} nodes, {mesh.triangle_count} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges -> {outdir / 'mesh.txt'}")
    return 0


def cmd_forward(args):
    cfg = _load_config(args)
    bundle = run_forward(cfg, args.out)
    n_noisy = len(cfg.noise_levels) * len(bundle.H_clean)
    print(f"forward: wrote {len(bundle.H_clean)} clean and {n_noisy} noisy datum "
          f"files to {args.out}")
    return 0


def cmd_gradcheck(args):
    cfg = _load_config(args)
    result = gradient_check(cfg, directions=args.directions,
                            seed=args.seed if args.seed is not None else 7)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result.save(outdir / "gradcheck.csv")
    write_manifest(outdir, cfg, command="gradcheck")
    print(f"gradcheck: max relative error {result.max_relative_error:.3e} "
          f"over {args.directions} directions (step {result.step:.3e})")
    return 0


def cmd_recon(args):
    """recon-direct and recon-lsq: experiment III or IV as one job."""
    cfg = _load_config(args)
    if args.noise is not None and len(cfg.noise_levels) != 1:
        raise ValidationError(f"{args.command} takes one --noise level")
    levels = [0.0] if args.noise is None else cfg.noise_levels
    return _experiment(args.which, dataclasses.replace(cfg, noise_levels=levels,
                                                       seeds=cfg.seeds[:1]), args.out)


def cmd_experiment(args):
    return _experiment(args.which, _load_config(args), args.out, args.threads)


def _experiment(which, cfg, out, threads=1):
    table = run_experiment(which, cfg, output_dir=out, threads=threads)
    for (coeff, eps), err in table.mean_errors().items():
        print(f"experiment {which}: {coeff} mean error at epsilon={eps:g}: "
              f"{err:.4f}%")
    return 0


def cmd_transfer(args):
    src = load_mesh(args.source_mesh)
    dst = load_mesh(args.target_mesh)
    values = fem.load_field(args.field, src)
    out = transfer.transfer_field(src, dst, values)
    outpath = Path(args.out)
    outpath.parent.mkdir(parents=True, exist_ok=True)
    fem.save_field(outpath, out)
    print(f"transfer: {args.field} ({src.node_count} nodes) -> {outpath} "
          f"({dst.node_count} nodes)")
    return 0


def cmd_write_config(args):
    outpath = Path(args.out)
    outpath.parent.mkdir(parents=True, exist_ok=True)
    write_config(default_config(), outpath)
    print(f"wrote default configuration to {outpath}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tppat",
        description="Two-photon photoacoustic tomography: forward modeling "
                    "and absorption-coefficient reconstruction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, noise=True):
        p.add_argument("--config", help="configuration file (INI); "
                                        "defaults to the built-in phantom")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="base RNG seed override")
        if noise:
            p.add_argument("--noise", help="comma-separated noise levels override")

    p = sub.add_parser("mesh", help="build a structured mesh of (-1,1)^2")
    p.add_argument("--n", type=int, required=True, help="subdivisions per side")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("forward", help="generate synthetic data")
    common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("recon-direct", help="experiment III as one job")
    common(p)
    p.set_defaults(func=cmd_recon, which="III")

    p = sub.add_parser("recon-lsq", help="experiment IV as one job")
    common(p)
    p.set_defaults(func=cmd_recon, which="IV")

    p = sub.add_parser("gradcheck", help="adjoint-gradient finite-difference check")
    common(p, noise=False)
    p.add_argument("--directions", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("experiment", help="run experiment I, II, III or IV")
    p.add_argument("--which", required=True, choices=EXPERIMENTS)
    common(p)
    p.add_argument("--threads", type=int, default=1,
                   help="at most this many worker threads for independent jobs; "
                        f"on a mesh of fewer than {POOL_MIN_NODES} nodes they run "
                        "serially")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("transfer", help="interpolate a field between meshes")
    p.add_argument("--source-mesh", required=True)
    p.add_argument("--target-mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True, help="output field CSV path")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("write-config", help="write the default config to a file")
    p.add_argument("--out", required=True, help="output config path")
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
