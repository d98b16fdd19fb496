"""Batch command-line front end.

Subcommands::

    mesh          build and save a structured mesh of (-1, 1)^2
    forward       solve the forward problems, write clean and noisy data
    recon-direct  direct reconstruction of (sigma, mu) from synthetic data
    recon-lsq     least-squares reconstruction of (sigma, mu)
    gradcheck     finite-difference verification of the adjoint gradient
    experiment    run experiment I, II, III or IV and tabulate errors
    transfer      interpolate a nodal field between two meshes

Exit codes: 0 success, 1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, fem, transfer
from .config import default_config, load_config, parse_number_list, write_config
from .errors import SolverError, ValidationError
from .experiments import (prepare_data, reconstruct, run_experiment, run_forward,
                          write_manifest)
from .gradcheck import gradient_check
from .mesh import build_square_mesh, load_mesh, save_mesh
from .metrics import relative_l2_error


def _load_config(args):
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    if getattr(args, "noise", None):
        cfg.noise_levels = parse_number_list(args.noise, "--noise")
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    return cfg.validate()


def cmd_mesh(args):
    mesh = build_square_mesh(args.n)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, outdir / "mesh.txt")
    (outdir / "manifest.txt").write_text(
        f"tppat manifest\nversion = {__version__}\ncommand = mesh --n {args.n}\n",
        encoding="ascii")
    print(f"mesh: {mesh.node_count} nodes, {mesh.triangle_count} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges -> {outdir / 'mesh.txt'}")
    return 0


def cmd_forward(args):
    cfg = _load_config(args)
    bundle = run_forward(cfg, args.out, base_seed=args.seed, threads=args.threads)
    n_noisy = len(cfg.noise_levels) * len(bundle.H_clean)
    print(f"forward: wrote {len(bundle.H_clean)} clean and {n_noisy} noisy datum "
          f"files to {args.out}")
    return 0


def _recon_common(args, algorithm):
    cfg = _load_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = prepare_data(cfg, threads=args.threads)
    eps = 0.0
    if args.noise:
        if len(cfg.noise_levels) != 1:
            raise ValidationError(f"recon-{algorithm} takes one --noise level")
        eps = cfg.noise_levels[0]
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    datum_set = bundle.datum_set(eps, seed)
    mesh = bundle.mesh

    fields = reconstruct("III" if algorithm == "direct" else "IV", bundle, datum_set)
    sigma, mu = fields["sigma"], fields["mu"]
    report = "condition_report" if algorithm == "direct" else "lsq_report"
    fields[report].save(outdir / f"{report}.csv")

    fem.save_field(outdir / "sigma.csv", sigma, clipped_path=outdir / "sigma_clipped.csv")
    fem.save_field(outdir / "mu.csv", mu, clipped_path=outdir / "mu_clipped.csv")
    err_s = relative_l2_error(sigma, bundle.coeffs.single_photon, mesh)
    err_m = relative_l2_error(mu, bundle.coeffs.two_photon, mesh)
    lines = ["coefficient,epsilon,seed,error_percent",
             f"sigma,{eps:g},{seed},{err_s:.17g}",
             f"mu,{eps:g},{seed},{err_m:.17g}"]
    (outdir / "errors.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(outdir, cfg, command=f"recon-{algorithm}", base_seed=seed)
    print(f"recon-{algorithm}: sigma error {err_s:.4f}%, mu error {err_m:.4f}% "
          f"(epsilon={eps:g}, seed={seed})")
    return 0


def cmd_recon_direct(args):
    return _recon_common(args, "direct")


def cmd_recon_lsq(args):
    return _recon_common(args, "lsq")


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


def cmd_experiment(args):
    cfg = _load_config(args)
    table = run_experiment(args.which, cfg, output_dir=args.out,
                           threads=args.threads)
    for (coeff, eps), err in table.mean_errors().items():
        print(f"experiment {args.which}: {coeff} mean error at epsilon={eps:g}: "
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

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="configuration file (INI); "
                                            "defaults to the built-in phantom")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="base RNG seed override")
        p.add_argument("--noise", help="comma-separated noise levels override")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent jobs")

    p = sub.add_parser("mesh", help="build a structured mesh of (-1,1)^2")
    p.add_argument("--n", type=int, required=True, help="subdivisions per side")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("forward", help="generate synthetic data")
    common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("recon-direct", help="direct (sigma, mu) reconstruction")
    common(p)
    p.set_defaults(func=cmd_recon_direct)

    p = sub.add_parser("recon-lsq", help="least-squares (sigma, mu) reconstruction")
    common(p)
    p.set_defaults(func=cmd_recon_lsq)

    p = sub.add_parser("gradcheck", help="adjoint-gradient finite-difference check")
    common(p)
    p.add_argument("--directions", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("experiment", help="run experiment I, II, III or IV")
    p.add_argument("--which", required=True, choices=["I", "II", "III", "IV"])
    common(p)
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
