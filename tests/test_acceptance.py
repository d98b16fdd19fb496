"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import time

import numpy as np

from tppat import experiments
from tppat.cli import main
from tppat.config import write_config
from tppat.direct import recover_pair
from tppat.experiments import prepare_data, run_experiment
from tppat.fem import CoefficientSet, assemble_stiffness, lumped_mass
from tppat.forward import (BoundarySource, ForwardOperator, compute_datum,
                           solve_semilinear)
from tppat.gradcheck import gradient_check
from tppat.mesh import build_square_mesh
from tppat.metrics import relative_l2_error

from builders import bundle, config
from oracle import dense
from properties import check_comparison, check_max_principle, check_positivity
from sensitivity import (CoefficientPerturbation, boundary_traces, datum_derivative,
                         perturbed_coefficients, solve_sensitivity)

# Reference results for this benchmark problem family: direct-method pair
# reconstruction errors at 5% noise, and least-squares pair errors on
# noiseless data. The noise bands are checked within a factor of two (exact
# digits depend on the unpublished phantom values and noise realizations).
DIRECT_EPS5_REF = (3.91, 13.71)
LSQ_EPS0_REF = (0.22, 2.38)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_direct_noiseless_exact_recovery():
    start = time.monotonic()
    cfg = config(mesh_n=32)
    b = prepare_data(cfg)                            # 4 strictly positive sources
    ds = b.datum_set(0.0, cfg.seeds[0])
    sigma, mu, _ = recover_pair(b.operator, b.coeffs.gruneisen, ds)
    err_s = relative_l2_error(sigma, b.coeffs.single_photon, b.mesh)
    err_m = relative_l2_error(mu, b.coeffs.two_photon, b.mesh)
    elapsed = time.monotonic() - start
    report(1, err_s <= 0.5 and err_m <= 0.5 and elapsed < 30.0,
           f"direct noiseless n=32: sigma {err_s:.2e}%, mu {err_m:.2e}% "
           f"(<= 0.5% each), {elapsed:.1f}s < 30s")


def test_criterion_2_lsq_noiseless_recovery():
    start = time.monotonic()
    cfg = config(mesh_n=32, noise_levels=[0.0])
    err_mu_ii = run_experiment("II", cfg).mean_errors()[("mu", 0.0)]
    means_iv = run_experiment("IV", cfg).mean_errors()
    err_s_iv = means_iv[("sigma", 0.0)]
    err_m_iv = means_iv[("mu", 0.0)]
    elapsed = time.monotonic() - start
    ok = (err_mu_ii <= 1.0
          and err_s_iv <= 3.0 * LSQ_EPS0_REF[0]
          and err_m_iv <= 3.0 * LSQ_EPS0_REF[1]
          and elapsed < 300.0)
    report(2, ok,
           f"lsq noiseless: II mu {err_mu_ii:.2e}% (<= 1%), "
           f"IV sigma {err_s_iv:.2e}% (<= {3 * LSQ_EPS0_REF[0]:.2f}%), "
           f"IV mu {err_m_iv:.2e}% (<= {3 * LSQ_EPS0_REF[1]:.2f}%), "
           f"{elapsed:.1f}s < 300s")


def test_criterion_3_gradient_correctness():
    start = time.monotonic()
    result = gradient_check(config(mesh_n=16), directions=20, seed=7)
    elapsed = time.monotonic() - start
    report(3, result.max_relative_error <= 1e-4 and elapsed < 120.0,
           f"adjoint vs central FD, 20 directions on n=16: max relative error "
           f"{result.max_relative_error:.2e} (<= 1e-4), {elapsed:.1f}s < 120s")


def test_criterion_4_frechet_linearization_order():
    tight = 1e-13       # Newton residual of the base and perturbed states
    b = prepare_data(config(mesh_n=16))
    mesh, coeffs = b.mesh, b.coeffs
    g = b.sources[2]
    u, _ = solve_semilinear(b.operator, coeffs.single_photon, coeffs.two_photon,
                            g, tight)
    rng = np.random.default_rng(11)
    n = mesh.node_count
    pert = CoefficientPerturbation(
        d_gamma=0.1 * coeffs.diffusion * rng.uniform(-1, 1, n),
        d_sigma=0.2 * coeffs.single_photon * rng.uniform(-1, 1, n),
        d_mu=0.2 * coeffs.two_photon * rng.uniform(-1, 1, n))
    v = solve_sensitivity(b.operator, coeffs.single_photon, coeffs.two_photon,
                          u, pert, tol=1e-13)
    dH = datum_derivative(coeffs, u, v, pert)
    H0 = compute_datum(coeffs, u)

    m = lumped_mass(mesh)

    def l2(f):
        return float(np.sqrt((m * f * f).sum()))

    remainders = []
    for t in (1e-2, 5e-3, 2.5e-3):
        ct = perturbed_coefficients(coeffs, pert.scaled(t))
        ut, _ = solve_semilinear(ForwardOperator(mesh, ct.diffusion),
                                 ct.single_photon, ct.two_photon, g, tight)
        remainders.append(l2(compute_datum(ct, ut) - H0 - t * dH))
    orders = [float(np.log2(remainders[i] / remainders[i + 1])) for i in range(2)]
    report(4, all(o >= 1.9 for o in orders),
           f"datum linearization remainder orders {orders[0]:.3f}, "
           f"{orders[1]:.3f} (>= 1.9) over t in {{1e-2, 5e-3, 2.5e-3}}")


def _random_theory_configuration(rng, meshes):
    n = int(rng.choice(list(meshes)))
    mesh = meshes[n]
    N = mesh.node_count
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]

    def smooth(lo, hi):
        mid = rng.uniform(lo, hi)
        amp = min(mid - lo, hi - mid) * rng.uniform(0.3, 1.0)
        wave = np.sin(rng.uniform(0.5, 2.0) * np.pi * x + rng.uniform(0, 6.28)) \
            * np.cos(rng.uniform(0.5, 2.0) * np.pi * y + rng.uniform(0, 6.28))
        return np.clip(mid + amp * wave, lo, hi)

    coeffs = CoefficientSet(gruneisen=np.ones(N),
                            diffusion=smooth(0.15, 1.0),
                            single_photon=smooth(0.02, 0.3),
                            two_photon=smooth(0.02, 0.3))
    eps = rng.uniform(0.2, 0.8)
    bx, by = rng.uniform(-0.5, 0.5, 2)
    a = max(rng.uniform(eps, 2.0), eps + abs(bx) + abs(by))
    gap = rng.uniform(0.1, 0.5)
    px, py = mesh.nodes[mesh.boundary_list].T
    g_small = BoundarySource(mesh, a + bx * px + by * py)
    g_large = BoundarySource(mesh, a + bx * px + by * py + gap)
    return mesh, coeffs, g_small, g_large


def test_criterion_5_pde_theory_suite():
    rng = np.random.default_rng(20240501)
    meshes = {n: build_square_mesh(n) for n in (8, 10, 12, 16)}
    failures = []
    for trial in range(50):
        mesh, coeffs, g_small, g_large = _random_theory_configuration(rng, meshes)
        op = ForwardOperator(mesh, coeffs.diffusion)
        u_small, _ = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon,
                                      g_small)
        u_large, _ = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon,
                                      g_large)
        checks = {
            "maximum": check_max_principle(u_small, g_small, tol=1e-8),
            "positivity": check_positivity(u_small, epsilon=g_small.min_value),
            "comparison": check_comparison(u_large, u_small, mesh),
        }
        for name, result in checks.items():
            if not result.passed:
                failures.append((trial, name, str(result)))
    report(5, not failures,
           f"50 randomized configurations: maximum principle, positivity, "
           f"comparison all pass ({len(failures)} failures)"
           + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_6_noise_stability_trend():
    cfg = config(mesh_n=32)
    assert cfg.noise_levels == [0.0, 1.0, 2.0, 5.0]
    assert len(cfg.seeds) == 10

    direct_means = run_experiment("III", cfg).mean_errors()
    # the eps=5 reference band is a direct-method statement (checked on the
    # n=32 benchmark mesh above); the least-squares trend is mesh-agnostic,
    # so run it on n=16 to keep the sweep quick
    lsq_means = run_experiment("IV", config(mesh_n=16), threads=2).mean_errors()

    problems = []
    for label, means in (("direct", direct_means), ("lsq", lsq_means)):
        for coeff in ("sigma", "mu"):
            errs = [means[(coeff, eps)] for eps in (0.0, 1.0, 2.0, 5.0)]
            if not all(errs[i + 1] >= errs[i] for i in range(3)):
                problems.append(f"{label} {coeff} trend {errs}")

    s5 = direct_means[("sigma", 5.0)]
    m5 = direct_means[("mu", 5.0)]
    if not (DIRECT_EPS5_REF[0] / 2.0 <= s5 <= DIRECT_EPS5_REF[0] * 2.0):
        problems.append(f"direct sigma at eps=5: {s5:.2f}% outside "
                        f"[{DIRECT_EPS5_REF[0] / 2:.2f}, {DIRECT_EPS5_REF[0] * 2:.2f}]")
    if not (DIRECT_EPS5_REF[1] / 2.0 <= m5 <= DIRECT_EPS5_REF[1] * 2.0):
        problems.append(f"direct mu at eps=5: {m5:.2f}% outside "
                        f"[{DIRECT_EPS5_REF[1] / 2:.2f}, {DIRECT_EPS5_REF[1] * 2:.2f}]")

    report(6, not problems,
           f"means over 10 seeds nondecreasing in eps for both algorithms; "
           f"direct at eps=5: sigma {s5:.2f}%, mu {m5:.2f}% within factor 2 "
           f"of ({DIRECT_EPS5_REF[0]}%, {DIRECT_EPS5_REF[1]}%)"
           + ("; " + "; ".join(problems) if problems else ""))


@functools.lru_cache(maxsize=None)
def _stability_means(n, which):
    """Mean errors of the n x n sweep of criterion 6's linearity checks."""
    b = bundle(mesh_n=n, noise_levels=[1.0, 2.0, 5.0], seeds=list(range(111, 121)))
    return run_experiment(which, b.config, bundle=b).mean_errors()


def _linearity_problems(experiments):
    """Each mean error / eps of experiments at n = 16/32/64, eps = 1/2/5 and
    seeds 111-120 against its coefficient's mean ratio: (labels, problems)."""
    ratios: dict = {}
    for n in (16, 32, 64):
        for which in experiments:
            for (coeff, eps), err in _stability_means(n, which).items():
                ratios.setdefault(f"{which} {coeff}", []).append(err / eps)
    return sorted(ratios), _spread_problems(ratios, "error / eps")


def _spread_problems(ratios, what):
    """The coefficients of ratios ({label: values}) whose values stray more
    than 10 % from their mean, each as a line naming what they are."""
    problems = []
    for label, values in ratios.items():
        mean = float(np.mean(values))
        worst = max(abs(r / mean - 1.0) for r in values)
        if worst > 0.1:
            problems.append(f"{label}: {what} {min(values):.3f}-{max(values):.3f} "
                            f"strays {worst:.1%} from {mean:.3f}")
    return problems


def test_criterion_6_direct_error_linear_in_noise_level():
    # the paper's stability estimates: the direct error grows linearly in
    # epsilon with a mesh-independent constant, so each mean error / epsilon
    # lies within 10 % of its coefficient's mean ratio (worst 3.4 %). The
    # crime guard is not checked: its interpolation error adds a floor that
    # does not depend on epsilon
    labels, problems = _linearity_problems(("I", "III"))
    report(6, len(labels) == 3 and not problems,
           f"direct error / eps within 10 % of one constant per coefficient over "
           f"n = 16/32/64 and eps = 1/2/5"
           + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_6_least_squares_error_linear_in_noise_level():
    # the same for least squares, which starts at the direct fit of its
    # datum and fits in the same noise metric: its error is linear in epsilon
    # as well (worst 3.7 %), and II (IV) is no worse than I (III) by more
    # than 2 % relative at every n, epsilon and coefficient (worst 0.53 %)
    labels, problems = _linearity_problems(("II", "IV"))
    for lsq_which, direct_which in (("II", "I"), ("IV", "III")):
        for n in (16, 32, 64):
            direct_means = _stability_means(n, direct_which)
            for key, err in _stability_means(n, lsq_which).items():
                if err > 1.02 * direct_means[key]:
                    problems.append(f"{lsq_which} {key[0]} at n={n}, eps={key[1]:g}: "
                                    f"{err:.3f}% above {direct_which}'s "
                                    f"{direct_means[key]:.3f}% by more than 2 %")
    report(6, len(labels) == 3 and not problems,
           f"least-squares error / eps within 10 % of one constant per coefficient, "
           f"II and IV within 2 % of I and III over n = 16/32/64 and eps = 1/2/5"
           + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_6_crime_guard_noise_adds_in_quadrature():
    # with the crime guard the data carry an interpolation floor a(h), and
    # the direct error adds the noise to it in quadrature, err(eps) =
    # sqrt(a(h)^2 + (b eps)^2): each sqrt(err(eps)^2 - err(0)^2) / eps at
    # 24 <- 32 and 48 <- 64, eps = 1/2/5, seeds 111-120, lies within 10 % of
    # its coefficient's mean b (worst 5.5 %; b is 0.78 for I mu and 0.71/1.48
    # for III sigma/mu, and 96 <- 128 gives the same). The linear form
    # a(h) + b eps does not hold: (err(eps) - err(0)) / eps strays up to
    # 88 % from its mean. A noisy error below the floor counts as b = 0
    ratios: dict = {}
    for n in (24, 48):
        cfg = config(mesh_n=n, data_mesh_n=4 * n // 3, noise_levels=[0.0, 1.0, 2.0, 5.0],
                     seeds=list(range(111, 121)))
        b = prepare_data(cfg)
        for which in ("I", "III"):
            means = run_experiment(which, cfg, bundle=b).mean_errors()
            for (coeff, eps), err in means.items():
                if eps > 0.0:
                    noise = max(err ** 2 - means[(coeff, 0.0)] ** 2, 0.0)
                    ratios.setdefault(f"{which} {coeff}", []).append(np.sqrt(noise) / eps)
    problems = _spread_problems(ratios, "sqrt(err^2 - err(0)^2) / eps")
    report(6, len(ratios) == 3 and not problems,
           f"crime-guard error sqrt(err^2 - err(0)^2) / eps within 10 % of one "
           f"constant per coefficient over 24 <- 32, 48 <- 64 and eps = 1/2/5"
           + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_7_oracle_equivalence():
    # dense brute-force Newton on the 9-node mesh
    mesh = build_square_mesh(2)
    n = mesh.node_count
    coeffs = CoefficientSet(np.ones(n), np.full(n, 0.3), np.full(n, 0.2),
                            np.full(n, 0.15))
    g = BoundarySource.constant(mesh, 1.0)

    K = dense(assemble_stiffness(mesh, coeffs.diffusion))
    m = lumped_mass(mesh)
    bl = mesh.boundary_list
    u_dense = np.zeros(n)
    u_dense[bl] = g.values
    for _ in range(100):
        F = K @ u_dense + m * (coeffs.single_photon * u_dense
                               + coeffs.two_photon * np.abs(u_dense) * u_dense)
        F[bl] = 0.0
        if np.linalg.norm(F) <= 1e-14:
            break
        J = K + np.diag(m * (coeffs.single_photon
                             + 2.0 * coeffs.two_photon * np.abs(u_dense)))
        J[bl, :] = 0.0
        J[:, bl] = 0.0
        J[bl, bl] = 1.0
        u_dense = u_dense - np.linalg.solve(J, F)

    u, rep = solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                              coeffs.single_photon, coeffs.two_photon, g, 1e-13)
    gap = float(np.abs(u - u_dense).max())

    # boundary-trace substitution example: (phi2, phi3) = (1, 1)
    g1 = BoundarySource.constant(mesh, 2.0)
    g2 = BoundarySource.constant(mesh, 1.0)
    phi2, phi3 = boundary_traces(np.full(n, 6.0), np.full(n, 2.0), g1, g2,
                                 np.ones(n))
    trace_gap = max(float(np.abs(phi2 - 1.0).max()),
                    float(np.abs(phi3 - 1.0).max()))
    report(7, rep.converged and gap <= 1e-10 and trace_gap <= 1e-12,
           f"semilinear solve vs dense Newton oracle: max gap {gap:.2e} "
           f"(<= 1e-10); boundary traces reproduce (1, 1) to {trace_gap:.2e}")


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # a mesh this small runs its jobs serially; with every mesh size on the
    # pool the 4-thread run really runs them at once
    monkeypatch.setattr(experiments, "POOL_MIN_NODES", 0)
    cfg_path = tmp_path / "config.ini"
    write_config(config(mesh_n=6, noise_levels=[0.0, 2.0], seeds=[5, 6]), cfg_path)

    def read_tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())
                if p.is_file()}

    runs = {}
    for tag in ("fwd1", "fwd2"):
        out = tmp_path / tag
        assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
        runs[tag] = read_tree(out)
    forward_same = runs["fwd1"] == runs["fwd2"]

    for tag, threads in (("exp1", "1"), ("exp2", "4")):
        out = tmp_path / tag
        assert main(["experiment", "--which", "III", "--config", str(cfg_path),
                     "--out", str(out), "--threads", threads]) == 0
        runs[tag] = read_tree(out)
    threads_same = runs["exp1"] == runs["exp2"]

    report(8, forward_same and threads_same,
           f"byte-identical outputs: repeated forward runs {forward_same}, "
           f"experiment III with 1 vs 4 threads {threads_same}")
