import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tppat import direct, fem, lsq
from tppat.direct import NOISE_SAFETY, DatumSet, recover_all_fields, recover_pair
from tppat.errors import ValidationError
from tppat.experiments import EXPERIMENTS, prepare_data, reconstruct, run_experiment
from tppat.forward import RESIDUAL_TOL, BoundarySource, ForwardOperator, solve_semilinear
from tppat.gradcheck import _fd_directional_derivative as fd_directional_derivative
from tppat.gradcheck import gradient_check
from tppat.lsq import (Evaluator, LsqConfig, _Box, gauss_newton_blocks, gauss_newton_step,
                       run_lsq)
from tppat.mesh import build_square_mesh
from tppat.metrics import relative_l2_error

from builders import bundle, config, jittered_mesh

# Newton residual and adjoint relative residual of the exactness tests' solves
TIGHT = 1e-12
# the default sources, for configs with some of them only
SOURCES = config().sources


def datum(bundle, eps=0.0, seed=1):
    return bundle.datum_set(eps, seed)


def evaluator(bundle, kappa=0.0):
    """An evaluator at the bundle's true Gamma and gamma."""
    return Evaluator(bundle.operator, bundle.coeffs.gruneisen, datum(bundle), kappa=kappa)


def tight_states(ev, sigma, mu):
    """Cold-started forward states at (sigma, mu), each solved to TIGHT."""
    return ev.forward_states(sigma, mu, residual_tols=[TIGHT] * ev.data.size)


def phi(ev, sigma, mu):
    """Phi at (sigma, mu) from tight cold-started forward states."""
    return ev.objective(sigma, mu, tight_states(ev, sigma, mu))


def first_pass(adjoint_tol):
    """Whether an Evaluator.gradient call is run_lsq's first pass at a point,
    which passes one adjoint tolerance per source; a gradient a step uses
    passes DatumSet.noise_tol alone."""
    return np.ndim(adjoint_tol) == 1


def test_objective_zero_at_truth():
    b = bundle(mesh_n=8)
    value = phi(evaluator(b), b.coeffs.single_photon, b.coeffs.two_photon)
    scale = max(float(np.abs(H).max()) for H in b.H_clean) ** 2
    assert value <= 1e-16 * scale


def test_regularizer_vanishes_for_constants():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    trial = (np.full(n, 0.2), np.full(n, 0.08))
    assert phi(evaluator(b, kappa=10.0), *trial) == phi(evaluator(b, kappa=0.0), *trial)


def test_forward_states_depend_only_on_their_arguments():
    # one evaluator at A, at B, then at A again: the second visit to A
    # starts cold as the first did, not from the states at B
    b = bundle(mesh_n=8)
    ev = evaluator(b)
    a = (b.coeffs.single_photon, b.coeffs.two_photon)
    far = (1.5 * a[0], 0.5 * a[1])
    first = ev.forward_states(*a)
    ev.forward_states(*far)
    again = ev.forward_states(*a)
    for x, y in zip(first[0] + first[1], again[0] + again[1]):
        assert np.array_equal(x, y)


def test_objective_affine_in_kappa():
    b = bundle(mesh_n=8)
    rng = np.random.default_rng(0)
    n = b.mesh.node_count
    trial = (b.coeffs.single_photon * (1 + 0.1 * rng.uniform(-1, 1, n)),
             b.coeffs.two_photon * (1 + 0.1 * rng.uniform(-1, 1, n)))
    K1 = fem.assemble_stiffness(b.mesh, np.ones(n))
    R = 0.5 * sum(float(c @ (K1 @ c)) for c in trial)
    v1 = phi(evaluator(b, kappa=0.5), *trial)
    v2 = phi(evaluator(b, kappa=1.0), *trial)
    assert v2 - v1 == pytest.approx(0.5 * R, rel=1e-12)


def test_adjoint_zero_residual():
    b = bundle(mesh_n=8)
    ev = evaluator(b)
    v = ev.solve_adjoint(b.coeffs.single_photon, b.coeffs.two_photon,
                         b.u_clean[0], np.zeros(b.mesh.node_count))
    assert np.all(v == 0.0)


def test_adjoint_linear_in_residual():
    b = bundle(mesh_n=8)
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, b.mesh.node_count)
    ev = evaluator(b)
    sigma, mu, u = b.coeffs.single_photon, b.coeffs.two_photon, b.u_clean[0]
    v1 = ev.solve_adjoint(sigma, mu, u, z)
    v2 = ev.solve_adjoint(sigma, mu, u, 2.0 * z)
    assert np.abs(v2 - 2.0 * v1).max() <= 1e-9 * np.abs(v1).max()


def test_gradient_vanishes_at_noiseless_truth():
    b = bundle(mesh_n=8)
    ev = evaluator(b)
    truth = (b.coeffs.single_photon, b.coeffs.two_photon)
    g_sigma, g_mu = ev.gradient(*truth, tight_states(ev, *truth), adjoint_tol=TIGHT)
    scale = float(np.abs(b.coeffs.single_photon).max())
    assert np.abs(g_sigma).max() <= 1e-8 * scale
    assert np.abs(g_mu).max() <= 1e-8 * scale


def test_adjoint_solves_run_at_linear_tol(monkeypatch):
    b = bundle(mesh_n=8)
    ev = evaluator(b)
    sigma, mu = b.coeffs.single_photon * 1.1, b.coeffs.two_photon * 0.9
    states = ev.forward_states(sigma, mu)
    tols = []
    run = fem.ConjugateGradient.run

    def recording(self, tol):
        tols.append(tol)
        return run(self, tol)

    monkeypatch.setattr(fem.ConjugateGradient, "run", recording)
    ev.gradient(sigma, mu, states)
    assert tols == [fem.DEFAULT_TOL] * 4
    tols.clear()
    ev.gradient(sigma, mu, states, adjoint_tol=TIGHT)
    assert tols == [TIGHT] * 4


def test_gradient_matches_finite_differences_small():
    result = gradient_check(config(mesh_n=8), directions=3, seed=5)
    assert result.max_relative_error <= 1e-5


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), grid=st.booleans(), seed=st.integers(0, 2**32 - 1),
       kappa=st.sampled_from([0.0, 1e-3]))
def test_adjoint_gradient_matches_central_differences_on_random_meshes(
        n, grid, seed, kappa):
    # the grid takes the sine-preconditioned solves, the jittered mesh Jacobi
    mesh = build_square_mesh(n) if grid else jittered_mesh(n, seed, 0.3 / n)
    rng = np.random.default_rng(seed)
    m = mesh.node_count
    op = ForwardOperator(mesh, rng.uniform(0.1, 0.5, m))
    assert (op.sine is not None) == grid
    gruneisen = rng.uniform(0.5, 1.5, m)
    bounds = LsqConfig()

    def in_bounds():
        return rng.uniform(bounds.bound_floor, bounds.bound_ceiling, m)

    # noiseless data of one in-bounds pair, derivatives at another
    sources = [BoundarySource(mesh, rng.uniform(0.5, 3.0, len(mesh.boundary_list)))
               for _ in range(2)]
    sigma_true, mu_true = in_bounds(), in_bounds()
    data = []
    for g in sources:
        u, _ = solve_semilinear(op, sigma_true, mu_true, g, TIGHT)
        data.append(gruneisen * (sigma_true * u + mu_true * np.abs(u) * u))
    data = DatumSet(sources=sources, data=data)
    sigma, mu = in_bounds(), in_bounds()
    x0 = np.concatenate([sigma, mu])
    ev = Evaluator(op, gruneisen, data, kappa)
    g_sigma, g_mu = ev.gradient(sigma, mu, tight_states(ev, sigma, mu), adjoint_tol=TIGHT)
    grad = np.concatenate([g_sigma, g_mu])
    weights = np.concatenate([op.lumped, op.lumped])

    for d in rng.uniform(-1.0, 1.0, (2, 2 * m)):
        adjoint = float((weights * grad * d).sum())
        fd = fd_directional_derivative(lambda x: phi(ev, x[:m], x[m:]), x0, d,
                                       1e-6 * float(np.abs(x0).max()))
        assert abs(adjoint - fd) <= 1e-5 * max(abs(adjoint), abs(fd))


def test_kappa_only_gradient_is_stiffness_term():
    # data consistent with the trial point makes the misfit part vanish,
    # leaving exactly kappa * M^-1 K1 applied to each field
    b = bundle(mesh_n=8)
    mesh = b.mesh
    ds = datum(b)
    kappa = 2.5
    ev = Evaluator(b.operator, b.coeffs.gruneisen, ds, kappa=kappa)
    truth = (b.coeffs.single_photon, b.coeffs.two_photon)
    g_sigma, g_mu = ev.gradient(*truth, tight_states(ev, *truth), adjoint_tol=TIGHT)
    K1 = fem.assemble_stiffness(mesh, np.ones(mesh.node_count))
    m = fem.lumped_mass(mesh)
    expected_sigma = kappa * (K1 @ b.coeffs.single_photon) / m
    expected_mu = kappa * (K1 @ b.coeffs.two_photon) / m
    # the misfit contribution is zero up to solver tolerance
    assert np.abs(g_sigma - expected_sigma).max() <= 1e-8
    assert np.abs(g_mu - expected_mu).max() <= 1e-8


def test_run_lsq_stationary_at_truth():
    b = bundle(mesh_n=8)
    cfg = LsqConfig(kappa=0.0, bound_floor=0.01, bound_ceiling=1.0)
    sigma, mu, report = run_lsq(
        b.operator, b.coeffs.gruneisen, datum(b),
        (b.coeffs.single_photon, b.coeffs.two_photon), cfg)
    assert report.iterations <= 1
    assert report.converged
    assert np.array_equal(sigma, b.coeffs.single_photon)
    assert np.array_equal(mu, b.coeffs.two_photon)


def test_run_lsq_solves_each_trial_point_once(monkeypatch):
    b = bundle(mesh_n=8)
    points, starts, solved, gradient_states = [], [], [], []
    forward_states, gradient = Evaluator.forward_states, Evaluator.gradient

    def recording_forward_states(self, sigma, mu, u0=None, residual_tols=None):
        points.append(np.concatenate([sigma, mu]))
        starts.append(u0)
        solved.append(forward_states(self, sigma, mu, u0, residual_tols))
        return solved[-1]

    def recording_gradient(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL,
                           adjoints=None):
        gradient_states.append((first_pass(adjoint_tol), states is solved[-1]))
        return gradient(self, sigma, mu, states, adjoint_tol, adjoints)

    monkeypatch.setattr(Evaluator, "forward_states", recording_forward_states)
    monkeypatch.setattr(Evaluator, "gradient", recording_gradient)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, max_iterations=25)
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b),
                           (np.full(n, 0.26), np.full(n, 0.26)), cfg)
    assert report.iterations >= 5
    # one first-pass gradient per accepted point, from the states of its
    # Armijo trial, each continued at most once, from the same states
    firsts = [first for first, _ in gradient_states]
    assert firsts.count(True) == report.iterations + 1
    assert firsts[0] and all(previous for previous, first in zip(firsts, firsts[1:])
                             if not first)
    assert all(latest for _, latest in gradient_states)
    assert len(points) >= report.iterations + 1
    assert not any(np.array_equal(p, q) for p, q in zip(points, points[1:]))
    # each solve starts from the previous evaluation's, accepted or not
    assert starts[0] is None
    assert all(u0 is states[0] for u0, states in zip(starts[1:], solved))


def test_run_lsq_objective_strictly_decreasing():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, grad_tol=1e-3,
                    max_iterations=25, bound_floor=0.02,
                    bound_ceiling=0.5)
    init = (np.full(n, 0.26), np.full(n, 0.26))
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), init, cfg)
    hist = report.objective_history
    assert len(hist) >= 2
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))


def test_run_lsq_deep_misfit_reduction():
    # kappa = 0, noiseless consistent data: the misfit is driven to the
    # solver-noise floor, far below 1e-10 of its initial value
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, grad_tol=1e-30, max_iterations=800,
                    bound_floor=0.02, bound_ceiling=0.5)
    init = (np.full(n, 0.26), np.full(n, 0.26))
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), init, cfg)
    hist = report.objective_history
    assert hist[-1] <= 1e-10 * hist[0]


def test_run_lsq_respects_bounds():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, grad_tol=1e-4, max_iterations=40,
                    bound_floor=0.1, bound_ceiling=0.2)
    init = (np.full(n, 0.15), np.full(n, 0.15))
    sigma, mu, _ = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), init, cfg)
    assert sigma.min() >= 0.1 and sigma.max() <= 0.2
    assert mu.min() >= 0.1 and mu.max() <= 0.2


def test_fit_with_a_binding_bound_converges_on_the_reduced_gradient():
    # noiseless IV with the ceiling below sigma's inclusion (0.3): at the
    # minimizer those nodes sit at the ceiling with the gradient pointing out
    # of the box, so only the reduced gradient can fall below the threshold
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(bound_ceiling=0.2)
    mid = 0.5 * (cfg.bound_floor + cfg.bound_ceiling)
    sigma, mu, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b),
                                (np.full(n, mid), np.full(n, mid)), cfg)
    assert (report.converged, report.message) == (True, "")
    assert report.grad_norm_history[-1] <= cfg.grad_tol * report.reference_grad_norm
    assert np.any(sigma == cfg.bound_ceiling) and sigma.max() == cfg.bound_ceiling
    assert cfg.bound_floor <= mu.min() and mu.max() <= cfg.bound_ceiling


@settings(max_examples=20, deadline=None)
@given(mu_only=st.booleans(), eps=st.sampled_from([0.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(mu_only=False, eps=0.0, seed=0)
@example(mu_only=True, eps=2.0, seed=0)
def test_run_lsq_projects_any_start_onto_its_box(mu_only, eps, seed):
    # II (sigma pinned, inside or outside the box) and IV, from starts whose
    # nodes lie inside, on and outside the box: the run is bit for bit the
    # run from the start's projection, its fields and every report history
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    lo, hi = 0.1, 0.2
    cfg = LsqConfig(bound_floor=lo, bound_ceiling=hi, max_iterations=3)
    rng = np.random.default_rng(seed)
    # one of five kinds per node: inside, on the floor, on the ceiling,
    # below the floor, above the ceiling
    kinds = [rng.uniform(lo, hi, 2 * n), np.full(2 * n, lo), np.full(2 * n, hi),
             rng.uniform(0.01, lo, 2 * n), rng.uniform(hi, 0.6, 2 * n)]
    start = np.choose(rng.integers(0, len(kinds), 2 * n), kinds)
    sigma, mu = start[:n], start[n:]
    projected = (sigma if mu_only else np.clip(sigma, lo, hi), np.clip(mu, lo, hi))
    ds = datum(b, eps)
    (s1, m1, r1), (s2, m2, r2) = (
        run_lsq(b.operator, b.coeffs.gruneisen, ds, init, cfg, mu_only=mu_only)
        for init in ((sigma, mu), projected))
    assert s1.tobytes() == s2.tobytes() and m1.tobytes() == m2.tobytes()
    assert r1 == r2
    if mu_only:
        assert s1.tobytes() == sigma.tobytes()


def test_mu_only_mode_keeps_sigma_fixed():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, grad_tol=1e-6, max_iterations=60,
                    bound_floor=0.02, bound_ceiling=0.5)
    init = (b.coeffs.single_photon, np.full(n, 0.26))
    sigma, mu, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), init, cfg,
                                mu_only=True)
    assert np.array_equal(sigma, b.coeffs.single_photon)
    assert report.objective_history[-1] < report.objective_history[0]


def test_run_lsq_stops_at_the_iteration_cap():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b),
                           (np.full(n, 0.26), np.full(n, 0.26)),
                           LsqConfig(max_iterations=2))
    assert (report.iterations, report.converged) == (2, False)
    assert report.message == "iteration cap reached"
    assert len(report.objective_history) == len(report.grad_norm_history) == 3


def test_lsq_config_validation():
    with pytest.raises(ValidationError):
        LsqConfig(grad_tol=0.0)
    with pytest.raises(ValidationError):
        LsqConfig(bound_floor=0.0)
    with pytest.raises(ValidationError):
        LsqConfig(bound_floor=0.5, bound_ceiling=0.4)
    with pytest.raises(ValidationError):
        LsqConfig(kappa=-1.0)
    with pytest.raises(ValidationError):
        LsqConfig(kappa="tiny")
    with pytest.raises(ValidationError):
        LsqConfig(max_iterations=0)
    for bad in (2.5, 1.5, True, "3"):
        with pytest.raises(ValidationError):
            LsqConfig(max_iterations=bad)
    assert LsqConfig(max_iterations=np.int64(5)).max_iterations == 5
    for bad in (float("nan"), float("inf")):
        for name in ("kappa", "grad_tol", "bound_floor", "bound_ceiling"):
            with pytest.raises(ValidationError):
                LsqConfig(**{name: bad})
    # a bool, None, a string or any other value that is not a real number
    for bad in (True, False, None, "0.1", "auto", 0.1j, [0.1]):
        for name in ("kappa", "grad_tol", "bound_floor", "bound_ceiling"):
            with pytest.raises(ValidationError, match=f"lsq {name} must be a real number"):
                LsqConfig(**{name: bad})
    cfg = LsqConfig(kappa=np.float32(0.5), grad_tol=np.float64(1e-3), bound_floor=0.25,
                    bound_ceiling=np.int64(1))
    assert (cfg.kappa, cfg.grad_tol, cfg.bound_ceiling) == (0.5, 1e-3, 1)


def test_lsq_config_defaults_are_the_experiment_defaults():
    cfg = LsqConfig()
    assert (cfg.kappa, cfg.grad_tol, cfg.max_iterations,
            cfg.bound_floor, cfg.bound_ceiling) == (0.0, 1e-6, 300, 0.02, 0.5)


def test_report_csv_format(tmp_path):
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    cfg = LsqConfig(kappa=0.0, grad_tol=1e-3, max_iterations=5,
                    bound_floor=0.02, bound_ceiling=0.5)
    init = (np.full(n, 0.26), np.full(n, 0.26))
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), init, cfg)
    path = tmp_path / "report.csv"
    report.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,objective,grad_norm,step_length,converged,message"
    assert len(lines) == len(report.objective_history) + 1
    # the run's status sits on the last row only
    assert all(ln.endswith(",,") for ln in lines[1:-1])
    assert lines[-1].split(",")[4:] == [str(int(report.converged)), report.message]


def test_forward_failure_names_source(monkeypatch):
    monkeypatch.setattr("tppat.forward.NEWTON_MAX_ITERATIONS", 1)
    b = bundle(mesh_n=8)
    ds = datum(b)
    ev = Evaluator(b.operator, b.coeffs.gruneisen, ds, kappa=0.0)
    from tppat.errors import SolverError
    with pytest.raises(SolverError) as err:
        ev.forward_states(b.coeffs.single_photon, b.coeffs.two_photon,
                          residual_tols=[1e-16] * ds.size)
    assert "source 0" in str(err.value)


def expected_step(gruneisen, us, reg, g, held):
    """The step of gauss_newton_step, node by node from the explicit 2x2 block
    B_i, and its rounding bound: -B_i^-1 g_i by np.linalg.solve where B_i is
    regular, -B_i^+ g_i by np.linalg.pinv where it is nearly rank one, and
    -g_f / B_ff for the free component of a node whose other one is held."""
    a = gruneisen * us
    b = a * np.abs(us)
    steps = np.zeros((2, len(gruneisen)))
    tols = np.zeros(len(gruneisen))
    for i in range(len(gruneisen)):
        jac = np.column_stack([a[:, i], b[:, i]])
        block = jac.T @ jac + np.broadcast_to(reg, gruneisen.shape)[i] * np.eye(2)
        gi = np.array([g[0][i], g[1][i]])
        free = ~np.array([held[0][i], held[1][i]])
        cond = 1e4
        if free.all():
            if np.linalg.det(block) > 1e-12 * np.trace(block) ** 2:
                steps[:, i] = -np.linalg.solve(block, gi)
                cond = np.linalg.cond(block)
            else:
                steps[:, i] = -np.linalg.pinv(block, rcond=1e-8, hermitian=True) @ gi
        elif free.any():
            f = int(np.flatnonzero(free)[0])
            if block[f, f] > 0.0:
                steps[f, i] = -gi[f] / block[f, f]
        size = np.linalg.norm(block)
        if size > 0.0:
            tols[i] = 1e-12 * cond * (np.abs(steps[:, i]).max() + np.abs(gi).max() / size)
    return steps, tols


def assert_matches_expected_step(gruneisen, us, reg, g, held):
    steps = np.array(gauss_newton_step(gauss_newton_blocks(gruneisen, us, reg), g, held))
    expected, tols = expected_step(gruneisen, us, reg, g, held)
    assert np.all(np.isfinite(steps))
    assert np.all(steps[np.array(held)] == 0.0)
    assert np.all(np.abs(steps - expected) <= tols)
    # a descent direction at every node, zero where the block or the reduced
    # gradient is
    assert np.all((steps * np.asarray(g)).sum(axis=0) <= 0.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), sources=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       kappa=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]), mu_only=st.booleans(),
       equal_abs=st.booleans(), zero_gruneisen=st.booleans(),
       held_share=st.sampled_from([0.0, 0.3, 1.0]))
def test_gauss_newton_step_solves_each_node_block(
        n, sources, seed, kappa, mu_only, equal_abs, zero_gruneisen, held_share):
    # regular blocks, nearly rank-one blocks (one source with kappa = 0,
    # equal |u_j| at every node), zero blocks (Gamma_i = 0 with kappa = 0),
    # and nodes with a held component; mu_only holds every sigma component
    mesh = build_square_mesh(n)
    nodes = mesh.node_count
    rng = np.random.default_rng(seed)
    us = rng.uniform(0.1, 3.0, (sources, nodes))
    if equal_abs:
        us[:] = us[0]
    gruneisen = rng.uniform(0.5, 2.0, nodes)
    if zero_gruneisen:
        gruneisen[rng.random(nodes) < 0.5] = 0.0
    m = fem.lumped_mass(mesh)
    reg = kappa * fem.assemble_stiffness(mesh, np.ones(nodes)).diagonal() / m
    g = rng.normal(size=(2, nodes))
    held = rng.random((2, nodes)) < held_share
    if mu_only:
        g[0] = 0.0
        held[0] = True
    assert_matches_expected_step(gruneisen, us, reg, tuple(g), tuple(held))


@pytest.mark.parametrize("mu_only", [False, True])
def test_gauss_newton_step_on_regular_rank_one_and_held_nodes(mu_only):
    # node 0 has equal |u_j|, so B_0 is rank one with kappa = 0 and the step
    # is the pseudo-inverse one; node 1 is regular; nodes 2 and 3 are regular
    # with sigma and with mu held, and node 4 has both held
    us = np.array([[1.0, 2.0, 2.0, 2.0, 2.0], [1.0, 0.5, 0.5, 0.5, 0.5]])
    gruneisen = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
    reg = np.array([0.0, 0.1, 0.1, 0.1, 0.1])
    g = (np.array([1.0, -2.0, 3.0, 0.5, 1.0]), np.array([0.5, 1.5, -1.0, 2.0, 1.0]))
    held = (np.array([False, False, True, False, True]),
            np.array([False, False, False, True, True]))
    if mu_only:
        g = (np.zeros(5), g[1])
        held = (np.ones(5, dtype=bool), held[1])
    assert_matches_expected_step(gruneisen, us, reg, g, held)
    d_sigma, d_mu = gauss_newton_step(gauss_newton_blocks(gruneisen, us, reg), g, held)
    if not mu_only:
        # a_j = b_j = 1 at node 0: B_0 = [[2, 2], [2, 2]], B_0^+ = B_0 / 16
        assert np.allclose([d_sigma[0], d_mu[0]], [-0.1875, -0.1875], rtol=1e-15, atol=0)
    assert d_sigma[4] == d_mu[4] == 0.0


# The box of run_lsq's stacked iterate (lsq._Box), on hand-built fields of
# three nodes: sigma is x[:3] and mu x[3:]

BOX = LsqConfig(bound_floor=0.1, bound_ceiling=0.3)
LUMPED = np.array([0.5, 1.0, 2.0])


def test_a_pinned_sigma_is_held_weighs_nothing_and_projects_onto_itself():
    # II: sigma pinned at a start below, inside and above [floor, ceiling]
    x = np.array([0.05, 0.2, 0.4, 0.05, 0.2, 0.4])
    box = _Box(LUMPED, x, BOX, mu_only=True)
    assert np.array_equal(box.lo[:3], x[:3]) and np.array_equal(box.hi[:3], x[:3])
    assert np.array_equal(box.w, [0.0, 0.0, 0.0, 0.5, 1.0, 2.0])
    assert np.array_equal(box.project(x), [0.05, 0.2, 0.4, 0.1, 0.2, 0.3])
    assert np.array_equal(box.project(np.full(6, 7.0))[:3], x[:3])
    # held whatever its gradient, and no norm or inner product sees it
    for g_sigma in ([1.0, -1.0, 0.0], [-1e3, 1e3, 1e-300]):
        g = np.concatenate([g_sigma, np.zeros(3)])
        held, norm = box.hold(box.project(x), g)
        assert held[:3].all() and norm == 0.0
        assert box.dot(g, g) == 0.0


def test_a_component_on_a_bound_is_held_where_its_gradient_points_out():
    # IV: each component on the floor or the ceiling, with its gradient
    # pointing out of or into the box, and one inside the box
    x = np.array([0.1, 0.1, 0.3, 0.3, 0.2, 0.2])
    g = np.array([1.0, -2.0, -3.0, 4.0, 5.0, -6.0])
    box = _Box(np.array([1.0, 1.0, 1.0]), x, BOX, mu_only=False)
    held, norm = box.hold(x, g)
    assert held.tolist() == [True, False, True, False, False, False]
    assert norm == np.sqrt(2.0 ** 2 + 4.0 ** 2 + 5.0 ** 2 + 6.0 ** 2)
    assert np.array_equal(box.lo, np.full(6, 0.1)) and np.array_equal(box.hi, np.full(6, 0.3))
    assert np.array_equal(box.w, np.ones(6))


def test_a_component_a_hair_inside_a_bound_is_free_and_counts_its_whole_gradient():
    # one ulp inside the floor and the ceiling with the gradient pointing
    # out: the plain two-metric rule holds neither, so the step pushes them
    # out of the box and the projection truncates it. This is the case in
    # which the step can stall (the expected failure below); an
    # epsilon-active set (Bertsekas 1982) would hold them.
    floor, ceiling = BOX.bound_floor, BOX.bound_ceiling
    x = np.array([np.nextafter(floor, 1.0), 0.2, 0.2,
                  np.nextafter(ceiling, 0.0), 0.2, 0.2])
    g = np.array([3.0, 0.0, 0.0, -4.0, 0.0, 0.0])
    box = _Box(LUMPED, x, BOX, mu_only=False)
    held, norm = box.hold(x, g)
    assert not held.any()
    assert norm == np.sqrt(0.5 * 3.0 ** 2 + 0.5 * 4.0 ** 2)


@pytest.mark.parametrize("mu_only", [False, True])
def test_the_reference_point_is_the_midpoint_or_the_pinned_start(mu_only):
    x = np.array([0.05, 0.2, 0.4, 0.05, 0.2, 0.4])
    box = _Box(LUMPED, x, BOX, mu_only=mu_only)
    mid = 0.5 * (BOX.bound_floor + BOX.bound_ceiling)
    assert np.array_equal(box.mid[3:], np.full(3, mid))
    assert np.array_equal(box.mid[:3], x[:3] if mu_only else np.full(3, mid))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_noiseless_experiment_iv_converges_in_few_iterations(n):
    b = prepare_data(config(mesh_n=n))
    report = reconstruct("IV", b, b.datum_set(0.0, 1))["lsq_report"]
    assert report.converged
    assert report.iterations <= 15


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_noiseless_iv_from_the_midpoint_converges_in_20_iterations(n):
    # README's figure: a cold start at the midpoint of the default bounds
    b = bundle(mesh_n=n)
    cfg = b.config.lsq
    mid = np.full(b.mesh.node_count, 0.5 * (cfg.bound_floor + cfg.bound_ceiling))
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, datum(b), (mid, mid), cfg)
    assert (report.converged, report.message, report.iterations) == (True, "", 20)


def start_predicted_decrease(bundle, ds):
    """-1/2 <g, d> of IV's first Gauss-Newton step from reconstruct's start,
    with run_lsq's noise-level tolerances: the decrease its noise stop tests."""
    cfg = bundle.config.lsq
    (sigma, mu), stars = lsq_start(bundle, ds, mu_only=False)
    forward, adjoint = first_tolerances(bundle, ds)
    ev = Evaluator(bundle.operator, bundle.coeffs.gruneisen, ds, cfg.kappa)
    states = ev.forward_states(sigma, mu, u0=stars, residual_tols=forward)
    g = ev.gradient(sigma, mu, states, adjoint_tol=adjoint)
    held = [((x <= cfg.bound_floor) & (gx > 0.0)) | ((x >= cfg.bound_ceiling) & (gx < 0.0))
            for x, gx in zip((sigma, mu), g)]
    reg = 0.0 if ev.K1 is None else ev.kappa * ev.K1.diagonal() / ev.lumped
    blocks = gauss_newton_blocks(np.sqrt(ev.weights) * ev.gruneisen, states[0], reg)
    d = gauss_newton_step(blocks, g, held)
    return -0.5 * sum(float((ev.lumped * gx * dx).sum()) for gx, dx in zip(g, d))


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([8, 16]), eps=st.sampled_from([1.0, 2.0, 5.0]),
       seed=st.integers(1, 2**31 - 1), variant=st.sampled_from(["one source", "kappa"]))
@example(n=8, eps=5.0, seed=3714, variant="kappa")
def test_iterating_noisy_jobs_descend_to_the_noise_level(n, eps, seed, variant):
    # one-source IV starts sigma at the midpoint of the bounds, so it takes
    # steps; kappa > 0 moves the minimizer off the direct fit, which mostly
    # makes the run step too, but a start whose predicted decrease is already
    # within the noise stop's share ends there after 0 iterations. With the
    # trials solved to residual_tol and the gradients to the noise level,
    # every step lowers Phi and the run ends at the noise level
    # the default config with one source, or with kappa = 1e-3: the IV jobs
    # that still iterate on noisy data
    b = (bundle(mesh_n=n, sources=SOURCES[:1]) if variant == "one source"
         else bundle(mesh_n=n, lsq=LsqConfig(kappa=1e-3)))
    ds = b.datum_set(eps, seed)
    report = reconstruct("IV", b, ds)["lsq_report"]
    assert report.converged and report.message == "noise level reached"
    if variant == "one source":
        assert report.iterations >= 1
    elif report.iterations == 0:
        decrease = start_predicted_decrease(b, ds)
        assert 0.0 < decrease <= lsq.NOISE_SHARE * report.noise_misfit
    history = report.objective_history
    assert all(later < earlier for earlier, later in zip(history, history[1:]))


def test_data_the_weights_cannot_use_are_rejected_naming_the_source(monkeypatch):
    # at epsilon = 60 > 100 / sqrt(3) add_noise's multiplier reaches below 0,
    # so some datum has a nonpositive node value, where the weight 1 / H^2
    # of both fits would not describe the noise; the datum set rejects it
    # when it is made, so no sweep at that level solves a density
    b = prepare_data(config(mesh_n=16))
    solves = []
    monkeypatch.setattr(direct, "recover_all_fields",
                        lambda *args, **kwargs: solves.append(args)
                        or recover_all_fields(*args, **kwargs))
    monkeypatch.setattr(b.config, "noise_levels", [60.0])
    for seed in (1, b.config.seeds[0]):
        first = next(j for j, H in enumerate(b.noisy_data(60.0, seed)) if H.min() <= 0.0)
        match = f"datum of source {first} has a nonpositive or non-finite"
        with pytest.raises(ValidationError, match=match):
            b.datum_set(60.0, seed)
    for which in EXPERIMENTS:           # each sweep stops at its first job, seeds[0]
        with pytest.raises(ValidationError, match=match):
            run_experiment(which, b.config, bundle=b)
    assert solves == []


def lsq_start(bundle, ds, mu_only):
    """The start and densities reconstruct hands run_lsq for II (mu_only) or IV,
    the densities solved as reconstruct solves them (from u_clean without
    the crime guard)."""
    cfg = bundle.config.lsq
    stars = recover_all_fields(bundle.operator, bundle.coeffs.gruneisen, ds,
                               u0=None if bundle.crime_guard else bundle.u_clean)
    sigma_known = bundle.coeffs.single_photon if mu_only else None
    sigma, mu, _ = recover_pair(bundle.operator, bundle.coeffs.gruneisen, ds,
                                sigma_known=sigma_known, stars=stars)
    if not mu_only:
        sigma = np.clip(sigma, cfg.bound_floor, cfg.bound_ceiling)
    return (sigma, np.clip(mu, cfg.bound_floor, cfg.bound_ceiling)), stars


def test_stop_test_does_not_depend_on_the_start():
    # the gradient test on the noisy datum at noise_level 0, which the noise
    # test leaves alone; at its noise level both starts share one noise
    # misfit
    b = bundle(mesh_n=16)
    cfg = LsqConfig()
    ds = b.datum_set(2.0, 101)
    n = b.mesh.node_count
    mid = 0.5 * (cfg.bound_floor + cfg.bound_ceiling)
    # both with the direct densities as u0, as reconstruct passes them
    direct, stars = lsq_start(b, ds, False)
    inits = ((np.full(n, mid), np.full(n, mid)), direct)
    noisy = [run_lsq(b.operator, b.coeffs.gruneisen, ds, init, cfg, u0=stars)[2]
             for init in inits]
    assert all(r.converged for r in noisy)
    assert noisy[0].noise_misfit == noisy[1].noise_misfit > 0.0
    runs = [run_lsq(b.operator, b.coeffs.gruneisen, stripped(ds), init, cfg, u0=stars)
            for init in inits]
    reports = [r for _, _, r in runs]
    assert all(r.converged for r in reports)
    # the start near the minimizer has a gradient 1e-3 of the midpoint's, yet
    # the two references agree to a small factor and both runs end under one
    # absolute threshold
    refs = [r.reference_grad_norm for r in reports]
    assert reports[1].grad_norm_history[0] < 1e-2 * reports[0].grad_norm_history[0]
    assert max(refs) <= 1.5 * min(refs)
    # with u0 frozen in it, the reference does not depend on the start at all
    assert refs[0] == refs[1] == noisy[0].reference_grad_norm == noisy[1].reference_grad_norm
    assert max(r.grad_norm_history[-1] for r in reports) <= cfg.grad_tol * min(refs)
    assert reports[1].iterations < reports[0].iterations
    for coeff, truth in ((0, b.coeffs.single_photon), (1, b.coeffs.two_photon)):
        errors = [relative_l2_error(run[coeff], truth, b.mesh) for run in runs]
        assert errors[1] == pytest.approx(errors[0], rel=1e-4)


def test_noiseless_direct_start_converges_without_iterating():
    # cold, warm from the direct densities, and through reconstruct, which
    # starts warm: the clipped direct fit comes back bitwise
    b = bundle(mesh_n=16)
    cfg = LsqConfig()
    ds = b.datum_set(0.0, 101)
    init, stars = lsq_start(b, ds, mu_only=False)
    runs = [run_lsq(b.operator, b.coeffs.gruneisen, ds, init, cfg, u0=u0)
            for u0 in (None, stars)]
    fields = reconstruct("IV", b, ds)
    runs.append((fields["sigma"], fields["mu"], fields["lsq_report"]))
    for sigma, mu, report in runs:
        assert report.converged and report.iterations == 0 and report.message == ""
        assert len(report.grad_norm_history) == 1
        assert np.array_equal(sigma, init[0]) and np.array_equal(mu, init[1])


@pytest.mark.parametrize("eps", [0.0, 2.0])
@pytest.mark.parametrize("which, direct", [("II", "I"), ("IV", "III")])
def test_least_squares_runs_on_a_mesh_with_no_interior_node(which, direct, eps):
    # at n = 1 every node is on the boundary, so every adjoint has a zero
    # right-hand side and is exact with no iteration: the run stops by the
    # gradient test at its start, the direct fit
    b = bundle(mesh_n=1)
    assert len(b.operator.interior) == 0
    ds = b.datum_set(eps, 101)
    fields = reconstruct(which, b, ds)
    report = fields["lsq_report"]
    assert report.converged and report.iterations == 0 and report.message == ""
    start = reconstruct(direct, b, ds)
    for coeff in ("sigma", "mu"):
        assert np.array_equal(fields[coeff], start[coeff])


# Least squares on noisy data: the tolerance rules of the lsq module and the
# warm start from the direct densities (experiments.reconstruct).

def stripped(ds):
    """ds at noise_level 0: run_lsq then keeps the default tolerances."""
    return DatumSet(sources=list(ds.sources), data=list(ds.data))


def lsq_pair_runs(bundle, ds, mu_only):
    """run_lsq on ds and on stripped(ds), from one start and one warm start."""
    init, stars = lsq_start(bundle, ds, mu_only)
    return [run_lsq(bundle.operator, bundle.coeffs.gruneisen, data, init,
                    bundle.config.lsq, mu_only=mu_only, u0=stars)
            for data in (ds, stripped(ds))]


def max_relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 24]), eps=st.sampled_from([1.0, 2.0, 5.0]),
       seed=st.integers(1, 2**31 - 1), mu_only=st.booleans())
def test_noise_aware_tolerances_keep_every_job(n, eps, seed, mu_only):
    # II (mu_only) or IV against the same datum without its noise metadata.
    # No tolerance keeps a stop or Armijo test that an iterate meets within
    # the error of its own values, so a converged run may stop one iteration
    # earlier or later, with the fields as close as the stop test puts them.
    # Should the line search fail, both runs stop at an arbitrary point of the
    # same crawl. The noise test is off: it stops only the run with the
    # metadata.
    b = bundle(mesh_n=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsq, "NOISE_SHARE", 0.0)
        (sigma, mu, report), (sigma_ref, mu_ref, ref) = lsq_pair_runs(
            b, b.datum_set(eps, seed), mu_only)
    assert (report.converged, report.message) == (ref.converged, ref.message)
    gap = max(max_relative_gap(sigma, sigma_ref), max_relative_gap(mu, mu_ref))
    if ref.converged:
        assert abs(report.iterations - ref.iterations) <= 1
        assert gap <= 1e-3
    else:
        assert gap <= 1e-2


# c of the noise stop's bound on Phi: the largest of 332 noise-stopped runs
# (n = 8/16/24, eps = 1/2/5, random seeds, II and IV) came to 1.54.
NOISE_STOP_PHI_FACTOR = 3.0


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 24]), eps=st.sampled_from([1.0, 2.0, 5.0]),
       seed=st.integers(1, 2**31 - 1), mu_only=st.booleans())
def test_noise_stop_ends_a_prefix_of_the_run_without_it(n, eps, seed, mu_only):
    # each run against the same job with NOISE_SHARE = 0. The two agree until
    # the noise test fires, so a run it stops is a prefix of the other, whose
    # Phi ends at most NOISE_STOP_PHI_FACTOR * NOISE_SHARE * Phi_noise lower;
    # a run it does not stop, and every noiseless run or run on data without
    # noise metadata, is bitwise the other.
    b = bundle(mesh_n=n)
    noisy = b.datum_set(eps, seed)
    for ds in (noisy, b.datum_set(0.0, seed), stripped(noisy)):
        init, stars = lsq_start(b, ds, mu_only)
        runs = []
        for share in (lsq.NOISE_SHARE, 0.0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lsq, "NOISE_SHARE", share)
                runs.append(run_lsq(b.operator, b.coeffs.gruneisen, ds, init,
                                    b.config.lsq, mu_only=mu_only, u0=stars))
        (sigma, mu, report), (sigma_off, mu_off, off) = runs
        assert (report.noise_misfit > 0.0) == (ds is noisy)
        if report.message != "noise level reached":
            assert report == off
            assert np.array_equal(sigma, sigma_off) and np.array_equal(mu, mu_off)
            continue
        assert ds is noisy and report.converged
        k = report.iterations
        assert k <= off.iterations
        assert off.objective_history[:k + 1] == report.objective_history
        gap = report.objective_history[-1] - off.objective_history[-1]
        assert gap <= NOISE_STOP_PHI_FACTOR * lsq.NOISE_SHARE * report.noise_misfit


def test_noise_stop_ends_the_crawl_of_a_noisy_job():
    # n = 8, IV, eps = 5, seed 102: without the noise test the line search
    # accepts decreases below the forward solves' accuracy for 8 iterations,
    # then fails
    b = bundle(mesh_n=8)
    report = reconstruct("IV", b, b.datum_set(5.0, 102))["lsq_report"]
    assert report.converged and report.message == "noise level reached"
    assert report.iterations <= 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the step stalls at a bound: nodes a hair inside it are "
                   "free (see the box tests above)")
def test_a_noisy_iv_job_with_nodes_next_to_both_bounds_reaches_the_noise_level():
    # IV at n = 7 with the default's two affine sources, eps = 1, seed 673,
    # on the box [0.001, 0.201]: the accepted steps shrink from 1 to
    # 5.8e-11, and the run ends "line search failed; returning best iterate"
    # after 15 steps, its reduced gradient at 0.056 against a threshold of
    # 5.2e-6. An epsilon-active set (Bertsekas 1982) cannot jam this way.
    b = bundle(mesh_n=7, sources=SOURCES[2:], lsq=LsqConfig(
        grad_tol=1e-6, max_iterations=40, bound_floor=0.001, bound_ceiling=0.201))
    report = reconstruct("IV", b, b.datum_set(1.0, 673))["lsq_report"]
    assert (report.converged, report.message) == (True, "noise level reached")


@pytest.mark.parametrize("source, n", [(0, 8), (0, 16), (0, 32), (3, 8)])
def test_one_source_ii_at_five_percent_converges_with_nodes_at_the_floor(source, n):
    # the mu-only fit of default source 1 or 4 alone at eps = 5, seed 3,
    # starts with nodes clipped at bound_floor whose gradient points below
    # it; the full gradient cannot vanish there, the reduced one can
    b = bundle(mesh_n=n, sources=[SOURCES[source]])
    fields = reconstruct("II", b, b.datum_set(5.0, 3))
    assert fields["lsq_report"].converged
    assert np.array_equal(fields["sigma"], b.coeffs.single_photon)


@pytest.mark.parametrize("sources, n, eps, seed", [((0, 1, 2, 3), 16, 2.0, 101),
                                                   ((0,), 8, 5.0, 3)])
def test_ii_norms_are_those_of_the_mu_part_alone(monkeypatch, sources, n, eps, seed):
    # II's reference and reduced gradient norms against the same norms of mu
    # alone, from u0 and from each gradient run_lsq takes: the pinned sigma
    # must not enter a norm. The second job starts with mu nodes held at the
    # floor. run_lsq sums over sigma's zero-weight terms as well, which may
    # move the last digit.
    b = bundle(mesh_n=n, sources=[SOURCES[k] for k in sources])
    cfg = b.config.lsq
    ds = b.datum_set(eps, seed)
    (sigma0, mu0), stars = lsq_start(b, ds, mu_only=True)
    recorded = []
    gradient = Evaluator.gradient

    def recording(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL, adjoints=None):
        out = gradient(self, sigma, mu, states, adjoint_tol, adjoints)
        recorded.append((first_pass(adjoint_tol), mu.copy(), out[1]))
        return out

    monkeypatch.setattr(Evaluator, "gradient", recording)
    sigma, _, report = run_lsq(b.operator, b.coeffs.gruneisen, ds, (sigma0, mu0), cfg,
                               mu_only=True, u0=stars)
    m = b.operator.lumped
    mid = 0.5 * (cfg.bound_floor + cfg.bound_ceiling)
    g_ref = 0.0
    for u, H in zip(stars, ds.data):                  # residuals weighted by 1 / H^2
        a = b.coeffs.gruneisen * u
        g_ref = g_ref + (sigma0 * a + mid * a * np.abs(u) - H) / H ** 2 * a * np.abs(u)
    norms = []
    for first, mu, g_mu in recorded:
        held = (((mu <= cfg.bound_floor) & (g_mu > 0.0))
                | ((mu >= cfg.bound_ceiling) & (g_mu < 0.0)))
        reduced = np.where(held, 0.0, g_mu)
        norm = np.sqrt((m * reduced * reduced).sum())
        if first:
            norms.append(norm)
        else:        # continued to noise_tol, this gradient replaces its first pass
            norms[-1] = norm
    assert report.converged and np.array_equal(sigma, sigma0)
    assert report.reference_grad_norm == pytest.approx(np.sqrt((m * g_ref ** 2).sum()),
                                                       rel=1e-12)
    assert report.grad_norm_history == pytest.approx(norms, rel=1e-12)


@pytest.mark.parametrize("seed", range(101, 106))
def test_every_default_iv_job_at_five_percent_converges(seed):
    b = bundle(mesh_n=16)
    report = reconstruct("IV", b, b.datum_set(5.0, seed))["lsq_report"]
    assert report.converged and report.message == "noise level reached"
    assert report.iterations <= 3


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), eps=st.sampled_from([1.0, 2.0, 5.0]),
       sources=st.sets(st.integers(0, 3), min_size=1), seed=st.integers(1, 2**31 - 1),
       which=st.sampled_from(["II", "IV"]))
def test_every_noisy_least_squares_job_converges_within_the_bounds(
        n, eps, sources, seed, which):
    b = bundle(mesh_n=n, sources=[SOURCES[k] for k in sorted(sources)])
    lo, hi = b.config.lsq.bound_floor, b.config.lsq.bound_ceiling
    fields = reconstruct(which, b, b.datum_set(eps, seed))
    report = fields["lsq_report"]
    assert report.converged, report.message
    hist = report.objective_history
    assert all(later < earlier for earlier, later in zip(hist, hist[1:]))
    fitted = ("mu",) if which == "II" else ("sigma", "mu")
    assert all(lo <= fields[name].min() and fields[name].max() <= hi for name in fitted)


def test_noise_aware_tolerances_save_preconditioner_applications(monkeypatch):
    b = bundle(mesh_n=32)
    applied = [0]
    preconditioner = ForwardOperator.preconditioner

    def counting(self, w):
        apply = preconditioner(self, w)

        def wrapped(r):
            applied[0] += 1
            return apply(r)
        return wrapped

    monkeypatch.setattr(ForwardOperator, "preconditioner", counting)
    ds = b.datum_set(2.0, 101)
    init, stars = lsq_start(b, ds, mu_only=False)
    counts = []
    for data in (ds, stripped(ds)):
        applied[0] = 0
        run_lsq(b.operator, b.coeffs.gruneisen, data, init, b.config.lsq, u0=stars)
        counts.append(applied[0])
    assert 0 < counts[0] <= 0.7 * counts[1]


def recorded_tolerances(monkeypatch):
    """Record each forward solve's residual_tol and the adjoint tolerances of
    each gradient: first passes, which hold one per source, in a list of their
    own."""
    forward, adjoint, firsts = [], [], []
    solve = lsq.solve_semilinear
    gradient = Evaluator.gradient

    def recording(op, sigma, mu, g, residual_tol=RESIDUAL_TOL, u0=None):
        forward.append(residual_tol)
        return solve(op, sigma, mu, g, residual_tol, u0=u0)

    def recording_gradient(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL,
                           adjoints=None):
        (firsts if first_pass(adjoint_tol) else adjoint).append(adjoint_tol)
        return gradient(self, sigma, mu, states, adjoint_tol, adjoints)

    monkeypatch.setattr(lsq, "solve_semilinear", recording)
    monkeypatch.setattr(Evaluator, "gradient", recording_gradient)
    return forward, adjoint, firsts


def assert_steps_continue_to(report, adjoint, firsts, tol):
    """Every gradient a step or a stop decision used ran its adjoints to tol,
    continued from a first pass, one of which each point took: all but the
    last point's are continued, and the last one's too unless it certified
    the stop."""
    assert len(firsts) == report.iterations + 1
    assert all(len(t) == 4 and min(t) >= tol for t in firsts)
    assert adjoint == [tol] * len(adjoint)
    assert len(adjoint) == report.iterations + 1 or (
        len(adjoint) == report.iterations and report.converged)


@pytest.mark.parametrize("metadata", [True, False])
def test_noiseless_least_squares_keeps_newtons_tolerances(monkeypatch, metadata):
    # from the midpoint, so that the run iterates: at epsilon = 0, and for
    # noisy data at noise_level 0, every solve runs at the default tolerances
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 101)
    if not metadata:
        ds = stripped(b.datum_set(2.0, 101))
    forward, adjoint, firsts = recorded_tolerances(monkeypatch)
    n = b.mesh.node_count
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, ds,
                           (np.full(n, 0.26), np.full(n, 0.26)), LsqConfig())
    assert report.iterations >= 3
    assert forward == [RESIDUAL_TOL] * len(forward)
    assert_steps_continue_to(report, adjoint, firsts, fem.DEFAULT_TOL)


def first_tolerances(bundle, ds):
    """The first states' residual tolerances and every gradient's adjoint
    tolerance of run_lsq on the noisy datum set ds, by the noise-level rule."""
    rel = NOISE_SAFETY * ds.noise_level / 100.0
    op = bundle.operator
    forward = [max(RESIDUAL_TOL, lsq.ARMIJO_SHARE * rel * float(np.linalg.norm(
        (op.lumped * H / bundle.coeffs.gruneisen)[op.interior]))) for H in ds.data]
    return forward, max(fem.DEFAULT_TOL, rel)


@pytest.mark.parametrize("mu_only", [False, True])
def test_noisy_least_squares_solves_to_the_noise_level(monkeypatch, mu_only):
    # the noise test off, so that the run iterates past the first gradient
    b = bundle(mesh_n=16)
    ds = b.datum_set(2.0, 101)
    init, stars = lsq_start(b, ds, mu_only)
    monkeypatch.setattr(lsq, "NOISE_SHARE", 0.0)
    forward, adjoint, firsts = recorded_tolerances(monkeypatch)
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, ds, init, LsqConfig(),
                           mu_only=mu_only, u0=stars)
    assert report.iterations >= 2
    # the first states and every gradient to the noise level, as the direct
    # densities; the line-search trials to RESIDUAL_TOL
    first_forward, first_adjoint = first_tolerances(b, ds)
    assert forward[:4] == first_forward
    assert min(first_forward) > RESIDUAL_TOL
    assert first_adjoint == 2e-5
    assert_steps_continue_to(report, adjoint, firsts, first_adjoint)
    assert len(forward) >= 4 * (report.iterations + 1)
    assert forward[4:] == [RESIDUAL_TOL] * (len(forward) - 4)


def test_noisy_gradients_stay_within_their_share_of_the_gradient(monkeypatch):
    # every gradient against the same gradient solved to fem.DEFAULT_TOL from the
    # same states: the first one's adjoint error stays below a tenth of its
    # norm, and each later one's below the larger of the stop threshold and
    # the previous gradient norm. The tight grad_tol runs on, with the noise
    # test off, well past the noise level
    b = bundle(mesh_n=16)
    monkeypatch.setattr(lsq, "NOISE_SHARE", 0.0)
    ds = b.datum_set(2.0, 101)
    init, stars = lsq_start(b, ds, mu_only=False)
    tols, gaps = [], []
    gradient = Evaluator.gradient

    def checking(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL, adjoints=None):
        g_sigma, g_mu = gradient(self, sigma, mu, states, adjoint_tol, adjoints)
        if first_pass(adjoint_tol):
            return g_sigma, g_mu
        g = np.concatenate([g_sigma, g_mu])
        exact = np.concatenate(gradient(self, sigma, mu, states))
        w = np.concatenate([self.lumped, self.lumped])
        tols.append(adjoint_tol)
        gaps.append((np.sqrt((w * (g - exact) ** 2).sum()), np.sqrt((w * g * g).sum())))
        return g_sigma, g_mu

    monkeypatch.setattr(Evaluator, "gradient", checking)
    cfg = LsqConfig(grad_tol=1e-9, max_iterations=40)
    _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, ds, init, cfg, u0=stars)
    threshold = cfg.grad_tol * report.reference_grad_norm
    assert len(gaps) == report.iterations + 1 >= 8
    assert tols == [first_tolerances(b, ds)[1]] * len(tols)
    assert 0.0 < gaps[0][0] <= 0.1 * gaps[0][1]
    for (_, previous), (gap, _) in zip(gaps, gaps[1:]):
        assert gap <= max(threshold, previous)


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), eps=st.floats(0.5, 10.0),
       seed=st.integers(1, 2**31 - 1), which=st.sampled_from(["II", "IV"]))
@example(n=12, eps=6.392578125, seed=1, which="II")
@example(n=8, eps=7.288876098220151, seed=1438946864, which="II")
def test_first_evaluation_to_the_noise_level_matches_the_tight_one(n, eps, seed, which):
    # the first objective and gradient of a noisy run against the same run on
    # the datum at noise_level 0, whose solves keep the default tolerances:
    # the objective within ARMIJO_SHARE * 1e-4 * |f|, the gradient within a
    # tenth of its norm
    b = bundle(mesh_n=n)
    ds = b.datum_set(eps, seed)
    mu_only = which == "II"
    init, stars = lsq_start(b, ds, mu_only)
    firsts = []
    for data in (ds, stripped(ds)):
        recorded = []
        gradient = Evaluator.gradient

        def recording(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL, adjoints=None):
            # the gradient a step from the first point uses, which its first
            # pass may make unnecessary: the adjoints to the noise level
            noise_level = gradient(self, sigma, mu, states, self.data.noise_tol)
            recorded.append(noise_level[1] if mu_only else np.concatenate(noise_level))
            return gradient(self, sigma, mu, states, adjoint_tol, adjoints)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Evaluator, "gradient", recording)
            _, _, report = run_lsq(b.operator, b.coeffs.gruneisen, data, init,
                                   LsqConfig(max_iterations=1), mu_only=mu_only, u0=stars)
        firsts.append((report.objective_history[0], recorded[0]))
    (f, g), (f_tight, g_tight) = firsts
    w = np.resize(b.operator.lumped, len(g))
    assert abs(f - f_tight) <= lsq.ARMIJO_SHARE * 1e-4 * abs(f_tight)
    assert (np.sqrt((w * (g - g_tight) ** 2).sum())
            <= 0.1 * np.sqrt((w * g_tight ** 2).sum()))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), eps=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
       seed=st.integers(1, 2**31 - 1), which=st.sampled_from(["II", "IV"]),
       kappa=st.sampled_from([0.0, 1e-3]), ceiling=st.sampled_from([0.5, 0.25]),
       one_source=st.booleans())
@example(n=16, eps=0.0, seed=101, which="IV", kappa=0.0, ceiling=0.5, one_source=False)
@example(n=16, eps=2.0, seed=101, which="IV", kappa=0.0, ceiling=0.5, one_source=False)
@example(n=16, eps=0.0, seed=101, which="IV", kappa=0.0, ceiling=0.25, one_source=False)
@example(n=12, eps=2.0, seed=5, which="IV", kappa=0.0, ceiling=0.5, one_source=True)
@example(n=12, eps=0.0, seed=5, which="IV", kappa=1e-3, ceiling=0.5, one_source=False)
@example(n=8, eps=5.0, seed=3, which="II", kappa=0.0, ceiling=0.5, one_source=True)
def test_a_stop_on_the_first_pass_holds_for_the_exact_gradient(n, eps, seed, which, kappa,
                                                              ceiling, one_source):
    # a run that stops on a first-pass gradient against the gradient at the
    # same point and states with its adjoints solved to 1e-12, under the held
    # set the run used: a gradient stop has its reduced norm within the
    # threshold; a noise stop has it above, and its decrement within the
    # noise floor
    b = bundle(mesh_n=n, lsq=LsqConfig(kappa=kappa, bound_ceiling=ceiling),
               sources=SOURCES[:1] if one_source else SOURCES)
    calls = []
    gradient = Evaluator.gradient

    def recording(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL, adjoints=None):
        out = gradient(self, sigma, mu, states, adjoint_tol, adjoints)
        calls.append((self, sigma.copy(), mu.copy(), states, adjoint_tol, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Evaluator, "gradient", recording)
        fields = reconstruct(which, b, b.datum_set(eps, seed))
    report = fields["lsq_report"]
    ev, sigma, mu, states, adjoint_tol, first = calls[-1]
    if not first_pass(adjoint_tol):
        return                    # decided on adjoints solved to noise_tol
    cfg = b.config.lsq
    assert report.converged
    assert np.array_equal(sigma, fields["sigma"]) and np.array_equal(mu, fields["mu"])
    nodes = b.mesh.node_count
    free = np.repeat([which == "IV", True], nodes)
    x, g_first = np.concatenate([sigma, mu]), np.concatenate(first)
    held = ~free | ((x <= cfg.bound_floor) & (g_first > 0.0)) \
        | ((x >= cfg.bound_ceiling) & (g_first < 0.0))
    exact = np.concatenate(ev.gradient(sigma, mu, states, adjoint_tol=1e-12))
    w = np.concatenate([ev.lumped, ev.lumped]) * free
    reduced = np.where(held, 0.0, exact)
    norm = np.sqrt((w * reduced * reduced).sum())
    threshold = cfg.grad_tol * report.reference_grad_norm
    if report.message == "":
        assert norm <= threshold
        return
    assert report.message == "noise level reached" and norm > threshold
    reg = 0.0 if ev.K1 is None else ev.kappa * ev.K1.diagonal() / ev.lumped
    blocks = gauss_newton_blocks(np.sqrt(ev.weights) * ev.gruneisen, states[0], reg)
    d = np.concatenate(gauss_newton_step(blocks, (exact[:nodes], exact[nodes:]),
                                         (held[:nodes], held[nodes:])))
    assert -0.5 * (w * exact * d).sum() <= lsq.NOISE_SHARE * report.noise_misfit


def test_the_noiseless_default_iv_job_takes_no_adjoint_iteration(monkeypatch):
    # the default n = 32 job starts at the truth to solver precision, so its
    # first pass certifies the gradient stop from adjoints at x = 0; a
    # recording preconditioner on each adjoint solve counts the iterations
    b = bundle(mesh_n=32)
    applied, solves = [], []
    solver = ForwardOperator.solver

    def recording(self, w, rhs):
        solve = solver(self, w, rhs)
        apply = solve.preconditioner

        def counted(r):
            applied.append(1)
            return apply(r)
        solve.preconditioner = counted
        solves.append(solve)
        return solve

    monkeypatch.setattr(ForwardOperator, "solver", recording)
    report = reconstruct("IV", b, b.datum_set(0.0, 101))["lsq_report"]
    assert report.converged and report.message == "" and report.iterations == 0
    assert len(solves) == 4 and applied == []
    assert report.grad_norm_history[0] <= b.config.lsq.grad_tol * report.reference_grad_norm


@pytest.mark.parametrize("which", ["II", "IV"])
def test_first_forward_solves_start_from_the_direct_densities(monkeypatch, which):
    b = bundle(mesh_n=16)
    steps = []
    solve = lsq.solve_semilinear

    def recording(*args, **kwargs):
        u, report = solve(*args, **kwargs)
        steps.append(report.iterations)
        return u, report

    monkeypatch.setattr(lsq, "solve_semilinear", recording)
    reconstruct(which, b, b.datum_set(0.0, 101))
    assert len(steps) == 4 and max(steps) <= 1


def test_run_lsq_rejects_a_warm_start_of_another_length():
    b = bundle(mesh_n=8)
    n = b.mesh.node_count
    with pytest.raises(ValidationError, match="u0"):
        run_lsq(b.operator, b.coeffs.gruneisen, datum(b),
                (np.full(n, 0.26), np.full(n, 0.26)), LsqConfig(), u0=b.u_clean[:3])
