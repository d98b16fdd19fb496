import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from tppat import fem, forward, transfer
from tppat.config import SourceSpec, default_config
from tppat.errors import SolverError, ValidationError
from tppat.fem import CoefficientSet
from tppat.forward import (FORCING_MAX, FORCING_SAFETY, RESIDUAL_TOL, BoundarySource,
                           ForwardOperator, add_noise, compute_datum, solve_semilinear)
from tppat.mesh import build_square_mesh, load_mesh, save_mesh, square_grid_size

from builders import jittered_mesh, not_quite_grids, permuted_mesh
from oracle import apply_dirichlet, banded, csr, dense


def constant_coeffs(mesh, gruneisen=1.0, diffusion=0.2, sigma=0.1, mu=0.05):
    n = mesh.node_count
    return CoefficientSet(np.full(n, gruneisen), np.full(n, diffusion),
                          np.full(n, sigma), np.full(n, mu))


def solve(mesh, coeffs, g, residual_tol=RESIDUAL_TOL, u0=None):
    """solve_semilinear for coeffs, with a new operator for coeffs.diffusion."""
    return solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                            coeffs.single_photon, coeffs.two_photon, g, residual_tol, u0)


def test_zero_source_gives_zero_solution():
    mesh = build_square_mesh(4)
    coeffs = constant_coeffs(mesh)
    g = BoundarySource.constant(mesh, 0.0)
    u, report = solve(mesh, coeffs, g)
    assert report.converged
    assert report.iterations == 0
    assert np.all(u == 0.0)


def test_mu_zero_matches_linear_solve():
    mesh = build_square_mesh(6)
    n = mesh.node_count
    rng = np.random.default_rng(0)
    gamma = rng.uniform(0.2, 0.6, n)
    sigma = rng.uniform(0.05, 0.2, n)
    coeffs = CoefficientSet(np.ones(n), gamma, sigma, np.full(n, 1e-300))
    g = BoundarySource(mesh, 1.5 + 0.3 * mesh.nodes[mesh.boundary_list, 0])

    # independent path: assemble and solve the linear system directly
    K = csr(fem.assemble_stiffness(mesh, gamma))
    A = K + sp.diags(fem.lumped_mass(mesh) * sigma)
    bc = dict(zip(mesh.boundary_list.tolist(), g.values))
    A, b = apply_dirichlet(A, np.zeros(n), bc, mesh=mesh)
    u_linear = fem.solve_linear(banded(A), b, 1e-13)

    u, report = solve(mesh, coeffs, g, 1e-12)
    assert report.converged
    assert np.abs(u - u_linear).max() <= 1e-10


def dense_newton_oracle(mesh, coeffs, g, tol=1e-14):
    """Brute-force full Newton on the dense assembled system."""
    n = mesh.node_count
    K = dense(fem.assemble_stiffness(mesh, coeffs.diffusion))
    m = fem.lumped_mass(mesh)
    bl = mesh.boundary_list
    gvals = g.values
    u = np.zeros(n)
    u[bl] = gvals

    def residual(u):
        F = K @ u + m * (coeffs.single_photon * u
                         + coeffs.two_photon * np.abs(u) * u)
        F[bl] = 0.0
        return F

    for _ in range(100):
        F = residual(u)
        if np.linalg.norm(F) <= tol:
            return u
        J = K + np.diag(m * (coeffs.single_photon
                             + 2.0 * coeffs.two_photon * np.abs(u)))
        J[bl, :] = 0.0
        J[:, bl] = 0.0
        J[bl, bl] = 1.0
        u = u - np.linalg.solve(J, F)
    raise AssertionError("oracle Newton did not converge")


def test_matches_dense_newton_oracle_on_n2():
    mesh = build_square_mesh(2)
    coeffs = constant_coeffs(mesh, diffusion=0.3, sigma=0.2, mu=0.15)
    g = BoundarySource.constant(mesh, 1.0)
    u_oracle = dense_newton_oracle(mesh, coeffs, g)
    u, report = solve(mesh, coeffs, g, 1e-13)
    assert report.converged
    assert np.abs(u - u_oracle).max() <= 1e-10


def test_non_grid_mesh_takes_the_jacobi_path_and_matches_dense_oracle():
    # the jittered mesh keeps the grid's numbering and its few bands; its
    # permuted numbering spreads the stiffness over many bands
    base = build_square_mesh(6)
    jittered = jittered_mesh(6, 8, 0.05)
    assert ForwardOperator(base, 0.3).sine is not None
    for mesh, min_bands in ((jittered, 2), (permuted_mesh(jittered, 9), 10)):
        coeffs = constant_coeffs(mesh, diffusion=0.3, sigma=0.2, mu=0.15)
        op = ForwardOperator(mesh, coeffs.diffusion)
        assert op.sine is None
        assert op.preconditioner(np.ones(len(mesh.interior_list))) is None
        assert len(op.K_ii.offsets) >= min_bands

        x, y = mesh.nodes[mesh.boundary_list].T
        g = BoundarySource(mesh, 1.0 + 0.5 * x - 0.2 * y)
        u_oracle = dense_newton_oracle(mesh, coeffs, g)
        u, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g, 1e-13)
        assert report.converged
        assert np.abs(u - u_oracle).max() <= 1e-10


def count_grid_preconditioner_applications(monkeypatch):
    """List that gains one entry per sine-preconditioned solve, counting its applications."""
    applications = []
    build = ForwardOperator.preconditioner

    def counting(self, w):
        apply = build(self, w)
        assert apply is not None
        applications.append(0)

        def counted(r):
            applications[-1] += 1
            return apply(r)
        return counted

    monkeypatch.setattr(ForwardOperator, "preconditioner", counting)
    return applications


@pytest.mark.parametrize("n", [8, 32, 64, 128])
def test_grid_solves_need_few_preconditioner_applications(n, monkeypatch):
    applications = count_grid_preconditioner_applications(monkeypatch)
    cfg = default_config()
    mesh = build_square_mesh(n)
    coeffs = cfg.phantom.coefficients(mesh)
    op = ForwardOperator(mesh, coeffs.diffusion)
    rhs = np.random.default_rng(n).standard_normal(len(mesh.interior_list))
    for spec in cfg.sources:
        g = spec.build(mesh)
        u, _ = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g)
        op.solve_linearized(u, coeffs.single_photon, coeffs.two_photon, rhs)
        op.solve_reaction(g, -u)
    assert len(applications) >= 3 * len(cfg.sources)
    assert max(applications) <= 20, applications


@pytest.mark.parametrize("kind", ["grid-1", "grid-2", "grid-9", "loaded-9",
                                  "flipped", "permuted", "one-ulp", "jittered"])
def test_every_grid_decision_agrees(kind, monkeypatch, tmp_path):
    # the sine basis, the spectral floor and the transfer's locator all take
    # their grid path exactly when square_grid_size finds the builder's grid
    # (the sine basis and the floor also need an interior node, which n = 1
    # lacks)
    if kind.startswith("grid-"):
        mesh = build_square_mesh(int(kind[5:]))
    elif kind == "loaded-9":
        save_mesh(build_square_mesh(9), tmp_path / "grid.txt")
        mesh = load_mesh(tmp_path / "grid.txt")
    else:
        mesh = not_quite_grids(12)[kind]
    paths = []
    for name in ("_GridLocator", "_TriangleLocator"):
        locator = getattr(transfer, name)
        monkeypatch.setattr(transfer, name,
                            lambda *args, name=name, locator=locator:
                            paths.append(name) or locator(*args))
    transfer.make_locator(mesh, build_square_mesh(7))
    grid = square_grid_size(mesh) is not None
    assert paths == (["_GridLocator"] if grid else ["_TriangleLocator"])
    op = ForwardOperator(mesh, 0.3)
    sine = grid and len(mesh.interior_list) > 0
    assert (op.sine is not None) == sine
    assert (op.spectral_floor > 0.0) == sine


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 7),
       mesh_kind=st.sampled_from(["grid", "permuted", "jittered", "flipped"]),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans())
@example(n=7, mesh_kind="grid", seed=0, constant=True)
@example(n=5, mesh_kind="flipped", seed=0, constant=False)
def test_spectral_floor_bounds_the_least_eigenvalue(n, mesh_kind, seed, constant):
    # spectral_floor + min(w) <= lambda_min(K_ii + diag(w)) for variable gamma
    # and positive w; on the grid min(gamma) times the least eigenvalue of
    # the 5-point operator, which constant gamma and w attain (to the round-off
    # of eigvalsh); 0 on every mesh that mesh.square_grid_size does not take
    # for the builder's grid, the flipped diagonals of the grid's nodes too
    rng = np.random.default_rng(seed)
    mesh = {"grid": lambda: build_square_mesh(n),
            "permuted": lambda: permuted_mesh(build_square_mesh(n), seed),
            "jittered": lambda: jittered_mesh(n, seed, 0.3 / n),
            "flipped": lambda: not_quite_grids(n)["flipped"]}[mesh_kind]()
    if constant:
        gamma, w = rng.uniform(0.1, 2.0), np.full(len(mesh.interior_list), rng.uniform(0.0, 1.0))
    else:
        gamma = rng.uniform(0.1, 2.0, mesh.node_count)
        w = rng.uniform(1e-6, 1.0, len(mesh.interior_list))
    op = ForwardOperator(mesh, gamma)
    least = np.linalg.eigvalsh(dense(op.K_ii) + np.diag(w)).min()
    slack = 1e-12 * np.abs(dense(op.K_ii)).sum(axis=1).max()
    bound = op.spectral_floor + w.min()
    assert bound <= least + slack
    if mesh_kind == "grid":
        assert op.spectral_floor == pytest.approx(np.min(gamma) * 4.0 * (1.0 - np.cos(np.pi / n)),
                                                  rel=1e-14)
        if constant:
            assert bound >= least - slack
    else:
        assert op.spectral_floor == 0.0


@pytest.mark.parametrize("jitter", [0.0, 0.04], ids=["grid", "jittered"])
def test_shifted_cg_matches_dense_solve(jitter):
    mesh = jittered_mesh(8, 5, jitter)
    rng = np.random.default_rng(11)
    system = ForwardOperator(mesh, rng.uniform(0.1, 1.0, mesh.node_count))
    m = len(system.interior)
    w = rng.uniform(0.0, 0.3, m)
    b = rng.standard_normal(m)
    preconditioner = system.preconditioner(w)
    assert (preconditioner is None) == (jitter > 0.0)     # sine on the grid, else Jacobi
    tol = 1e-12
    x = fem.solve_linear(system.K_ii, b, tol, preconditioner=preconditioner, shift=w)
    A = dense(system.K_ii) + np.diag(w)
    x_dense = np.linalg.solve(A, b)
    assert np.linalg.norm(A @ x - b) <= tol * np.linalg.norm(b)
    assert np.linalg.norm(x - x_dense) <= tol * np.linalg.cond(A) * np.linalg.norm(x_dense)
    assert np.array_equal(system.solve(w, b, tol), x)


@pytest.mark.parametrize("jitter", [0.0, 0.04], ids=["grid", "jittered"])
def test_all_zero_shift_solves_bitwise_as_no_shift(jitter):
    mesh = jittered_mesh(8, 5, jitter)
    rng = np.random.default_rng(12)
    system = ForwardOperator(mesh, rng.uniform(0.1, 1.0, mesh.node_count))
    zeros = np.zeros(len(system.interior))
    b = rng.standard_normal(len(zeros))
    preconditioner = system.preconditioner(zeros)
    x = fem.solve_linear(system.K_ii, b, 1e-12, preconditioner=preconditioner, shift=0.0)
    assert fem.solve_linear(system.K_ii, b, 1e-12, preconditioner=preconditioner,
                            shift=zeros).tobytes() == x.tobytes()
    assert system.solve(zeros, b, 1e-12).tobytes() == x.tobytes()


def test_shifted_cg_rejects_nonpositive_diagonal():
    system = ForwardOperator(build_square_mesh(6), 0.3)
    diag = system.K_ii.diagonal()
    b = np.ones(len(diag))
    one_below = np.zeros(len(diag))
    one_below[3] = -diag[3] - 1e-3
    for w in (-diag, one_below):
        for preconditioner in (None, system.preconditioner(np.zeros(len(diag)))):
            with pytest.raises(SolverError, match="diagonal must be positive"):
                fem.solve_linear(system.K_ii, b, 1e-10, preconditioner=preconditioner,
                                 shift=w)
        # the operator hands CG the diagonal it keeps; CG still checks it
        with pytest.raises(SolverError, match="diagonal must be positive"):
            system.solve(w, b, 1e-10)


def test_inexact_newton_needs_fewer_preconditioner_applications(monkeypatch):
    applications = count_grid_preconditioner_applications(monkeypatch)
    tols = []
    linear_solve = ForwardOperator.solve

    def recording(self, w, rhs, tol):
        tols.append(tol)
        return linear_solve(self, w, rhs, tol)

    monkeypatch.setattr(ForwardOperator, "solve", recording)
    cfg = default_config()
    mesh = build_square_mesh(32)
    coeffs = cfg.phantom.coefficients(mesh)
    op = ForwardOperator(mesh, coeffs.diffusion)
    for spec in cfg.sources:
        tols.clear()
        _, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon,
                                     spec.build(mesh))
        assert report.converged
        # first step, from g extended by zero
        assert tols[0] == FORCING_MAX
        assert all(forcing_floor(RESIDUAL_TOL) <= t <= FORCING_MAX for t in tols[1:])
    # Every solve run to 1e-10 took 31 + 42 + 42 + 42 = 157 (9-11 per solve);
    # the forcing term on the later steps cut that to 83, and on the first step to 50.
    assert sum(applications) <= 55, applications


def forcing_floor(residual_tol):
    """The least forcing term of a Newton step to residual_tol, as
    max(r, c / r) >= sqrt(c) for c = FORCING_SAFETY * residual_tol."""
    return min(FORCING_MAX, np.sqrt(FORCING_SAFETY * residual_tol))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       contrast=st.floats(1.0, 10.0), grid=st.booleans(),
       decade=st.floats(-16.0, -2.0))
@example(n=12, seed=0, contrast=10.0, grid=True, decade=-16.0)
@example(n=12, seed=0, contrast=10.0, grid=False, decade=-16.0)
def test_every_newton_step_solves_to_a_forcing_term_within_its_bounds(
        n, seed, contrast, grid, decade):
    # the bound that lets CG take each forcing term as it is, with no floor;
    # a target below 1e-13 may lie below round-off, where Newton can stop
    # with SolverError, and the steps taken before it still count
    _, coeffs, g, op = random_problem(n, seed, contrast, grid)
    residual_tol = 10.0 ** decade
    tols = []
    linear_solve = ForwardOperator.solve

    def recording(self, w, rhs, tol):
        tols.append(tol)
        return linear_solve(self, w, rhs, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ForwardOperator, "solve", recording)
        try:
            solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g, residual_tol)
        except SolverError:
            if residual_tol >= 1e-13:
                raise
    assert tols
    assert all(forcing_floor(residual_tol) <= t <= FORCING_MAX for t in tols), tols


def random_problem(n, seed, contrast, grid):
    """Random positive coefficients and source on the grid or a jittered (Jacobi) mesh."""
    mesh = build_square_mesh(n) if grid else jittered_mesh(n, seed, 0.3 / n)
    rng = np.random.default_rng(seed)

    def field(low):
        return low * rng.uniform(1.0, contrast, mesh.node_count)

    coeffs = CoefficientSet(np.ones(mesh.node_count), field(0.1), field(0.05), field(0.2))
    g = BoundarySource(mesh, rng.uniform(0.5, 4.0, len(mesh.boundary_list)))
    op = ForwardOperator(mesh, coeffs.diffusion)
    assert (op.sine is not None) == grid
    return mesh, coeffs, g, op


def assert_descends_to(report, residual_tol):
    hist = report.residual_history
    assert report.converged
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))
    assert hist[-1] <= residual_tol


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       contrast=st.floats(1.0, 10.0), grid=st.booleans())
def test_inexact_newton_keeps_the_newton_contract(n, seed, contrast, grid):
    mesh, coeffs, g, op = random_problem(n, seed, contrast, grid)
    for residual_tol in (1e-10, 1e-13):
        u, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g,
                                     residual_tol)
        assert_descends_to(report, residual_tol)
    assert np.abs(u - dense_newton_oracle(mesh, coeffs, g)).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       contrast=st.floats(1.0, 10.0), grid=st.booleans())
@example(n=10, seed=8116, contrast=10.0, grid=False)   # a gap of 2 without the - 1
@example(n=2, seed=2, contrast=6.0, grid=True)     # the full step raises the residual
def test_loose_cold_start_matches_a_tight_warm_start(n, seed, contrast, grid):
    _, coeffs, g, op = random_problem(n, seed, contrast, grid)
    sigma, mu = coeffs.single_photon, coeffs.two_photon
    # the cold solve's first step, the mu = 0 solve from g extended by zero,
    # with its linear solve run to fem.DEFAULT_TOL and its backtracking kept
    e = op.expand(0.0, g.values)
    F = op.residual_interior(e, sigma, mu)
    delta = op.solve_linearized(e, sigma, mu, -F, tol=fem.DEFAULT_TOL)
    alpha = 1.0
    while np.linalg.norm(op.residual_interior(e + alpha * delta, sigma, mu)) \
            >= np.linalg.norm(F):
        alpha *= forward.DAMPING
    tight = e + alpha * delta
    cold, cold_report = solve_semilinear(op, sigma, mu, g)
    warm, warm_report = solve_semilinear(op, sigma, mu, g, u0=tight)
    for report in (cold_report, warm_report):
        assert_descends_to(report, RESIDUAL_TOL)
    assert np.linalg.norm(cold - warm) <= 1e-8 * np.linalg.norm(warm)
    # the cold count includes the mu = 0 step the warm start was given
    assert abs(cold_report.iterations - 1 - warm_report.iterations) <= 1


def test_cold_newton_starts_from_g_extended_by_zero():
    # the first step from e (g extended by zero) is the mu = 0 solve, line
    # searched like every other step
    cfg = default_config()
    mesh = build_square_mesh(32)
    coeffs = cfg.phantom.coefficients(mesh)
    op = ForwardOperator(mesh, coeffs.diffusion)
    sigma, mu = coeffs.single_photon, coeffs.two_photon
    for spec in cfg.sources:
        g = spec.build(mesh)
        e = op.expand(0.0, g.values)
        F = op.residual_interior(e, sigma, mu)
        first = e + op.solve_linearized(e, sigma, mu, -F, tol=FORCING_MAX)
        _, report = solve_semilinear(op, sigma, mu, g)
        assert report.residual_history[0] == np.linalg.norm(F)
        assert report.residual_history[1] == np.linalg.norm(
            op.residual_interior(first, sigma, mu))
        assert report.iterations == len(report.residual_history) - 1

    # strongly absorbing: the undamped mu = 0 solve would raise the residual
    # from 23.0 at e to 528
    coeffs = constant_coeffs(mesh, diffusion=0.2, sigma=0.1, mu=50.0)
    op = ForwardOperator(mesh, coeffs.diffusion)
    sigma, mu = coeffs.single_photon, coeffs.two_photon
    g = BoundarySource.constant(mesh, 10.0)
    e = op.expand(0.0, g.values)
    _, report = solve_semilinear(op, sigma, mu, g)
    hist = report.residual_history
    assert hist[0] == np.linalg.norm(op.residual_interior(e, sigma, mu))
    assert 22.9 <= hist[0] <= 23.1
    assert_descends_to(report, RESIDUAL_TOL)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       contrast=st.floats(1.0, 10.0), decade=st.floats(-3.0, 2.0))
def test_grid_solves_match_dense_solves_and_newton_descends(n, seed, contrast, decade):
    mesh = build_square_mesh(n)
    rng = np.random.default_rng(seed)

    def field(low):
        return low * rng.uniform(1.0, contrast, mesh.node_count)

    coeffs = CoefficientSet(np.ones(mesh.node_count), field(0.1), field(0.05), field(0.02))
    op = ForwardOperator(mesh, coeffs.diffusion)
    assert op.sine is not None
    # reaction weights from none over five decades around the phantom's sigma
    w_sigma = (op.lumped * coeffs.single_photon)[op.interior]
    for w in (np.zeros(len(op.interior)), w_sigma, 10.0 ** decade * w_sigma):
        rhs = rng.standard_normal(len(op.interior))
        A = dense(op.K_ii) + np.diag(w)
        x_dense = np.linalg.solve(A, rhs)
        for tol in (1e-10, 1e-12):
            x = op.solve(w, rhs, tol)
            assert np.linalg.norm(A @ x - rhs) <= tol * np.linalg.norm(rhs)
            assert np.linalg.norm(x - x_dense) <= (
                tol * np.linalg.cond(A) * np.linalg.norm(x_dense))

    g = BoundarySource(mesh, rng.uniform(0.5, 3.0, len(mesh.boundary_list)))
    _, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g)
    hist = report.residual_history
    assert report.converged
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))


def test_boundary_values_exact():
    mesh = build_square_mesh(5)
    coeffs = constant_coeffs(mesh)
    x, y = mesh.nodes[mesh.boundary_list].T
    g = BoundarySource(mesh, 1.0 + 0.5 * x * y + y)
    u, _ = solve(mesh, coeffs, g)
    assert np.array_equal(u[mesh.boundary_list], g.values)


def test_residual_history_monotone():
    mesh = build_square_mesh(8)
    coeffs = constant_coeffs(mesh, sigma=0.3, mu=0.4)
    g = BoundarySource.constant(mesh, 2.5)
    _, report = solve(mesh, coeffs, g)
    hist = report.residual_history
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))


def test_nonconvergence_raises_with_report(monkeypatch):
    monkeypatch.setattr(forward, "NEWTON_MAX_ITERATIONS", 1)
    mesh = build_square_mesh(6)
    coeffs = constant_coeffs(mesh, sigma=0.2, mu=1.5)
    g = BoundarySource.constant(mesh, 3.0)
    with pytest.raises(SolverError) as err:
        solve(mesh, coeffs, g, 1e-14)
    assert err.value.report is not None
    assert len(err.value.report.residual_history) >= 1


# Newton's one setting is its residual_tol; a NaN would stop the loop at once
# (nan > tol is false) and return the start as converged.
def test_newton_config_validation():
    mesh = build_square_mesh(3)
    for bad in (0.0, -1.0):
        with pytest.raises(ValidationError, match="residual_tol"):
            solve(mesh, constant_coeffs(mesh), BoundarySource.constant(mesh, 1.0), bad)


@pytest.mark.parametrize("name, bad", [("residual_tol", np.nan), ("residual_tol", np.inf)])
def test_newton_config_rejects_bad_tolerances_and_counts(name, bad):
    mesh = build_square_mesh(3)
    with pytest.raises(ValidationError, match=name):
        solve(mesh, constant_coeffs(mesh), BoundarySource.constant(mesh, 1.0), bad)


def test_boundary_source_validation():
    mesh = build_square_mesh(2)
    with pytest.raises(ValidationError):
        BoundarySource(mesh, [1.0])                  # too few values
    with pytest.raises(ValidationError):
        BoundarySource(mesh, np.ones(mesh.node_count))   # one per node
    with pytest.raises(ValidationError):
        BoundarySource(mesh, np.ones((len(mesh.boundary_list), 1)))
    g = BoundarySource.constant(mesh, 0.0)
    with pytest.raises(ValidationError):
        g.require_strictly_positive()
    # a non-finite value is rejected when the source is made, naming it
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(len(mesh.boundary_list))
        values[1] = bad
        with pytest.raises(ValidationError, match=f"source value {bad:g} is not finite"):
            BoundarySource(mesh, values)


def test_boundary_source_values_are_read_only_and_in_boundary_order():
    mesh = build_square_mesh(3)
    g = SourceSpec("affine", {"a": 25.0, "bx": 1.0, "by": 10.0}).build(mesh)
    x, y = mesh.nodes[mesh.boundary_list].T
    assert np.array_equal(g.values, 25.0 + x + 10.0 * y)
    assert np.array_equal(BoundarySource.constant(mesh, 0.7).values,
                          np.full(len(mesh.boundary_list), 0.7))
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_source_from_another_mesh_rejected():
    mesh = build_square_mesh(3)
    g = BoundarySource.constant(build_square_mesh(4), 1.0)
    with pytest.raises(ValidationError, match="does not match the mesh"):
        solve(mesh, constant_coeffs(mesh), g)


def test_datum_arithmetic():
    mesh = build_square_mesh(1)
    n = mesh.node_count
    coeffs = CoefficientSet(np.ones(n), np.ones(n), np.full(n, 2.0), np.full(n, 3.0))
    H = compute_datum(coeffs, np.full(n, 2.0))
    assert np.allclose(H, 16.0)       # 1 * (2*2 + 3*|2|*2)


def test_datum_zero_field():
    mesh = build_square_mesh(2)
    coeffs = constant_coeffs(mesh)
    assert np.all(compute_datum(coeffs, np.zeros(mesh.node_count)) == 0.0)


def test_datum_sign_convention():
    # |u| u keeps the sign of u: H(-1) = 1*(1*(-1) + 1*1*(-1)) = -2
    mesh = build_square_mesh(1)
    n = mesh.node_count
    coeffs = CoefficientSet(np.ones(n), np.ones(n), np.ones(n), np.ones(n))
    H = compute_datum(coeffs, np.full(n, -1.0))
    assert np.allclose(H, -2.0)


def test_noise_zero_level_is_identity():
    H = np.linspace(0.5, 2.0, 11)
    assert np.array_equal(add_noise(H, 0.0, seed=42), H)


def test_noise_multiplier_bounds():
    H = np.ones(4000)
    noisy = add_noise(H, 5.0, seed=1)
    bound = np.sqrt(3.0) * 5.0e-2
    assert np.all(np.abs(noisy - 1.0) <= bound + 1e-15)
    assert np.abs(noisy - 1.0).max() > 0.9 * bound      # the range is actually used


def test_noise_std_matches_level():
    # Var(sqrt(3) * 0.02 * U[-1,1]) = 0.02^2
    H = np.ones(1_000_000)
    noisy = add_noise(H, 2.0, seed=7)
    std = np.std(noisy - 1.0)
    assert abs(std - 0.02) <= 0.0002


def test_noise_deterministic_and_seed_sensitive():
    H = np.linspace(1.0, 2.0, 100)
    a = add_noise(H, 3.0, seed=11)
    b = add_noise(H, 3.0, seed=11)
    c = add_noise(H, 3.0, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_rejects_negative_level():
    for level in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="noise level must be finite"):
            add_noise(np.ones(3), level, seed=0)


@pytest.mark.parametrize("bad", [0.0, -0.3, np.nan, np.inf])
def test_operator_rejects_a_nonpositive_or_nonfinite_diffusion(bad):
    mesh = build_square_mesh(3)
    gamma = np.full(mesh.node_count, 0.2)
    gamma[5] = bad
    with pytest.raises(ValidationError, match="coefficient diffusion"):
        ForwardOperator(mesh, gamma)


@pytest.mark.parametrize("name", ["single_photon", "two_photon"])
@pytest.mark.parametrize("bad", [0.0, -0.3, np.nan, np.inf])
def test_semilinear_solve_rejects_a_nonpositive_or_nonfinite_absorption(name, bad):
    mesh = build_square_mesh(3)
    coeffs = constant_coeffs(mesh)
    getattr(coeffs, name)[5] = bad
    with pytest.raises(ValidationError, match=f"coefficient {name}"):
        solve(mesh, coeffs, BoundarySource.constant(mesh, 1.0))


def test_warm_start_converges_to_same_solution():
    mesh = build_square_mesh(6)
    coeffs = constant_coeffs(mesh, sigma=0.2, mu=0.2)
    g = BoundarySource.constant(mesh, 2.0)
    u_cold, _ = solve(mesh, coeffs, g, 1e-12)
    u_warm, report = solve(mesh, coeffs, g, 1e-12, u0=u_cold)
    assert report.iterations <= 1
    assert np.abs(u_warm - u_cold).max() <= 1e-9


def far_start_case(n, seed):
    """Coefficients spanning decades and a warm start far from the solution.

    Per node: mu in 10^[-2, 4], sigma in 10^[-3, 2], gamma in 10^[-2, 1],
    g in 10^[-1, 2] and u0 = +-10^[0, 3] with random signs. About 40 % of
    such cases need at least one damped Newton step.
    """
    mesh = build_square_mesh(n)
    rng = np.random.default_rng(seed)
    m = mesh.node_count

    def decades(low, high, size):
        return 10.0 ** rng.uniform(low, high, size)

    coeffs = CoefficientSet(np.ones(m), decades(-2, 1, m), decades(-3, 2, m),
                            decades(-2, 4, m))
    g = BoundarySource(mesh, decades(-1, 2, len(mesh.boundary_list)))
    u0 = rng.choice([-1.0, 1.0], m) * decades(0, 3, m)
    return mesh, coeffs, g, u0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_newton_from_a_far_start_converges_without_raising_the_residual(n, seed):
    mesh, coeffs, g, u0 = far_start_case(n, seed)
    _, report = solve(mesh, coeffs, g, u0=u0)
    hist = report.residual_history
    assert report.converged
    assert hist[-1] <= RESIDUAL_TOL
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), data=st.data(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_newton_rejects_a_start_with_a_non_finite_interior_value(n, data, bad):
    # the check runs before any solve; a NaN start would otherwise pass
    # `while nan > tol` as converged. A boundary value of the start is
    # replaced by g, so a non-finite one there is harmless
    mesh = build_square_mesh(n)
    coeffs = constant_coeffs(mesh)
    g = BoundarySource.constant(mesh, 2.0)
    node = data.draw(st.integers(0, mesh.node_count - 1), label="node")
    u0 = np.ones(mesh.node_count)
    u0[node] = bad
    if node in mesh.interior_list:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ForwardOperator, "solve", None)    # any solve would raise
            with pytest.raises(ValidationError, match="start u0 has non-finite"):
                solve(mesh, coeffs, g, u0=u0)
    else:
        u, report = solve(mesh, coeffs, g, u0=u0)
        u0[node] = 1.0
        assert report.converged
        assert u.tobytes() == solve(mesh, coeffs, g, u0=u0)[0].tobytes()


def test_manufactured_solution_converges_at_second_order():
    # u = exp(0.7 x + 0.4 y) with gamma = 1 + 0.25 x y, mu = 0.3 and
    # sigma = 0.7 gamma_x + 0.4 gamma_y + 0.65 gamma - mu u (positive on the
    # square) solves -div(gamma grad u) + sigma u + mu |u| u = 0 with g = u
    # on the boundary. Lumped-L2 errors measured at n = 8 -> 128 fall at
    # rates 1.97/1.99/2.00/2.00.
    errors = []
    for n in (8, 16, 32, 64, 128):
        mesh = build_square_mesh(n)
        x, y = mesh.nodes.T
        exact = np.exp(0.7 * x + 0.4 * y)
        gamma = 1.0 + 0.25 * x * y
        mu = np.full(mesh.node_count, 0.3)
        sigma = 0.7 * 0.25 * y + 0.4 * 0.25 * x + 0.65 * gamma - mu * exact
        g = BoundarySource(mesh, exact[mesh.boundary_list])
        u, _ = solve_semilinear(ForwardOperator(mesh, gamma), sigma, mu, g)
        errors.append(np.sqrt((fem.lumped_mass(mesh) * (u - exact) ** 2).sum()))
    rates = [float(np.log2(coarse / fine)) for coarse, fine in zip(errors, errors[1:])]
    assert min(rates) >= 1.8, rates


def test_newton_damps_a_step_that_would_raise_the_residual(monkeypatch):
    evaluations = []
    residual = ForwardOperator.residual_interior

    def counting(self, u, sigma, mu):
        evaluations.append(1)
        return residual(self, u, sigma, mu)

    monkeypatch.setattr(ForwardOperator, "residual_interior", counting)
    mesh = build_square_mesh(4)
    coeffs = constant_coeffs(mesh, diffusion=0.1, sigma=0.01, mu=1000.0)
    g = BoundarySource.constant(mesh, 10.0)
    u0 = np.full(mesh.node_count, -1000.0)
    _, report = solve(mesh, coeffs, g, u0=u0)
    hist = report.residual_history
    assert report.converged
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))
    # one evaluation at the start and one per accepted full step; every
    # rejected trial of a backtracking step adds one
    assert len(evaluations) > report.iterations + 1
