import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tppat import fem
from tppat.config import default_config
from tppat.errors import SolverError, ValidationError
from tppat.fem import CoefficientSet
from tppat.forward import (FORCING_MAX, BoundarySource, ForwardOperator, NewtonConfig,
                           add_noise, compute_datum, solve_semilinear)
from tppat.mesh import Mesh, build_square_mesh

from oracle import apply_dirichlet


def jittered_mesh(n, seed, amplitude):
    """build_square_mesh(n) with interior nodes moved by up to amplitude (Jacobi path)."""
    base = build_square_mesh(n)
    nodes = base.nodes.copy()
    rng = np.random.default_rng(seed)
    nodes[base.interior_list] += rng.uniform(-amplitude, amplitude,
                                             (len(base.interior_list), 2))
    return Mesh(nodes=nodes, triangles=base.triangles, boundary_edges=base.boundary_edges)


def constant_coeffs(mesh, gruneisen=1.0, diffusion=0.2, sigma=0.1, mu=0.05):
    n = mesh.node_count
    return CoefficientSet(np.full(n, gruneisen), np.full(n, diffusion),
                          np.full(n, sigma), np.full(n, mu))


def solve(mesh, coeffs, g, cfg=None, u0=None):
    """solve_semilinear for coeffs, with a new operator for coeffs.diffusion."""
    return solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                            coeffs.single_photon, coeffs.two_photon, g, cfg, u0)


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
    g = BoundarySource.from_function(mesh, lambda x, y: 1.5 + 0.3 * x)

    # independent path: assemble and solve the linear system directly
    K = fem.assemble_stiffness(mesh, gamma)
    A = K + sp.diags(fem.lumped_mass(mesh) * sigma)
    bc = dict(zip(mesh.boundary_list.tolist(), g.values))
    A, b = apply_dirichlet(A, np.zeros(n), bc, mesh=mesh)
    u_linear = fem.solve_linear(A, b, 1e-13)

    u, report = solve(mesh, coeffs, g,
                      NewtonConfig(residual_tol=1e-12, linear_tol=1e-13))
    assert report.converged
    assert np.abs(u - u_linear).max() <= 1e-10


def dense_newton_oracle(mesh, coeffs, g, tol=1e-14):
    """Brute-force full Newton on the dense assembled system."""
    n = mesh.node_count
    K = fem.assemble_stiffness(mesh, coeffs.diffusion).toarray()
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
    u, report = solve(mesh, coeffs, g,
                      NewtonConfig(residual_tol=1e-13, linear_tol=1e-14))
    assert report.converged
    assert np.abs(u - u_oracle).max() <= 1e-10


def test_non_grid_mesh_takes_the_jacobi_path_and_matches_dense_oracle():
    base = build_square_mesh(6)
    mesh = jittered_mesh(6, 8, 0.05)
    coeffs = constant_coeffs(mesh, diffusion=0.3, sigma=0.2, mu=0.15)
    op = ForwardOperator(mesh, coeffs.diffusion)
    assert ForwardOperator(base, coeffs.diffusion).sine is not None
    assert op.sine is None
    assert op.preconditioner(np.ones(len(mesh.interior_list))) is None

    g = BoundarySource.from_function(mesh, lambda x, y: 1.0 + 0.5 * x - 0.2 * y)
    u_oracle = dense_newton_oracle(mesh, coeffs, g)
    u, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g,
                                 NewtonConfig(residual_tol=1e-13, linear_tol=1e-14))
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
        op.solve_reaction(np.zeros(mesh.node_count), g, load_nodal=-u)
    assert len(applications) >= 3 * len(cfg.sources)
    assert max(applications) <= 20, applications


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
    A = (system.K_ii + sp.diags(w)).toarray()
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


def test_inexact_newton_needs_fewer_preconditioner_applications(monkeypatch):
    applications = count_grid_preconditioner_applications(monkeypatch)
    tols = []
    linear_solve = ForwardOperator.solve

    def recording(self, w, rhs, tol):
        tols.append(tol)
        return linear_solve(self, w, rhs, tol)

    monkeypatch.setattr(ForwardOperator, "solve", recording)
    cfg = default_config()
    newton = NewtonConfig()
    mesh = build_square_mesh(32)
    coeffs = cfg.phantom.coefficients(mesh)
    op = ForwardOperator(mesh, coeffs.diffusion)
    for spec in cfg.sources:
        tols.clear()
        _, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon,
                                     spec.build(mesh), newton)
        assert report.converged
        assert tols[0] == newton.linear_tol                  # the initial linear solve
        assert all(newton.linear_tol <= t <= FORCING_MAX for t in tols[1:])
    # Every step solved to linear_tol took 34 + 46 + 46 + 46 = 172 (10-12 per solve);
    # with the forcing term the four cold solves take 98.
    assert sum(applications) <= 110, applications


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       contrast=st.floats(1.0, 10.0), grid=st.booleans())
def test_inexact_newton_keeps_the_newton_contract(n, seed, contrast, grid):
    mesh = build_square_mesh(n) if grid else jittered_mesh(n, seed, 0.3 / n)
    rng = np.random.default_rng(seed)

    def field(low):
        return low * rng.uniform(1.0, contrast, mesh.node_count)

    coeffs = CoefficientSet(np.ones(mesh.node_count), field(0.1), field(0.05), field(0.2))
    g = BoundarySource(mesh, rng.uniform(0.5, 4.0, len(mesh.boundary_list)))
    op = ForwardOperator(mesh, coeffs.diffusion)
    assert (op.sine is not None) == grid
    for residual_tol in (1e-10, 1e-13):
        u, report = solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g,
                                     NewtonConfig(residual_tol=residual_tol))
        hist = report.residual_history
        assert report.converged
        assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))
        assert hist[-1] <= residual_tol
    assert np.abs(u - dense_newton_oracle(mesh, coeffs, g)).max() <= 1e-10


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
        A = (op.K_ii + sp.diags(w)).toarray()
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
    g = BoundarySource.from_function(mesh, lambda x, y: 1.0 + 0.5 * x * y + y)
    u, _ = solve(mesh, coeffs, g)
    assert np.array_equal(u[mesh.boundary_list], g.values)


def test_residual_history_monotone():
    mesh = build_square_mesh(8)
    coeffs = constant_coeffs(mesh, sigma=0.3, mu=0.4)
    g = BoundarySource.constant(mesh, 2.5)
    _, report = solve(mesh, coeffs, g)
    hist = report.residual_history
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))


def test_nonconvergence_raises_with_report():
    mesh = build_square_mesh(6)
    coeffs = constant_coeffs(mesh, sigma=0.2, mu=1.5)
    g = BoundarySource.constant(mesh, 3.0)
    with pytest.raises(SolverError) as err:
        solve(mesh, coeffs, g,
              NewtonConfig(residual_tol=1e-14, max_iterations=1))
    assert err.value.report is not None
    assert len(err.value.report.residual_history) >= 1


def test_newton_config_validation():
    with pytest.raises(ValidationError):
        NewtonConfig(residual_tol=0.0)
    with pytest.raises(ValidationError):
        NewtonConfig(max_iterations=0)
    with pytest.raises(ValidationError):
        NewtonConfig(damping=1.0)


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


def test_boundary_source_values_are_read_only_and_in_boundary_order():
    mesh = build_square_mesh(3)
    g = BoundarySource.from_function(mesh, lambda x, y: x + 10.0 * y)
    x, y = mesh.nodes[mesh.boundary_list].T
    assert np.array_equal(g.values, x + 10.0 * y)
    assert np.array_equal(BoundarySource.constant(mesh, 0.7).values,
                          BoundarySource.from_function(mesh, lambda x, y: 0.7).values)
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
    with pytest.raises(ValidationError):
        add_noise(np.ones(3), -1.0, seed=0)


@pytest.mark.parametrize("bad", [0.0, -0.3, np.nan, np.inf])
def test_operator_rejects_a_nonpositive_or_nonfinite_diffusion(bad):
    mesh = build_square_mesh(3)
    gamma = np.full(mesh.node_count, 0.2)
    gamma[5] = bad
    with pytest.raises(ValidationError, match="coefficient diffusion"):
        ForwardOperator(mesh, gamma)


def test_unit_stiffness_is_assembled_once_under_concurrent_first_use(monkeypatch):
    assembled = []
    assemble = fem.assemble_stiffness

    def slow_counting(mesh, gamma):
        assembled.append(1)
        time.sleep(0.01)                # widen the window a lost check would need
        return assemble(mesh, gamma)

    mesh = build_square_mesh(4)
    op = ForwardOperator(mesh, 0.3)
    monkeypatch.setattr(fem, "assemble_stiffness", slow_counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: op.K1) for _ in range(32)]
            matrices = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(assembled) == 1
    assert all(K is matrices[0] for K in matrices)
    assert abs(matrices[0] - assemble(mesh, np.ones(mesh.node_count))).max() == 0.0


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
    cfg = NewtonConfig(residual_tol=1e-12)
    u_cold, _ = solve(mesh, coeffs, g, cfg)
    u_warm, report = solve(mesh, coeffs, g, cfg, u0=u_cold)
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
    cfg = NewtonConfig()
    _, report = solve(mesh, coeffs, g, cfg, u0=u0)
    hist = report.residual_history
    assert report.converged
    assert hist[-1] <= cfg.residual_tol
    assert all(hist[k + 1] <= hist[k] for k in range(len(hist) - 1))


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
