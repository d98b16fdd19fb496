import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tppat import fem
from tppat.direct import ConditionReport
from tppat.errors import MeshFormatError, SolverError, ValidationError
from tppat.fem import (assemble_stiffness, clip_nonnegative, load_field, lumped_mass,
                       positive_field, save_field, solve_linear)
from tppat.forward import ForwardOperator
from tppat.gradcheck import GradCheckResult
from tppat.mesh import build_square_mesh

from builders import jittered_mesh, permuted_mesh
from oracle import (apply_dirichlet, assemble_stiffness_einsum, assemble_weighted_mass, banded,
                    csr, dense, lumped_mass_add_at, save_condition_rows, save_field_rows,
                    save_gradcheck_rows, solve_linear_top_test, stiffness_coo,
                    write_column_rows)

# Degree-5 Gauss rule on the triangle (7 points, barycentric), used as an
# independent quadrature oracle for mass-matrix entries (cubic integrands).
_Q7_W = np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])
_a, _b = 0.059715871789770, 0.470142064105115
_c, _d = 0.797426985353087, 0.101286507323456
_Q7_L = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_a, _b, _b], [_b, _a, _b], [_b, _b, _a],
    [_c, _d, _d], [_d, _c, _d], [_d, _d, _c],
])


def quadrature_mass_oracle(mesh, weight):
    """Dense mass matrix via numerical quadrature, independent of the assembly."""
    n = mesh.node_count
    M = np.zeros((n, n))
    for tri, area in zip(mesh.triangles, mesh.areas):
        wv = weight[tri]
        for lam, qw in zip(_Q7_L, _Q7_W):
            wxy = lam @ wv
            for i in range(3):
                for j in range(3):
                    M[tri[i], tri[j]] += qw * area * wxy * lam[i] * lam[j]
    return M


def test_stiffness_matches_hand_computation_on_two_triangles():
    # two right triangles on (-1,1)^2; integration by hand gives this matrix
    m = build_square_mesh(1)
    K = dense(assemble_stiffness(m, np.ones(4)))
    expected = np.array([
        [1.0, -0.5, -0.5, 0.0],
        [-0.5, 1.0, 0.0, -0.5],
        [-0.5, 0.0, 1.0, -0.5],
        [0.0, -0.5, -0.5, 1.0],
    ])
    assert np.allclose(K, expected, atol=1e-14)


def test_stiffness_annihilates_constants():
    m = build_square_mesh(5)
    rng = np.random.default_rng(0)
    gamma = rng.uniform(0.2, 2.0, m.node_count)
    K = assemble_stiffness(m, gamma)
    ones = np.ones(m.node_count)
    assert np.abs(K @ ones).max() <= 1e-12


def test_stiffness_linear_in_gamma():
    m = build_square_mesh(3)
    rng = np.random.default_rng(1)
    gamma = rng.uniform(0.5, 1.5, m.node_count)
    K1 = dense(assemble_stiffness(m, gamma))
    K2 = dense(assemble_stiffness(m, 2.0 * gamma))
    assert np.array_equal(K2, 2.0 * K1)


def test_mass_partition_of_unity():
    m = build_square_mesh(1)
    M = assemble_weighted_mass(m, np.ones(4))
    assert abs(M.sum() - 4.0) <= 1e-14


def test_mass_linear_in_weight():
    m = build_square_mesh(3)
    M1 = assemble_weighted_mass(m, np.ones(m.node_count)).toarray()
    Mc = assemble_weighted_mass(m, 3.5 * np.ones(m.node_count)).toarray()
    assert np.allclose(Mc, 3.5 * M1, rtol=0, atol=1e-15)


def test_mass_against_quadrature_oracle():
    m = build_square_mesh(2)
    weight = m.nodes[:, 0].copy() + 1.5      # x-coordinate field, kept positive
    M = assemble_weighted_mass(m, weight).toarray()
    M_oracle = quadrature_mass_oracle(m, weight)
    assert np.abs(M - M_oracle).max() <= 1e-12


def test_lumped_mass_is_row_sum():
    m = build_square_mesh(4)
    M = assemble_weighted_mass(m, np.ones(m.node_count))
    assert np.allclose(lumped_mass(m), np.asarray(M.sum(axis=1)).ravel(),
                       rtol=0, atol=1e-14)


def test_dirichlet_all_boundary_problem():
    # on the n=1 mesh every node is on the boundary
    m = build_square_mesh(1)
    K = csr(assemble_stiffness(m, np.ones(4)))
    values = {int(i): float(i) + 0.5 for i in m.boundary_list}
    A, b = apply_dirichlet(K, np.zeros(4), values, mesh=m)
    x = solve_linear(banded(A), b, 1e-12)
    for node, val in values.items():
        assert x[node] == pytest.approx(val, abs=1e-12)


def test_dirichlet_homogeneous_zeroes_rhs():
    m = build_square_mesh(3)
    K = csr(assemble_stiffness(m, np.ones(m.node_count)))
    b = np.ones(m.node_count)
    values = {int(i): 0.0 for i in m.boundary_list}
    _, b2 = apply_dirichlet(K, b, values, mesh=m)
    assert np.all(b2[m.boundary_list] == 0.0)


def test_dirichlet_preserves_symmetry():
    m = build_square_mesh(4)
    rng = np.random.default_rng(2)
    K = csr(assemble_stiffness(m, rng.uniform(0.5, 2.0, m.node_count)))
    values = {int(i): rng.uniform(-1, 1) for i in m.boundary_list}
    A, _ = apply_dirichlet(K, np.zeros(m.node_count), values, mesh=m)
    diff = (A - A.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_dirichlet_rejects_interior_node():
    m = build_square_mesh(3)
    K = csr(assemble_stiffness(m, np.ones(m.node_count)))
    interior = int(m.interior_list[0])
    with pytest.raises(ValidationError):
        apply_dirichlet(K, np.zeros(m.node_count), {interior: 1.0}, mesh=m)


def test_p1_reproduces_linear_solution_exactly():
    # u = x is harmonic; P1 reproduces linears so the solve is exact
    m = build_square_mesh(4)
    K = csr(assemble_stiffness(m, np.ones(m.node_count)))
    values = {int(i): float(m.nodes[i, 0]) for i in m.boundary_list}
    A, b = apply_dirichlet(K, np.zeros(m.node_count), values, mesh=m)
    x = solve_linear(banded(A), b, 1e-13)
    assert np.abs(x - m.nodes[:, 0]).max() <= 1e-12


def test_solve_identity():
    A = banded(np.eye(5))
    b = np.arange(5.0)
    assert np.allclose(solve_linear(A, b, 1e-12), b, atol=1e-12)


def test_solve_two_by_two():
    A = banded(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_linear(A, np.array([3.0, 3.0]), 1e-12)
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_solve_against_dense_factorization():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_linear(banded(A), b, 1e-12)
    x_oracle = np.linalg.solve(A, b)
    assert np.linalg.norm(x - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)


def test_solve_zero_rhs():
    A = banded(np.eye(4))
    assert np.all(solve_linear(A, np.zeros(4), 1e-12) == 0.0)


def test_solve_nonconvergence_reports_residual():
    # condition number 1e12: round-off keeps CG from a relative residual of
    # 1e-14, so it stops at its cap of max(1000, 20 n) iterations
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = banded((Q * np.logspace(0.0, -12.0, 40)) @ Q.T)
    with pytest.raises(SolverError, match="in 1000 iterations") as err:
        solve_linear(A, rng.standard_normal(40), 1e-14)
    assert err.value.residual > 1e-14


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_solve_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # rejected before the first iteration: the preconditioner is never applied
    op = ForwardOperator(build_square_mesh(8), 1.0)
    applied = []

    def recording(r):
        applied.append(r)
        return r

    rhs = np.ones(len(op.interior))
    with pytest.raises(ValidationError, match="tolerance"):
        solve_linear(op.K_ii, rhs, tol, preconditioner=recording)
    assert applied == []


@pytest.mark.parametrize("n", [2, 5])
def test_assembled_matrices_symmetric(n):
    # the banded stiffness holds one triangle of a symmetric matrix; it is
    # the stiffness assembled from every local entry (both triangles), which
    # is symmetric, also on a jittered mesh numbered at random (many bands)
    rng = np.random.default_rng(5)
    for m in (build_square_mesh(n), permuted_mesh(jittered_mesh(n, n, 0.1 / n), n)):
        for build in (stiffness_coo, assemble_weighted_mass):
            gamma = rng.uniform(0.1, 1.0, m.node_count)
            A = build(m, gamma)
            gap = np.abs((A - A.T).toarray()).max()
            assert gap <= 1e-14 * np.abs(A.toarray()).max()
            if build is stiffness_coo:
                K = dense(assemble_stiffness(m, gamma))
                assert np.abs(K - A.toarray()).max() <= 1e-14 * np.abs(K).max()


def test_stiffness_positive_semidefinite():
    m = build_square_mesh(6)
    rng = np.random.default_rng(6)
    K = assemble_stiffness(m, rng.uniform(0.2, 2.0, m.node_count))
    for _ in range(10):
        x = rng.standard_normal(m.node_count)
        assert x @ (K @ x) >= -1e-12 * (x @ x)


def test_h_refinement_second_order():
    # Poisson problem with exact solution sin(pi x) sin(pi y), zero on the boundary
    errors = []
    for n in (8, 16, 32):
        m = build_square_mesh(n)
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = 2.0 * np.pi ** 2 * exact
        K = csr(assemble_stiffness(m, np.ones(m.node_count)))
        b = lumped_mass(m) * f
        A, b = apply_dirichlet(K, b, {int(i): 0.0 for i in m.boundary_list}, mesh=m)
        u = solve_linear(banded(A), b, 1e-12)
        M = assemble_weighted_mass(m, np.ones(m.node_count))
        diff = u - exact
        errors.append(np.sqrt(diff @ (M @ diff)))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2, f"observed rates {rates}"


def test_positive_field_bounds():
    m = build_square_mesh(2)
    n = m.node_count
    assert np.array_equal(positive_field(m, np.ones(n), "single_photon"), np.ones(n))
    with pytest.raises(ValidationError, match="coefficient single_photon"):
        positive_field(m, np.zeros(n), "single_photon")


def test_positive_field_coerces_only_what_it_must():
    # a float64 nodal array is neither copied nor converted; anything else
    # comes back as a new float64 nodal array
    m = build_square_mesh(2)
    n = m.node_count
    field = np.full(n, 2.0)
    assert fem.as_field(m, field) is field
    assert positive_field(m, field, "diffusion") is field
    for values, value in [(1, 1.0), (2.5, 2.5), ([2] * n, 2.0),
                          (np.full(n, 3, dtype=np.int64), 3.0),
                          (np.full(n, 4.0, dtype=np.float32), 4.0)]:
        out = positive_field(m, values, "diffusion")
        assert out is not values
        assert out.dtype == np.float64 and out.shape == (n,)
        assert np.all(out == value)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        vals = np.ones(n)
        vals[3] = bad
        with pytest.raises(ValidationError, match="coefficient diffusion"):
            positive_field(m, vals, "diffusion")
    with pytest.raises(ValidationError, match="field has"):
        positive_field(m, np.ones(n + 1), "diffusion")


def float64_sine_inverse(mesh, gamma_mean, reaction_mean):
    """The exact inverse of gamma_mean (T (x) I + I (x) T) + reaction_mean I, in float64."""
    S, lam_sum = fem.grid_sine_basis(mesh)
    eig = gamma_mean * lam_sum + reaction_mean
    m = len(S)
    return lambda r: (S @ (((S @ r.reshape(m, m)) @ S) / eig) @ S).ravel()


@pytest.mark.parametrize("reaction", [0.0, 0.07])
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_sine_preconditioner_inverts_constant_coefficient_grid_operator(n, reaction):
    mesh = build_square_mesh(n)
    system = ForwardOperator(mesh, 0.3)
    w = np.full(len(system.interior), reaction)
    x = np.random.default_rng(n).standard_normal(len(system.interior))
    inverse = float64_sine_inverse(mesh, 0.3, reaction)
    Ax = system.K_ii.matvec(x, system.K_ii.diagonal() + w)
    assert np.linalg.norm(inverse(Ax) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("reaction", [0.0, 0.07])
@pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
def test_sine_preconditioner_applies_the_float64_inverse_in_single_precision(n, reaction):
    mesh = build_square_mesh(n)
    rng = np.random.default_rng(n)
    gamma = rng.uniform(0.1, 1.0, mesh.node_count)
    system = ForwardOperator(mesh, gamma)
    w = rng.uniform(0.0, 2.0 * reaction, len(system.interior))
    apply = system.preconditioner(w)
    assert apply is not None
    inverse = float64_sine_inverse(mesh, float(gamma.mean()), float(w.mean()))
    for _ in range(3):
        r = rng.standard_normal(len(system.interior))
        z = apply(r)
        assert z.dtype == np.float64
        assert np.linalg.norm(z - inverse(r)) <= 1e-5 * np.linalg.norm(inverse(r))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), jitter=st.sampled_from([0.0, 0.3]))
@example(n=128, seed=1, jitter=0.0)
@example(n=128, seed=2, jitter=0.3)
@example(n=96, seed=3, jitter=0.0)
def test_assembly_is_bitwise_the_einsum_and_add_at_forms(n, seed, jitter):
    mesh = jittered_mesh(n, seed, jitter / n)
    gamma = np.random.default_rng(seed).uniform(0.1, 1.0, mesh.node_count)
    K, K_ref = assemble_stiffness(mesh, gamma), assemble_stiffness_einsum(mesh, gamma)
    assert K.diagonal().tobytes() == K_ref.diagonal().tobytes()
    assert K.offsets == K_ref.offsets
    for band, band_ref in zip(K.bands, K_ref.bands):
        assert band.tobytes() == band_ref.tobytes()
    assert lumped_mass(mesh).tobytes() == lumped_mass_add_at(mesh).tobytes()


@pytest.mark.parametrize("n", [2, 7, 32])
def test_grid_interior_block_stores_no_zeros_and_keeps_its_matvec(n):
    # K_ii keeps the two bands of the 5-point stencil and no zero band (the
    # hypotenuse couplings vanish); it is K's interior block, and its matvec
    # is bitwise the sorted CSR block's and the full K's on the interior
    mesh = build_square_mesh(n)
    rng = np.random.default_rng(n)
    gamma = rng.uniform(0.1, 1.0, mesh.node_count)
    system = ForwardOperator(mesh, gamma)
    inner = system.interior
    K = assemble_stiffness(mesh, gamma)
    block = csr(K)[inner][:, inner].tocsr()
    block.sort_indices()
    m = n - 1
    K_ii = system.K_ii
    assert K_ii.offsets == ((1, m) if m > 1 else ())
    assert all(np.any(band != 0.0) for band in K_ii.bands)
    stored = np.count_nonzero(K_ii.diagonal()) + 2 * sum(map(np.count_nonzero, K_ii.bands))
    assert stored == 5 * m * m - 4 * m                   # the 5-point stencil
    assert np.array_equal(dense(K_ii), block.toarray())
    for _ in range(3):
        p = rng.standard_normal(len(inner))
        assert np.array_equal(K_ii @ p, block @ p)
        assert np.array_equal(K_ii @ p, (K @ system.expand(p, 0.0))[inner])


def test_sine_preconditioner_falls_back_to_jacobi_when_indefinite():
    system = ForwardOperator(build_square_mesh(8), 0.3)
    m = len(system.interior)
    assert system.preconditioner(np.full(m, 1.0)) is not None
    assert system.preconditioner(np.full(m, -1.0)) is None


def test_solve_linear_takes_a_preconditioner():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((30, 30))
    A = B @ B.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    inverse = np.linalg.inv(A)
    applications = []

    def exact(r):
        applications.append(1)
        return inverse @ r

    x = solve_linear(banded(A), b, 1e-12, preconditioner=exact)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert len(applications) == 1


def random_spd_system(kind, size, seed, shifted):
    """(A, shift, preconditioner) of a random sparse SPD system.

    kind "sine" is the interior block of a random-diffusion grid operator
    with its sine preconditioner; "jacobi" and "exact" are B B^T plus a
    positive diagonal, B sparse, with z = r / diag(A + shift) or the exact
    inverse of A + diag(shift). shifted draws a nonnegative shift per row.
    """
    rng = np.random.default_rng(seed)
    if kind == "sine":
        mesh = build_square_mesh(size)
        op = ForwardOperator(mesh, rng.uniform(0.2, 2.0, mesh.node_count))
        A = op.K_ii
    else:
        m = size * size
        B = sp.random(m, m, density=3.0 / m, random_state=rng)
        A = banded(B @ B.T + sp.diags(rng.uniform(0.1, 2.0, m)))
    shift = rng.uniform(0.0, 1.0, len(A.diagonal())) if shifted else 0.0
    if kind == "sine":
        return A, shift, op.preconditioner(shift)
    if kind == "jacobi":
        inv_diag = 1.0 / (A.diagonal() + shift)
        return A, shift, lambda r: inv_diag * r
    inverse = np.linalg.inv(dense(A) + np.diag(np.broadcast_to(shift, len(A.diagonal()))))
    return A, shift, lambda r: inverse @ r


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["jacobi", "exact", "sine"]), size=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1), shifted=st.booleans(),
       log_tol=st.floats(-12.0, -1.0))
@example(kind="sine", size=9, seed=1, shifted=True, log_tol=-12.0)
@example(kind="exact", size=2, seed=2, shifted=False, log_tol=-1.0)
def test_cg_applies_its_preconditioner_once_per_iteration(kind, size, seed, shifted,
                                                          log_tol):
    # the same iterations as the top-test loop, so the same bits of x, with
    # one application fewer: none after the update that meets the tolerance
    A, shift, preconditioner = random_spd_system(kind, size, seed, shifted)
    tol = 10.0 ** log_tol
    b = np.random.default_rng(seed + 1).standard_normal(len(A.diagonal()))
    counts = {}

    def counted(name):
        counts[name] = 0

        def apply(r):
            counts[name] += 1
            return preconditioner(r)
        return apply

    x = solve_linear(A, b, tol, preconditioner=counted("new"), shift=shift)
    reference = solve_linear_top_test(A, b, tol, preconditioner=counted("old"), shift=shift)
    assert x.tobytes() == reference.tobytes()
    assert counts["new"] == counts["old"] - 1 >= 1
    if kind == "jacobi":           # the default preconditioner is this Jacobi
        assert solve_linear(A, b, tol, shift=shift).tobytes() == x.tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["jacobi", "exact", "sine"]), size=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1), shifted=st.booleans(),
       log_tol=st.floats(-10.0, -1.0), log_offset=st.floats(-14.0, 1.0))
@example(kind="sine", size=9, seed=1, shifted=True, log_tol=-10.0, log_offset=-14.0)
def test_cg_from_a_start_meets_the_tolerance_of_the_full_right_hand_side(
        kind, size, seed, shifted, log_tol, log_offset):
    # the start moves only where CG begins: the stop test is ||b - A x|| <=
    # tol ||b|| whatever x0 is, a start that already meets it comes back
    # itself with no preconditioner applied, and the zero start is bitwise
    # the cold solve
    A, shift, preconditioner = random_spd_system(kind, size, seed, shifted)
    tol = 10.0 ** log_tol
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(len(A.diagonal()))
    exact = solve_linear(A, b, 1e-13, preconditioner=preconditioner, shift=shift)
    x0 = exact + 10.0 ** log_offset * np.linalg.norm(exact) * rng.standard_normal(len(b))
    applied = []

    def counted(r):
        applied.append(1)
        return preconditioner(r)

    x = solve_linear(A, b, tol, preconditioner=counted, shift=shift, x0=x0)
    shifted_A = dense(A) + np.diag(np.broadcast_to(shift, len(b)))
    meets = np.linalg.norm(b - shifted_A @ x0) <= tol * np.linalg.norm(b)
    assert (x is x0) == meets == (applied == [])
    assert np.linalg.norm(b - shifted_A @ x) <= tol * np.linalg.norm(b)
    cold = solve_linear(A, b, tol, preconditioner=preconditioner, shift=shift)
    zero = solve_linear(A, b, tol, preconditioner=preconditioner, shift=shift,
                        x0=np.zeros(len(b)))
    assert zero.tobytes() == cold.tobytes()


@settings(max_examples=60, deadline=None)
@given(size=st.integers(2, 9), jitter=st.sampled_from([0.0, 0.05]),
       sine=st.booleans(), seed=st.integers(0, 2**32 - 1), started=st.booleans(),
       log_tols=st.lists(st.floats(-12.0, 0.5), min_size=2, max_size=2, unique=True))
@example(size=9, jitter=0.0, sine=True, seed=1, started=False, log_tols=[-2.0, -12.0])
@example(size=5, jitter=0.05, sine=False, seed=2, started=True, log_tols=[0.5, -10.0])
def test_resumed_cg_continues_the_one_shot_iteration(size, jitter, sine, seed, started,
                                                     log_tols):
    # run(t1) then run(t2), t1 > t2, is solve_linear(..., t2): the same bits
    # of x and the same preconditioner applications in all; a later run to
    # any t >= t2 iterates no more, and each run leaves its residual within
    # its tolerance. The sine preconditioner on the grid, Jacobi otherwise
    mesh = jittered_mesh(size, seed % 1000, jitter)
    rng = np.random.default_rng(seed)
    op = ForwardOperator(mesh, rng.uniform(0.2, 2.0, mesh.node_count))
    m = len(op.interior)
    shift = rng.uniform(0.0, 1.0, m)
    b = rng.standard_normal(m)
    x0 = rng.standard_normal(m) if started else None
    t1, t2 = sorted(10.0 ** np.array(log_tols), reverse=True)
    if sine and jitter == 0.0:
        preconditioner = op.preconditioner(shift)
    else:
        inv_diag = 1.0 / (op.K_ii.diagonal() + shift)

        def preconditioner(r):
            return inv_diag * r
    applied = []

    def counted(r):
        applied.append(1)
        return preconditioner(r)

    one_shot = solve_linear(op.K_ii, b, t2, counted, shift, x0)
    once = len(applied)
    applied.clear()
    cg = fem.ConjugateGradient(op.K_ii, b, counted, shift, x0)
    cg.run(t1)
    assert cg.residual_norm <= t1 * np.linalg.norm(b)
    x = cg.run(t2)
    assert x.tobytes() == one_shot.tobytes()
    assert len(applied) == once == cg.iterations
    assert cg.residual_norm <= t2 * np.linalg.norm(b)
    for t in (t2, t1, 10.0 ** rng.uniform(np.log10(t2), 1.0)):
        assert cg.run(t).tobytes() == one_shot.tobytes()
        assert len(applied) == once
        assert cg.residual_norm <= t * np.linalg.norm(b)


@settings(max_examples=60, deadline=None)
@given(position=st.integers(0, 48), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["b", "b, zero start", "x0"]))
def test_cg_rejects_a_non_finite_right_hand_side_or_start_before_iterating(position,
                                                                           bad, where):
    # a NaN would run CG to its iteration cap and fail with a NaN residual,
    # and an infinity in b would pass the stop test with x = 0
    op = ForwardOperator(build_square_mesh(8), 1.0)        # 49 interior nodes
    applied = []

    def recording(r):
        applied.append(r)
        return r

    b = np.ones(len(op.interior))
    x0 = None if where == "b" else np.zeros(len(b))
    (x0 if where == "x0" else b)[position] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        solve_linear(op.K_ii, b, 1e-10, preconditioner=recording, x0=x0)
    assert applied == []


def test_cg_rejects_a_start_of_another_length():
    op = ForwardOperator(build_square_mesh(8), 1.0)
    with pytest.raises(ValidationError, match="CG start has"):
        solve_linear(op.K_ii, np.ones(len(op.interior)), 1e-10,
                     x0=np.zeros(len(op.interior) + 1))


def test_field_shape_check():
    m = build_square_mesh(2)
    with pytest.raises(ValidationError):
        fem.as_field(m, np.ones(5))


def test_field_csv_roundtrip(tmp_path):
    m = build_square_mesh(3)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(m.node_count)
    path = tmp_path / "field.csv"
    save_field(path, values)
    back = load_field(path, m)
    assert np.array_equal(values, back)
    assert path.read_text().splitlines()[0] == "node,value"


def test_field_csv_bad_header(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("value,node\n0,1.0\n")
    with pytest.raises(MeshFormatError):
        load_field(path)


def test_field_csv_bad_order(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("node,value\n0,1.0\n2,2.0\n")
    with pytest.raises(MeshFormatError) as err:
        load_field(path)
    assert "line 3" in str(err.value)


def test_field_csv_mesh_size_mismatch(tmp_path):
    m_small = build_square_mesh(1)
    m_big = build_square_mesh(2)
    path = tmp_path / "field.csv"
    save_field(path, np.ones(m_big.node_count))
    with pytest.raises(MeshFormatError):
        load_field(path, m_small)


# -- column writers: one %-format call per file, bytes of the per-row writers --

ANY_FLOAT64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# signed zeros, subnormals, extreme exponents, non-finite, non-terminating binary
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                    1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan,
                    0.1, 1.0 / 3.0, -123456789.125])


def written_bytes(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out.csv")
        writer(path, *args)
        return path.read_bytes()


@settings(max_examples=80, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=ANY_FLOAT64))
@example(values=np.array([]))
@example(values=np.array([-0.0]))
@example(values=np.array([5e-324]))
@example(values=SPECIAL)
@example(values=np.resize(SPECIAL, 10_001))
def test_save_field_writes_the_bytes_of_the_row_writer(values):
    # the reversed values have the same length, so their node numbers come
    # from the rows that the first file numbered; 10 001 rows reach node 10000
    for drawn in (values, values[::-1]):
        assert written_bytes(save_field, drawn) == written_bytes(save_field_rows, drawn)


@settings(max_examples=150, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=ANY_FLOAT64),
       signs=st.sampled_from(["as drawn", "all negative", "none negative"]))
@example(values=np.array([]), signs="as drawn")
@example(values=np.array([-0.0]), signs="as drawn")
@example(values=np.array([-5e-324, -np.inf, -np.nan]), signs="as drawn")
@example(values=SPECIAL, signs="as drawn")
@example(values=SPECIAL, signs="all negative")
@example(values=SPECIAL, signs="none negative")
def test_save_field_writes_the_clipped_companion_of_the_row_writer(values, signs):
    # all negative: every companion row is formatted again; none negative
    # (abs also clears the sign of -0.0): every row is copied from the raw field
    values = {"as drawn": values, "all negative": -np.abs(values),
              "none negative": np.abs(values)}[signs]
    with tempfile.TemporaryDirectory() as tmp:
        raw, clipped = Path(tmp, "raw.csv"), Path(tmp, "clipped.csv")
        save_field(raw, values, clipped_path=clipped)
        assert raw.read_bytes() == written_bytes(save_field_rows, values)
        assert clipped.read_bytes() == written_bytes(save_field_rows,
                                                     clip_nonnegative(values))


@settings(max_examples=80, deadline=None)
@given(columns=st.integers(0, 40).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=ANY_FLOAT64), hnp.arrays(np.bool_, n))))
@example(columns=(np.array([]), np.array([], dtype=bool)))
@example(columns=(np.array([np.inf]), np.array([True])))
@example(columns=(SPECIAL, np.arange(len(SPECIAL)) % 2 == 0))
@example(columns=(np.resize(SPECIAL, 10_001), np.arange(10_001) % 3 == 0))
def test_condition_report_writes_the_bytes_of_the_row_writer(columns):
    # written twice, the second time reversed, as in the save_field test
    for condition, flagged in (columns, (columns[0][::-1], columns[1][::-1])):
        report = ConditionReport(condition=condition, flagged=flagged,
                                 filled_from=np.arange(len(condition)))
        assert (written_bytes(lambda path: report.save(path))
                == written_bytes(save_condition_rows, report))


@settings(max_examples=40, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=ANY_FLOAT64))
@example(values=SPECIAL)
def test_gradcheck_result_writes_the_bytes_of_the_row_writer(values):
    result = GradCheckResult(relative_errors=np.abs(values), adjoint_values=values,
                             fd_values=values[::-1].copy(), step=1e-6)
    assert (written_bytes(lambda path: result.save(path))
            == written_bytes(save_gradcheck_rows, result))


@settings(max_examples=60, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=ANY_FLOAT64),
       first=st.sampled_from(["from one", "list"]))
@example(values=SPECIAL, first="from one")
@example(values=SPECIAL, first="list")
def test_write_columns_writes_the_bytes_of_the_row_writer(values, first):
    # only a leading range(n) takes the once-numbered rows; range(1, n + 1)
    # and the list [0, ..., n - 1] format every column of every row
    n = len(values)
    numbers = {"from one": range(1, n + 1), "list": list(range(n))}[first]
    args = ("node,value,flag", "%d,%.17g,%d\n", numbers, values.tolist(),
            (values > 0).tolist())
    assert (written_bytes(fem.write_columns, *args)
            == written_bytes(write_column_rows, *args))
