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
from tppat.fem import (CoefficientSet, assemble_stiffness, assemble_weighted_mass,
                       clip_nonnegative, load_field, lumped_mass, save_field,
                       solve_linear)
from tppat.forward import ForwardOperator
from tppat.mesh import build_square_mesh

from oracle import (apply_dirichlet, assemble_stiffness_einsum, lumped_mass_add_at,
                    save_condition_rows, save_field_rows)
from test_forward import jittered_mesh

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
    for tri, area in zip(mesh.triangles, mesh.signed_areas()):
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
    K = assemble_stiffness(m, np.ones(4)).toarray()
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
    K1 = assemble_stiffness(m, gamma).toarray()
    K2 = assemble_stiffness(m, 2.0 * gamma).toarray()
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
    K = assemble_stiffness(m, np.ones(4))
    values = {int(i): float(i) + 0.5 for i in m.boundary_nodes}
    A, b = apply_dirichlet(K, np.zeros(4), values, mesh=m)
    x = solve_linear(A, b, 1e-12)
    for node, val in values.items():
        assert x[node] == pytest.approx(val, abs=1e-12)


def test_dirichlet_homogeneous_zeroes_rhs():
    m = build_square_mesh(3)
    K = assemble_stiffness(m, np.ones(m.node_count))
    b = np.ones(m.node_count)
    values = {int(i): 0.0 for i in m.boundary_nodes}
    _, b2 = apply_dirichlet(K, b, values, mesh=m)
    assert np.all(b2[m.boundary_list] == 0.0)


def test_dirichlet_preserves_symmetry():
    m = build_square_mesh(4)
    rng = np.random.default_rng(2)
    K = assemble_stiffness(m, rng.uniform(0.5, 2.0, m.node_count))
    values = {int(i): rng.uniform(-1, 1) for i in m.boundary_nodes}
    A, _ = apply_dirichlet(K, np.zeros(m.node_count), values, mesh=m)
    diff = (A - A.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_dirichlet_rejects_interior_node():
    m = build_square_mesh(3)
    K = assemble_stiffness(m, np.ones(m.node_count))
    interior = int(m.interior_list[0])
    with pytest.raises(ValidationError):
        apply_dirichlet(K, np.zeros(m.node_count), {interior: 1.0}, mesh=m)


def test_p1_reproduces_linear_solution_exactly():
    # u = x is harmonic; P1 reproduces linears so the solve is exact
    m = build_square_mesh(4)
    K = assemble_stiffness(m, np.ones(m.node_count))
    values = {int(i): float(m.nodes[i, 0]) for i in m.boundary_nodes}
    A, b = apply_dirichlet(K, np.zeros(m.node_count), values, mesh=m)
    x = solve_linear(A, b, 1e-13)
    assert np.abs(x - m.nodes[:, 0]).max() <= 1e-12


def test_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_linear(A, b, 1e-12), b, atol=1e-12)


def test_solve_two_by_two():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_linear(A, np.array([3.0, 3.0]), 1e-12)
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_solve_against_dense_factorization():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_linear(sp.csr_matrix(A), b, 1e-12)
    x_oracle = np.linalg.solve(A, b)
    assert np.linalg.norm(x - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)


def test_solve_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.all(solve_linear(A, np.zeros(4), 1e-12) == 0.0)


def test_solve_nonconvergence_reports_residual():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((40, 40))
    A = sp.csr_matrix(B @ B.T + 0.1 * np.eye(40))
    with pytest.raises(SolverError) as err:
        solve_linear(A, rng.standard_normal(40), 1e-14, max_iterations=2)
    assert err.value.residual is not None


@pytest.mark.parametrize("n", [2, 5])
def test_assembled_matrices_symmetric(n):
    m = build_square_mesh(n)
    rng = np.random.default_rng(5)
    for build in (assemble_stiffness, assemble_weighted_mass):
        A = build(m, rng.uniform(0.1, 1.0, m.node_count))
        gap = np.abs((A - A.T).toarray()).max()
        assert gap <= 1e-14 * np.abs(A.toarray()).max()


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
        K = assemble_stiffness(m, np.ones(m.node_count))
        b = lumped_mass(m) * f
        A, b = apply_dirichlet(K, b, {int(i): 0.0 for i in m.boundary_nodes}, mesh=m)
        u = solve_linear(A, b, 1e-12)
        M = assemble_weighted_mass(m, np.ones(m.node_count))
        diff = u - exact
        errors.append(np.sqrt(diff @ (M @ diff)))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2, f"observed rates {rates}"


def test_coefficient_set_bounds():
    m = build_square_mesh(2)
    n = m.node_count
    good = CoefficientSet(np.ones(n), np.ones(n), np.ones(n), np.ones(n))
    good.validate(m)
    bad = CoefficientSet(np.ones(n), np.ones(n), np.zeros(n), np.ones(n))
    with pytest.raises(ValidationError):
        bad.validate(m)


def test_coefficient_set_validate_coerces_only_what_it_must():
    m = build_square_mesh(2)
    n = m.node_count
    fields = [np.ones(n), np.full(n, 2.0), np.full(n, 3.0), np.full(n, 4.0)]
    coeffs = CoefficientSet(*fields).validate(m)
    kept = (coeffs.gruneisen, coeffs.diffusion, coeffs.single_photon, coeffs.two_photon)
    assert all(a is b for a, b in zip(kept, fields))
    mixed = CoefficientSet(1, [2] * n, np.full(n, 3, dtype=np.int64),
                           np.full(n, 4.0, dtype=np.float32)).validate(m)
    for name, value in [("gruneisen", 1.0), ("diffusion", 2.0),
                        ("single_photon", 3.0), ("two_photon", 4.0)]:
        field = getattr(mixed, name)
        assert field.dtype == np.float64 and field.shape == (n,)
        assert np.all(field == value)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        vals = np.ones(n)
        vals[3] = bad
        with pytest.raises(ValidationError):
            CoefficientSet(np.ones(n), vals, np.ones(n), np.ones(n)).validate(m)
    with pytest.raises(ValidationError):
        CoefficientSet(np.ones(n), np.ones(n + 1), np.ones(n), np.ones(n)).validate(m)


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
    A = system.K_ii + sp.diags(w)
    assert np.linalg.norm(inverse(A @ x) - x) <= 1e-12 * np.linalg.norm(x)


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
def test_assembly_is_bitwise_the_einsum_and_add_at_forms(n, seed, jitter):
    mesh = jittered_mesh(n, seed, jitter / n)
    gamma = np.random.default_rng(seed).uniform(0.1, 1.0, mesh.node_count)
    K, K_ref = assemble_stiffness(mesh, gamma), assemble_stiffness_einsum(mesh, gamma)
    for name in ("data", "indices", "indptr"):
        assert getattr(K, name).tobytes() == getattr(K_ref, name).tobytes(), name
    assert lumped_mass(mesh).tobytes() == lumped_mass_add_at(mesh).tobytes()


@pytest.mark.parametrize("n", [2, 7, 32])
def test_grid_interior_block_stores_no_zeros_and_keeps_its_matvec(n):
    mesh = build_square_mesh(n)
    rng = np.random.default_rng(n)
    gamma = rng.uniform(0.1, 1.0, mesh.node_count)
    system = ForwardOperator(mesh, gamma)
    inner = system.interior
    unpruned = assemble_stiffness(mesh, gamma)[inner][:, inner].tocsr()
    m = n - 1
    assert np.all(system.K_ii.data != 0.0)
    assert system.K_ii.nnz == 5 * m * m - 4 * m          # the 5-point stencil
    assert abs(system.K_ii - unpruned).max() == 0.0
    for _ in range(3):
        p = rng.standard_normal(len(inner))
        assert np.array_equal(system.K_ii @ p, unpruned @ p)


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

    x = solve_linear(sp.csr_matrix(A), b, 1e-12, preconditioner=exact)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert len(applications) <= 3


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
def test_save_field_writes_the_bytes_of_the_row_writer(values):
    assert written_bytes(save_field, values) == written_bytes(save_field_rows, values)


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
def test_condition_report_writes_the_bytes_of_the_row_writer(columns):
    condition, flagged = columns
    report = ConditionReport(condition=condition, flagged=flagged,
                             filled_from=np.arange(len(condition)))
    assert (written_bytes(lambda path: report.save(path))
            == written_bytes(save_condition_rows, report))
