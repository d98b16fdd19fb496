import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tppat.config import default_config
from tppat.errors import ValidationError
from tppat.fem import CoefficientSet
from tppat.forward import BoundarySource, ForwardOperator, solve_semilinear
from tppat.gradcheck import _fd_directional_derivative as fd_directional_derivative
from tppat.mesh import Mesh, build_square_mesh, load_mesh
from tppat.metrics import relative_l2_error, squared_l2_norm

from builders import jittered_mesh
from oracle import assemble_weighted_mass
from properties import check_comparison, check_max_principle, check_positivity


def test_relative_error_identical_fields():
    m = build_square_mesh(3)
    t = np.linspace(1.0, 2.0, m.node_count)
    assert relative_l2_error(t, t, m) == 0.0


def test_relative_error_doubled_field():
    m = build_square_mesh(3)
    t = np.linspace(1.0, 2.0, m.node_count)
    assert relative_l2_error(2.0 * t, t, m) == pytest.approx(100.0, abs=1e-10)


def test_relative_error_zero_reconstruction():
    m = build_square_mesh(3)
    t = np.linspace(1.0, 2.0, m.node_count)
    assert relative_l2_error(np.zeros(m.node_count), t, m) == pytest.approx(
        100.0, abs=1e-10)


def test_relative_error_zero_truth_rejected():
    m = build_square_mesh(2)
    with pytest.raises(ValidationError):
        relative_l2_error(np.ones(m.node_count), np.zeros(m.node_count), m)


def test_relative_error_with_the_truth_norm_given_is_bitwise_the_same():
    m = build_square_mesh(5)
    rng = np.random.default_rng(2)
    t = rng.uniform(1.0, 2.0, m.node_count)
    r = t + rng.uniform(-0.1, 0.1, m.node_count)
    assert relative_l2_error(r, t, m, squared_l2_norm(t, m)) == relative_l2_error(r, t, m)
    with pytest.raises(ValidationError):
        relative_l2_error(r, np.zeros(m.node_count), m, 0.0)


def test_relative_error_scale_invariant():
    m = build_square_mesh(4)
    rng = np.random.default_rng(0)
    t = rng.uniform(1.0, 2.0, m.node_count)
    r = t + rng.uniform(-0.1, 0.1, m.node_count)
    e1 = relative_l2_error(r, t, m)
    e2 = relative_l2_error(7.0 * r, 7.0 * t, m)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_relative_error_invariant_under_node_permutation():
    m = build_square_mesh(3)
    rng = np.random.default_rng(1)
    t = rng.uniform(1.0, 2.0, m.node_count)
    r = t + rng.uniform(-0.1, 0.1, m.node_count)
    perm = rng.permutation(m.node_count)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(m.node_count)
    m2 = Mesh(nodes=m.nodes[perm],
              triangles=inv[m.triangles],
              boundary_edges=inv[m.boundary_edges])
    assert relative_l2_error(r, t, m) == pytest.approx(
        relative_l2_error(r[perm], t[perm], m2), rel=1e-12)


def loaded_mesh(n, seed, directory):
    """A jittered mesh read back from a file that lists its nodes in random
    order and about half its triangles clockwise (load_mesh reorients them)."""
    base = jittered_mesh(n, seed, 0.3 / n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.node_count)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(base.node_count)
    tris = inv[base.triangles]
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, [0, 2, 1]]
    lines = [f"nodes {base.node_count}"]
    lines += [f"{x!r} {y!r}" for x, y in base.nodes[perm].tolist()]
    lines += [f"triangles {len(tris)}"] + [f"{a} {b} {c}" for a, b, c in tris.tolist()]
    edges = inv[base.boundary_edges]
    lines += [f"boundary_edges {len(edges)}"] + [f"{a} {b}" for a, b in edges.tolist()]
    path = Path(directory) / "mesh.txt"
    path.write_text("\n".join(lines) + "\n")
    return load_mesh(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       kind=st.sampled_from(["grid", "jittered", "loaded"]),
       offset=st.floats(-2.0, 2.0), decade=st.floats(-8.0, 1.0))
def test_relative_error_equals_the_consistent_mass_matrix_norms(seed, n, kind, offset,
                                                                 decade):
    # differential test: the triangle rule against the quadratic forms of the
    # assembled consistent mass matrix
    if kind == "grid":
        mesh = build_square_mesh(n)
    elif kind == "jittered":
        mesh = jittered_mesh(n, seed, 0.3 / n)
    else:
        with tempfile.TemporaryDirectory() as directory:
            mesh = loaded_mesh(n, seed, directory)
    rng = np.random.default_rng(seed)
    truth = offset + rng.uniform(-1.0, 1.0, mesh.node_count)
    reconstructed = truth + 10.0 ** decade * rng.uniform(-1.0, 1.0, mesh.node_count)
    M = assemble_weighted_mass(mesh, np.ones(mesh.node_count))
    d = reconstructed - truth
    expected = 100.0 * np.sqrt((d @ (M @ d)) / (truth @ (M @ truth)))
    assert relative_l2_error(reconstructed, truth, mesh) == pytest.approx(
        expected, rel=1e-13, abs=0.0)
    # each norm alone, which a ratio of two equally wrong norms would hide
    assert squared_l2_norm(truth, mesh) == pytest.approx(
        truth @ (M @ truth), rel=1e-13, abs=0.0)


def forward_state(n=8, gmin=1.0):
    mesh = build_square_mesh(n)
    N = mesh.node_count
    coeffs = CoefficientSet(np.ones(N), np.full(N, 0.25),
                            np.full(N, 0.12), np.full(N, 0.06))
    g = BoundarySource(mesh, gmin + 0.4 * (mesh.nodes[mesh.boundary_list, 0] + 1.0))
    u, _ = solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                            coeffs.single_photon, coeffs.two_photon, g)
    return mesh, coeffs, g, u


def test_max_principle_on_forward_solve():
    _, _, g, u = forward_state()
    assert check_max_principle(u, g).passed


def test_max_principle_fails_on_synthetic_violation():
    mesh, _, g, u = forward_state()
    bad = u.copy()
    victim = int(mesh.interior_list[0])
    bad[victim] = float(g.values.max()) + 1.0
    report = check_max_principle(bad, g)
    assert not report.passed
    assert report.node == victim


def test_max_principle_constant_equality():
    mesh = build_square_mesh(3)
    g = BoundarySource.constant(mesh, 1.5)
    u = np.full(mesh.node_count, 1.5)
    report = check_max_principle(u, g)
    assert report.passed
    assert report.value == pytest.approx(0.0, abs=1e-15)


def test_max_principle_requires_nonnegative_g():
    mesh = build_square_mesh(2)
    g = BoundarySource.constant(mesh, -1.0)
    with pytest.raises(ValidationError):
        check_max_principle(np.zeros(mesh.node_count), g)


def test_positivity_on_forward_solve():
    _, _, g, u = forward_state(gmin=1.0)
    report = check_positivity(u, epsilon=g.min_value)
    assert report.passed
    assert report.value > 0.0


def test_positivity_not_applicable_for_zero_floor():
    report = check_positivity(np.zeros(5), epsilon=0.0)
    assert not report.applicable
    assert report.passed


def test_positivity_with_heterogeneous_coefficients():
    mesh = build_square_mesh(10)
    N = mesh.node_count
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    coeffs = CoefficientSet(
        np.ones(N),
        np.where((x + 0.4) ** 2 + (y - 0.4) ** 2 <= 0.09, 0.3, 0.2),
        np.where((x - 0.4) ** 2 + (y - 0.4) ** 2 <= 0.09, 0.3, 0.15),
        np.where(np.maximum(np.abs(x), np.abs(y + 0.4)) <= 0.3, 0.1, 0.05))
    g = BoundarySource.constant(mesh, 0.5)
    u, _ = solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                            coeffs.single_photon, coeffs.two_photon, g)
    report = check_positivity(u, epsilon=0.5)
    assert report.passed
    assert report.value > 0.0


def test_comparison_check():
    mesh = build_square_mesh(4)
    u1 = np.full(mesh.node_count, 2.0)
    u2 = np.ones(mesh.node_count)
    assert check_comparison(u1, u2, mesh).passed
    assert not check_comparison(u2, u1, mesh).passed


def test_fd_exact_on_quadratics():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return 0.5 * float(x @ A @ x)

    x = np.array([0.3, -0.7])
    d = np.array([1.0, 2.0])
    fd = fd_directional_derivative(f, x, d, 1e-3)
    exact = float((A @ x) @ d)
    assert fd == pytest.approx(exact, rel=1e-9)


def test_fd_step_halving_then_roundoff_plateau():
    def f(x):
        return float(np.sin(x[0]))

    x = np.array([0.7])
    d = np.array([1.0])
    exact = np.cos(0.7)
    errors = {t: abs(fd_directional_derivative(f, x, d, t) - exact)
              for t in (1e-1, 1e-2, 1e-3, 1e-5, 1e-12)}
    assert errors[1e-2] < errors[1e-1]
    assert errors[1e-3] < errors[1e-2]
    assert errors[1e-12] > errors[1e-5]      # roundoff takes over


def test_fd_rejects_nonpositive_step():
    with pytest.raises(ValidationError):
        fd_directional_derivative(lambda x: 0.0, np.zeros(2), np.ones(2), 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.booleans(),
       contrast=st.floats(1.0, 10.0), decade=st.floats(-2.0, 1.0),
       floor=st.floats(1e-3, 1.0), gap=st.floats(1e-2, 1.0))
def test_semilinear_solutions_keep_the_max_positivity_and_comparison_principles(
        seed, grid, contrast, decade, floor, gap):
    # the default n on the grid (sine-preconditioned solves), a jittered
    # non-grid mesh (Jacobi-preconditioned solves) otherwise
    n = default_config().mesh_n
    mesh = build_square_mesh(n) if grid else jittered_mesh(n, seed, 0.3 / n)
    rng = np.random.default_rng(seed)

    def field(low):
        return low * rng.uniform(1.0, contrast, mesh.node_count)

    op = ForwardOperator(mesh, field(0.1))
    sigma, mu = 10.0 ** decade * field(0.1), 10.0 ** decade * field(0.05)
    g_small = BoundarySource(mesh, rng.uniform(floor, floor + 2.0, len(mesh.boundary_list)))
    g_large = BoundarySource(mesh, g_small.values
                             + rng.uniform(gap, 2.0 * gap, len(mesh.boundary_list)))
    u_small, _ = solve_semilinear(op, sigma, mu, g_small)
    u_large, _ = solve_semilinear(op, sigma, mu, g_large)
    for u, g in ((u_small, g_small), (u_large, g_large)):
        assert check_max_principle(u, g).passed
        assert check_positivity(u, epsilon=g.min_value).passed
    assert check_comparison(u_large, u_small, mesh).passed
