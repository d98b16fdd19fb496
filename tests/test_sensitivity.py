import numpy as np
import pytest

from tppat.errors import ValidationError
from tppat.fem import CoefficientSet
from tppat.forward import (BoundarySource, ForwardOperator,
                           compute_datum, solve_semilinear)
from tppat.mesh import build_square_mesh

from oracle import assemble_weighted_mass
from sensitivity import (CoefficientPerturbation, boundary_traces, datum_derivative,
                         perturbed_coefficients, solve_sensitivity)

TIGHT = 1e-13       # Newton residual of the forward solves


def solve(mesh, coeffs, g):
    """Tight forward solve for coeffs, with a new operator for coeffs.diffusion."""
    return solve_semilinear(ForwardOperator(mesh, coeffs.diffusion),
                            coeffs.single_photon, coeffs.two_photon, g, TIGHT)


def sensitivity(mesh, coeffs, u, pert):
    """solve_sensitivity to 1e-13 at coeffs, with a new operator for their diffusion."""
    return solve_sensitivity(ForwardOperator(mesh, coeffs.diffusion), coeffs.single_photon,
                             coeffs.two_photon, u, pert, tol=1e-13)


def setup_state(n=8, seed=0):
    mesh = build_square_mesh(n)
    N = mesh.node_count
    rng = np.random.default_rng(seed)
    coeffs = CoefficientSet(
        gruneisen=np.full(N, 1.0),
        diffusion=rng.uniform(0.2, 0.4, N),
        single_photon=rng.uniform(0.08, 0.2, N),
        two_photon=rng.uniform(0.04, 0.1, N))
    x, y = mesh.nodes[mesh.boundary_list].T
    g = BoundarySource(mesh, 1.5 + 0.4 * x - 0.3 * y)
    u, _ = solve(mesh, coeffs, g)
    pert = CoefficientPerturbation(
        d_gamma=0.1 * coeffs.diffusion * rng.uniform(-1, 1, N),
        d_sigma=0.2 * coeffs.single_photon * rng.uniform(-1, 1, N),
        d_mu=0.2 * coeffs.two_photon * rng.uniform(-1, 1, N))
    return mesh, coeffs, g, u, pert


def l2norm(mesh, f):
    M = assemble_weighted_mass(mesh, np.ones(mesh.node_count))
    return float(np.sqrt(f @ (M @ f)))


def test_zero_perturbation_gives_zero():
    mesh, coeffs, _, u, _ = setup_state()
    zero = CoefficientPerturbation(np.zeros(mesh.node_count),
                                   np.zeros(mesh.node_count),
                                   np.zeros(mesh.node_count))
    v = sensitivity(mesh, coeffs, u, zero)
    assert np.all(v == 0.0)
    dH = datum_derivative(coeffs, u, v, zero)
    assert np.all(dH == 0.0)


def test_linearity_in_perturbation():
    mesh, coeffs, _, u, pert = setup_state()
    v1 = sensitivity(mesh, coeffs, u, pert)
    v2 = sensitivity(mesh, coeffs, u, pert.scaled(2.0))
    scale = np.abs(v1).max()
    assert np.abs(v2 - 2.0 * v1).max() <= 1e-10 * scale


def test_additivity_in_perturbation():
    mesh, coeffs, _, u, pert = setup_state()
    only_sigma = CoefficientPerturbation(np.zeros_like(pert.d_gamma),
                                         pert.d_sigma, np.zeros_like(pert.d_mu))
    only_rest = CoefficientPerturbation(pert.d_gamma,
                                        np.zeros_like(pert.d_sigma), pert.d_mu)
    v_sum = (sensitivity(mesh, coeffs, u, only_sigma)
             + sensitivity(mesh, coeffs, u, only_rest))
    v_all = sensitivity(mesh, coeffs, u, pert)
    assert np.abs(v_all - v_sum).max() <= 1e-10 * max(np.abs(v_all).max(), 1e-30)


def test_sensitivity_boundary_is_zero():
    mesh, coeffs, _, u, pert = setup_state()
    v = sensitivity(mesh, coeffs, u, pert)
    assert np.all(v[mesh.boundary_list] == 0.0)


def test_solution_taylor_remainder_quadratic():
    mesh, coeffs, g, u, pert = setup_state()
    v = sensitivity(mesh, coeffs, u, pert)
    rems = []
    for t in (1e-2, 5e-3):
        ct = perturbed_coefficients(coeffs, pert.scaled(t))
        ut, _ = solve(mesh, ct, g)
        rems.append(l2norm(mesh, ut - u - t * v))
    ratio = rems[0] / rems[1]
    assert 3.5 <= ratio <= 4.5, f"remainders {rems}, ratio {ratio}"


def test_datum_taylor_remainder_quadratic():
    mesh, coeffs, g, u, pert = setup_state(seed=5)
    v = sensitivity(mesh, coeffs, u, pert)
    dH = datum_derivative(coeffs, u, v, pert)
    H0 = compute_datum(coeffs, u)
    rems = []
    for t in (1e-2, 5e-3):
        ct = perturbed_coefficients(coeffs, pert.scaled(t))
        ut, _ = solve(mesh, ct, g)
        rems.append(l2norm(mesh, compute_datum(ct, ut) - H0 - t * dH))
    order = np.log2(rems[0] / rems[1])
    assert order >= 1.9, f"remainders {rems}, order {order}"


def test_datum_derivative_single_photon_specialization():
    # with mu = 0 and d_mu = 0 the derivative collapses to Gamma (d_sigma u + sigma v)
    mesh, coeffs, g, _, pert = setup_state()
    N = mesh.node_count
    coeffs = CoefficientSet(coeffs.gruneisen, coeffs.diffusion,
                            coeffs.single_photon, np.full(N, 1e-300))
    u, _ = solve(mesh, coeffs, g)
    pert = CoefficientPerturbation(np.zeros(N), pert.d_sigma, np.zeros(N))
    v = sensitivity(mesh, coeffs, u, pert)
    dH = datum_derivative(coeffs, u, v, pert)
    expected = coeffs.gruneisen * (pert.d_sigma * u + coeffs.single_photon * v)
    assert np.allclose(dH, expected, rtol=1e-9, atol=1e-12)


def test_boundary_traces_hand_example():
    # d_sigma = d_mu = 1 with g1 = 2, g2 = 1 gives dH1 = 6, dH2 = 2;
    # inverting by hand returns (1, 1)
    mesh = build_square_mesh(2)
    N = mesh.node_count
    g1 = BoundarySource.constant(mesh, 2.0)
    g2 = BoundarySource.constant(mesh, 1.0)
    phi2, phi3 = boundary_traces(np.full(N, 6.0), np.full(N, 2.0), g1, g2,
                                 np.ones(N))
    assert np.allclose(phi2, 1.0, atol=1e-13)
    assert np.allclose(phi3, 1.0, atol=1e-13)


def test_boundary_traces_zero_data():
    mesh = build_square_mesh(2)
    N = mesh.node_count
    g1 = BoundarySource.constant(mesh, 2.0)
    g2 = BoundarySource.constant(mesh, 1.0)
    phi2, phi3 = boundary_traces(np.zeros(N), np.zeros(N), g1, g2, np.ones(N))
    assert np.all(phi2 == 0.0)
    assert np.all(phi3 == 0.0)


def test_boundary_traces_equal_sources_rejected():
    mesh = build_square_mesh(2)
    N = mesh.node_count
    g = BoundarySource.constant(mesh, 1.5)
    with pytest.raises(ValidationError) as err:
        boundary_traces(np.ones(N), np.ones(N), g, g, np.ones(N))
    assert "node" in str(err.value)


def test_boundary_traces_requires_positive_sources():
    mesh = build_square_mesh(2)
    N = mesh.node_count
    g1 = BoundarySource.constant(mesh, 0.0)
    g2 = BoundarySource.constant(mesh, 1.0)
    with pytest.raises(ValidationError):
        boundary_traces(np.zeros(N), np.zeros(N), g1, g2, np.ones(N))


def test_boundary_traces_consistent_with_datum_derivative():
    # dH_j computed from the full linearization restricted to the boundary
    # must invert back to the perturbation traces
    mesh = build_square_mesh(4)
    N = mesh.node_count
    coeffs = CoefficientSet(np.full(N, 1.3), np.full(N, 0.25),
                            np.full(N, 0.12), np.full(N, 0.06))
    g1 = BoundarySource.constant(mesh, 2.0)
    g2 = BoundarySource.constant(mesh, 0.9)
    rng = np.random.default_rng(9)
    pert = CoefficientPerturbation(np.zeros(N),
                                   0.01 * rng.uniform(-1, 1, N),
                                   0.01 * rng.uniform(-1, 1, N))
    dHs = []
    for g in (g1, g2):
        u, _ = solve(mesh, coeffs, g)
        v = sensitivity(mesh, coeffs, u, pert)
        dHs.append(datum_derivative(coeffs, u, v, pert))
    phi2, phi3 = boundary_traces(dHs[0], dHs[1], g1, g2, coeffs.gruneisen)
    bl = mesh.boundary_list
    assert np.allclose(phi2, pert.d_sigma[bl], atol=1e-10)
    assert np.allclose(phi3, pert.d_mu[bl], atol=1e-10)
