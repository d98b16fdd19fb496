"""Linearized solves: the derivative of the datum map and boundary traces.

For a coefficient perturbation (d_gamma, d_sigma, d_mu) the solution
perturbation v solves the linearized equation

    -div(gamma grad v) + (sigma + 2 mu |u|) v = S,   v = 0 on the boundary,

with S combining div(d_gamma grad u), -d_sigma u and -d_mu |u| u. The
d_gamma source is assembled weakly as -int d_gamma grad u . grad phi (the
only consistent P1 realization). Because the operator here is exactly the
Jacobian of the discrete forward residual, v is the exact derivative of the
discrete solution map and the datum linearization below is second-order
accurate.

Nothing in the package solves these; the tests use them to check the
linearization the paper's uniqueness and stability results rest on
(acceptance criterion 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tppat import fem
from tppat.errors import ValidationError
from tppat.fem import CoefficientSet, as_field, positive_field
from tppat.forward import BoundarySource, ForwardOperator
from tppat.mesh import Mesh


@dataclass
class CoefficientPerturbation:
    d_gamma: np.ndarray
    d_sigma: np.ndarray
    d_mu: np.ndarray

    def validate(self, mesh: Mesh):
        self.d_gamma = as_field(mesh, self.d_gamma)
        self.d_sigma = as_field(mesh, self.d_sigma)
        self.d_mu = as_field(mesh, self.d_mu)
        return self

    def scaled(self, t: float) -> "CoefficientPerturbation":
        return CoefficientPerturbation(t * self.d_gamma, t * self.d_sigma,
                                       t * self.d_mu)


def perturbed_coefficients(coeffs: CoefficientSet,
                           pert: CoefficientPerturbation) -> CoefficientSet:
    return CoefficientSet(
        gruneisen=coeffs.gruneisen.copy(),
        diffusion=coeffs.diffusion + pert.d_gamma,
        single_photon=coeffs.single_photon + pert.d_sigma,
        two_photon=coeffs.two_photon + pert.d_mu,
    )


def solve_sensitivity(op: ForwardOperator, sigma, mu, u: np.ndarray,
                      pert: CoefficientPerturbation,
                      tol: float = fem.DEFAULT_TOL) -> np.ndarray:
    """Solution perturbation v for the combined right-hand side, zero on boundary.

    u must be a converged forward solution for the diffusion of op and the
    finite, positive sigma and mu (solve_semilinear).
    """
    mesh = op.mesh
    sigma = positive_field(mesh, sigma, "single_photon")
    mu = positive_field(mesh, mu, "two_photon")
    pert.validate(mesh)
    u = as_field(mesh, u)

    rhs = np.zeros(mesh.node_count)
    if np.any(pert.d_gamma != 0.0):
        K_dg = fem.assemble_stiffness(mesh, pert.d_gamma)
        rhs -= K_dg @ u
    rhs -= op.lumped * (pert.d_sigma * u + pert.d_mu * np.abs(u) * u)
    return op.solve_linearized(u, sigma, mu, rhs[op.interior], tol=tol)


def datum_derivative(coeffs: CoefficientSet, u: np.ndarray, v: np.ndarray,
                     pert: CoefficientPerturbation) -> np.ndarray:
    """Datum linearization dH = Gamma (d_sigma u + d_mu |u| u + (sigma + 2 mu |u|) v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError("u and v must share the mesh")
    fz = coeffs.single_photon + 2.0 * coeffs.two_photon * np.abs(u)
    return coeffs.gruneisen * (pert.d_sigma * u
                               + pert.d_mu * np.abs(u) * u
                               + fz * v)


DENOMINATOR_THRESHOLD = 1e-8


def boundary_traces(dH1: np.ndarray, dH2: np.ndarray, g1: BoundarySource,
                    g2: BoundarySource, Gamma: np.ndarray):
    """Boundary traces of (d_sigma, d_mu) from two datum perturbations.

    On the boundary the datum linearization closes without any PDE solve, so
    a 2x2 system per boundary node gives

        phi2 = (dH1 |g2| g2 - dH2 |g1| g1) / (Gamma g1 g2 (|g2| - |g1|))
        phi3 = (dH2 g1 - dH1 g2) / (Gamma g1 g2 (|g2| - |g1|))

    Returns the two trace arrays in mesh.boundary_list order. Requires
    strictly positive sources and ||g2| - |g1|| bounded away from zero at
    every boundary node.
    """
    mesh = g1.mesh
    g1.require_strictly_positive()
    g2.require_strictly_positive()
    bl = mesh.boundary_list
    a1 = g1.values
    a2 = g2.values
    h1 = np.asarray(dH1, dtype=float)[bl]
    h2 = np.asarray(dH2, dtype=float)[bl]
    G = np.asarray(Gamma, dtype=float)[bl]

    gap = np.abs(np.abs(a2) - np.abs(a1))
    floor = DENOMINATOR_THRESHOLD * np.maximum(np.abs(a1), np.abs(a2))
    bad = np.nonzero(gap < floor)[0]
    if bad.size:
        node = int(bl[bad[0]])
        raise ValidationError(
            f"boundary trace ill-conditioned: ||g2|-|g1|| below threshold at "
            f"node {node} (gap {gap[bad[0]]:.3e})")

    denom = G * a1 * a2 * (np.abs(a2) - np.abs(a1))
    phi2 = (h1 * np.abs(a2) * a2 - h2 * np.abs(a1) * a1) / denom
    phi3 = (h2 * a1 - h1 * a2) / denom
    return phi2, phi3
