"""Quantitative evaluation and solution-property checks.

Relative errors use the L2 norm induced by the consistent P1 mass matrix, so
they are invariant under node reordering and simultaneous rescaling. The
maximum-principle, positivity, and comparison checks are report-only; they
encode properties the continuous solution provably has and the discrete
solution is expected to inherit on the structured meshes used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ValidationError
from .forward import BoundarySource
from .mesh import Mesh

MAX_PRINCIPLE_TOL = 1e-8


def relative_l2_error(reconstructed, truth, mesh: Mesh, mass=None) -> float:
    """100 * ||r - t||_L2 / ||t||_L2 with mass-matrix quadrature.

    mass is the consistent mass matrix of mesh,
    fem.assemble_weighted_mass(mesh, 1). It is assembled here when omitted;
    callers that measure many fields on one mesh pass it in to assemble it
    once.
    """
    r = fem.as_field(mesh, reconstructed)
    t = fem.as_field(mesh, truth)
    M = fem.assemble_weighted_mass(mesh, np.ones(mesh.node_count)) if mass is None else mass
    if M.shape != (mesh.node_count, mesh.node_count):
        raise ValidationError(
            f"mass matrix has shape {M.shape}, mesh has {mesh.node_count} nodes")
    diff = r - t
    num = float(diff @ (M @ diff))
    den = float(t @ (M @ t))
    if den == 0.0:
        raise ValidationError("relative error undefined: truth has zero L2 norm")
    return 100.0 * np.sqrt(num / den)


@dataclass
class PropertyReport:
    passed: bool
    detail: str
    value: float
    node: int | None = None
    applicable: bool = True

    def __str__(self):
        status = "pass" if self.passed else ("fail" if self.applicable else "n/a")
        return f"{status}: {self.detail}"


def check_max_principle(u, g: BoundarySource, tol: float = MAX_PRINCIPLE_TOL):
    """Check sup u <= sup g + tol for nonnegative boundary data."""
    if g.min_value < 0.0:
        raise ValidationError("maximum-principle check requires g >= 0")
    u = np.asarray(u, dtype=float)
    gmax = g.max_value
    worst = int(np.argmax(u))
    excess = float(u[worst]) - gmax
    passed = excess <= tol
    return PropertyReport(
        passed=passed,
        detail=(f"max u = {u[worst]:.12g} at node {worst}, "
                f"max boundary g = {gmax:.12g}, excess = {excess:.3e}"),
        value=excess, node=worst)


def check_positivity(u, epsilon: float):
    """Check min u > 0 given boundary data bounded below by epsilon > 0.

    Not applicable when epsilon <= 0 (the theory gives no lower bound then).
    """
    u = np.asarray(u, dtype=float)
    worst = int(np.argmin(u))
    if epsilon <= 0.0:
        return PropertyReport(passed=True, applicable=False,
                              detail="not applicable: boundary floor is 0",
                              value=float(u[worst]), node=worst)
    passed = u[worst] > 0.0
    return PropertyReport(
        passed=passed,
        detail=f"min u = {u[worst]:.12g} at node {worst} (boundary floor {epsilon:g})",
        value=float(u[worst]), node=worst)


def check_comparison(u_large, u_small, mesh: Mesh):
    """Check u_large > u_small at every interior node (boundary data ordered)."""
    u1 = np.asarray(u_large, dtype=float)
    u2 = np.asarray(u_small, dtype=float)
    interior = mesh.interior_list
    diff = u1[interior] - u2[interior]
    if interior.size == 0:
        return PropertyReport(passed=True, detail="no interior nodes", value=0.0)
    worst = int(np.argmin(diff))
    passed = bool(diff[worst] > 0.0)
    return PropertyReport(
        passed=passed,
        detail=(f"min (u1 - u2) over interior = {diff[worst]:.12g} "
                f"at node {int(interior[worst])}"),
        value=float(diff[worst]), node=int(interior[worst]))


def save_property_reports(path, reports: dict) -> None:
    """Machine-readable CSV companion to the human-readable report strings.

    reports maps a check name to its PropertyReport.
    """
    lines = ["check,passed,applicable,value,node"]
    for name in sorted(reports):
        r = reports[name]
        node = "" if r.node is None else str(r.node)
        lines.append(f"{name},{int(r.passed)},{int(r.applicable)},"
                     f"{r.value:.17g},{node}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def fd_directional_derivative(functional, point, direction, step: float) -> float:
    """Central difference (F(x + t d) - F(x - t d)) / (2 t)."""
    if step <= 0.0:
        raise ValidationError("finite-difference step must be positive")
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    fp = functional(point + step * direction)
    fm = functional(point - step * direction)
    return (fp - fm) / (2.0 * step)
