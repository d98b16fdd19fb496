"""Maximum-principle, positivity and comparison checks of semilinear solutions.

The checks are report-only. They encode properties the continuous solution
provably has and the discrete solution is expected to inherit on the
structured meshes used here (acceptance criterion 5). Nothing in the
package runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tppat.errors import ValidationError
from tppat.forward import BoundarySource
from tppat.mesh import Mesh

MAX_PRINCIPLE_TOL = 1e-8


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
    gmax = float(g.values.max())
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
