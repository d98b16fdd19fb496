"""Relative L2 error of a reconstructed coefficient.

The error uses the L2 norm induced by the consistent P1 mass matrix, so it
is invariant under node reordering and simultaneous rescaling.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .errors import ValidationError
from .mesh import Mesh


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
