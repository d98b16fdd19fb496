"""Relative L2 error of a reconstructed coefficient.

Both norms are exact integrals of the squared piecewise-linear field, by the
P1 triangle rule: the integral of f^2 over a triangle T with vertex values
f_1, f_2, f_3 is |T|/12 (sum f_i^2 + (sum f_i)^2). This is the norm of the
consistent P1 mass matrix, so the error is invariant under node reordering
and simultaneous rescaling.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .errors import ValidationError
from .mesh import Mesh


def squared_l2_norm(values: np.ndarray, mesh: Mesh) -> float:
    """The integral of the square of the nodal field values over mesh."""
    a, b, c = values[mesh.triangles.T]      # vertex values, one row per corner
    s = a + b + c
    return float(mesh.areas @ (a * a + b * b + c * c + s * s)) / 12.0


def relative_l2_error(reconstructed, truth, mesh: Mesh,
                      truth_squared_norm: float | None = None) -> float:
    """100 * ||r - t||_L2 / ||t||_L2, both norms exact on the P1 fields.

    truth_squared_norm, when given, must be squared_l2_norm(truth, mesh): a
    sweep that scores many fields against one truth integrates it once.
    """
    r = fem.as_field(mesh, reconstructed)
    t = fem.as_field(mesh, truth)
    den = squared_l2_norm(t, mesh) if truth_squared_norm is None else truth_squared_norm
    if den == 0.0:
        raise ValidationError("relative error undefined: truth has zero L2 norm")
    return 100.0 * np.sqrt(squared_l2_norm(r - t, mesh) / den)
