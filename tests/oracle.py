"""Independent oracle for Dirichlet boundary conditions in the tests.

The library imposes Dirichlet data by splitting the system into interior and
boundary blocks (fem.DirichletSystem). This helper does it the other way, by
symmetric elimination on the full matrix, so tests can compare the two.
"""

import numpy as np
import scipy.sparse as sp

from tppat.errors import ValidationError
from tppat.mesh import Mesh


def apply_dirichlet(A: sp.spmatrix, b: np.ndarray, boundary_values: dict,
                    mesh: Mesh | None = None):
    """Impose u = value at the given nodes by symmetric elimination.

    Rows and columns of constrained nodes are replaced by the identity; the
    eliminated columns move to the right-hand side so symmetry (and SPD-ness
    on the free block) is preserved. When a mesh is supplied, values at
    non-boundary nodes are rejected.
    """
    if mesh is not None:
        for node in boundary_values:
            if int(node) not in mesh.boundary_nodes:
                raise ValidationError(
                    f"Dirichlet value specified for non-boundary node {node}")
    n = A.shape[0]
    idx = np.array(sorted(int(k) for k in boundary_values), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValidationError("Dirichlet node index out of range")
    vals = np.array([float(boundary_values[int(k)]) for k in idx])

    A = A.tocsr().copy()
    b = np.asarray(b, dtype=float).copy()
    g = np.zeros(n)
    g[idx] = vals
    b -= A @ g
    b[idx] = vals

    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    A = A.tolil()
    A[idx, :] = 0.0
    A[:, idx] = 0.0
    A = A.tocsr()
    A = A + sp.diags(mask.astype(float))
    A.eliminate_zeros()
    return A.tocsr(), b
