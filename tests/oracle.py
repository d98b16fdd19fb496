"""Independent oracles the tests compare the library against.

The library imposes Dirichlet data by splitting the system into interior and
boundary blocks (forward.ForwardOperator). apply_dirichlet does it the other
way, by symmetric elimination on the full matrix, so tests can compare the
two.

The library writes CSV columns with one %-format call per file; the
per-row f-string writers below are the reference for their bytes.

The library writes the local stiffness products out and sums the lumped
mass with np.bincount; assemble_stiffness_einsum and lumped_mass_add_at are
the np.einsum and np.add.at forms they replaced, the reference for their
bits.
"""

import numpy as np
import scipy.sparse as sp

from tppat import fem
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


def save_field_rows(path, values) -> None:
    """fem.save_field, one f-string per row."""
    values = np.asarray(values, dtype=float)
    lines = ["node,value"]
    for i, v in enumerate(values):
        lines.append(f"{i},{v:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_condition_rows(path, report) -> None:
    """direct.ConditionReport.save, one f-string per row."""
    lines = ["node,condition,flag"]
    for i in range(len(report.condition)):
        cond, flag = float(report.condition[i]), int(report.flagged[i])
        lines.append(f"{i},{cond:.17g},{flag}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_mesh_rows(mesh, path) -> None:
    """mesh.save_mesh, one f-string per row."""
    lines = [f"nodes {mesh.node_count}"]
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.triangle_count}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    for a, b in mesh.boundary_edges:
        lines.append(f"{a} {b}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def assemble_stiffness_einsum(mesh, gamma) -> sp.csr_matrix:
    """fem.assemble_stiffness with the local matrices from np.einsum."""
    gamma = fem.as_field(mesh, gamma)
    area, grads = fem._triangle_geometry(mesh)
    gbar = gamma[mesh.triangles].mean(axis=1)
    local = np.einsum("tid,tjd->tij", grads, grads) * (gbar * area)[:, None, None]
    return fem._scatter(mesh, local)


def lumped_mass_add_at(mesh) -> np.ndarray:
    """fem.lumped_mass accumulated with np.add.at."""
    area, _ = fem._triangle_geometry(mesh)
    m = np.zeros(mesh.node_count)
    np.add.at(m, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return m
