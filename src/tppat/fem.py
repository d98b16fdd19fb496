"""P1 finite-element assembly and sparse linear solves.

Coefficients live as nodal fields (piecewise-linear interpolants). Stiffness
and mass integrals of products of linears are evaluated exactly. The linear
solver is preconditioned conjugate gradients (solve_linear), which is
deterministic and keeps the Dirichlet-eliminated SPD structure assumptions
explicit; its default preconditioner is Jacobi. grid_sine_basis gives the
sine transform that diagonalizes the constant-coefficient operator on the
build_square_mesh grid (Concus & Golub 1973). forward.ForwardOperator, which
holds the Dirichlet operator of one diffusion field, preconditions its grid
solves with it, so they need about ten iterations at any mesh size; it
applies the transform in float32, while solve_linear keeps its iterates,
residuals and stop test in float64.

Nodal fields serialize as CSV with header ``node,value``, one row per node in
mesh order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshFormatError, SolverError, ValidationError
from .mesh import Mesh

DEFAULT_TOL = 1e-10


def as_field(mesh: Mesh, values) -> np.ndarray:
    """Coerce to a float array with one value per mesh node."""
    arr = np.asarray(values, dtype=float)
    if np.isscalar(values) or arr.ndim == 0:
        return np.full(mesh.node_count, float(arr))
    if arr.shape != (mesh.node_count,):
        raise ValidationError(
            f"field has {arr.shape} values, mesh has {mesh.node_count} nodes")
    return arr.copy()


@dataclass
class CoefficientSet:
    """The quadruple (Gamma, gamma, sigma, mu) of positive nodal fields.

    gruneisen: photoacoustic efficiency Gamma; diffusion: gamma;
    single_photon: sigma; two_photon: mu. All must be bounded away from zero.
    """

    gruneisen: np.ndarray
    diffusion: np.ndarray
    single_photon: np.ndarray
    two_photon: np.ndarray

    def validate(self, mesh: Mesh):
        """Check every field; coerce (and copy) only those not yet nodal float arrays."""
        for name in ("gruneisen", "diffusion", "single_photon", "two_photon"):
            setattr(self, name, positive_field(mesh, getattr(self, name), name))
        return self


def positive_field(mesh: Mesh, values, name: str) -> np.ndarray:
    """values as a nodal float field, checked finite and positive everywhere.

    Coerces (and copies) only values that are not yet a nodal float array.
    name is the coefficient the ValidationError names.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.shape == (mesh.node_count,)):
        values = as_field(mesh, values)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"coefficient {name} has non-finite values")
    if values.min() <= 0.0:
        raise ValidationError(f"coefficient {name} must be positive everywhere "
                              f"(min is {values.min():g})")
    return values


def _triangle_geometry(mesh: Mesh):
    """Per-triangle areas and P1 gradient vectors, vectorized over triangles."""
    p = mesh.nodes
    t = mesh.triangles
    a, b, c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    area = 0.5 * det
    # grad phi_i = perp(edge opposite i) / (2 area)
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= det[:, None, None]
    return area, grads


def assemble_stiffness(mesh: Mesh, gamma) -> sp.csr_matrix:
    """Stiffness matrix K[i,j] = ∫ gamma ∇phi_i·∇phi_j, gamma piecewise linear.

    Since P1 gradients are constant per triangle the integral is exact with
    the mean of the vertex values of gamma (equivalently the mid-edge rule).
    K is symmetric positive semidefinite with constants in its kernel.
    """
    gamma = as_field(mesh, gamma)
    area, grads = _triangle_geometry(mesh)
    gbar = gamma[mesh.triangles].mean(axis=1)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    local = gx[:, :, None] * gx[:, None, :]
    local += gy[:, :, None] * gy[:, None, :]
    local *= (gbar * area)[:, None, None]
    return _scatter(mesh, local)


def assemble_weighted_mass(mesh: Mesh, weight) -> sp.csr_matrix:
    """Consistent mass matrix M[i,j] = ∫ w phi_i phi_j with w piecewise linear.

    Exact closed form for products of three linears on a triangle:
    diagonal (6 w_i + 2 w_j + 2 w_k)|T|/60, off-diagonal (2 w_i + 2 w_j + w_k)|T|/60.
    """
    weight = as_field(mesh, weight)
    if not np.all(np.isfinite(weight)):
        raise ValidationError("mass weight has non-finite values")
    area, _ = _triangle_geometry(mesh)
    w = weight[mesh.triangles]          # (T, 3)
    local = np.empty((len(area), 3, 3))
    for i in range(3):
        for j in range(3):
            k = 3 - i - j if i != j else (i + 1) % 3
            if i == j:
                coeff = 6.0 * w[:, i] + 2.0 * w[:, (i + 1) % 3] + 2.0 * w[:, (i + 2) % 3]
            else:
                coeff = 2.0 * w[:, i] + 2.0 * w[:, j] + w[:, k]
            local[:, i, j] = coeff * area / 60.0
    return _scatter(mesh, local)


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Row-sum lumped unweighted mass: m_i = ∫ phi_i = sum of |T|/3 over incident T."""
    area, _ = _triangle_geometry(mesh)
    return np.bincount(mesh.triangles.ravel(), weights=np.repeat(area / 3.0, 3),
                       minlength=mesh.node_count)


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.node_count
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def solve_linear(A: sp.spmatrix, b: np.ndarray, tol: float = DEFAULT_TOL,
                 max_iterations: int | None = None, preconditioner=None, shift=0.0):
    """Preconditioned conjugate gradients for the SPD system (A + diag(shift)) x = b.

    shift (an array of one value per row, or a scalar) is added to the
    diagonal without forming the sum: CG applies A @ p + shift * p, or
    A @ p alone when shift is zero everywhere.
    preconditioner maps a residual r to z = P^-1 r for a symmetric positive
    definite P; the default is Jacobi, z = r / (diag(A) + shift). Returns x
    with relative residual ||(A + diag(shift)) x - b|| / ||b|| <= tol (x = 0
    when b = 0). Raises SolverError with the final residual on
    non-convergence.
    """
    A = A.tocsr()
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    if max_iterations is None:
        max_iterations = max(1000, 20 * n)

    diag = A.diagonal() + shift
    if np.any(diag <= 0.0):
        raise SolverError("matrix diagonal must be positive for CG")
    if np.any(shift):
        def matvec(p):
            return A @ p + shift * p
    else:
        matvec = A.dot
    if preconditioner is None:
        inv_diag = 1.0 / diag

        def preconditioner(r):
            return inv_diag * r

    x = np.zeros(n)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    target = tol * bnorm

    for _ in range(max_iterations):
        if np.linalg.norm(r) <= target:
            return x
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("matrix is not positive definite (p^T A p <= 0)",
                              residual=float(np.linalg.norm(r)) / bnorm)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    res = float(np.linalg.norm(b - matvec(x))) / bnorm
    if res <= tol:
        return x
    raise SolverError(
        f"CG failed to reach tol {tol:g} in {max_iterations} iterations "
        f"(relative residual {res:.3e})", residual=res)


def grid_sine_basis(mesh: Mesh):
    """(S, lambda_k + lambda_l) for the interior of a build_square_mesh grid.

    None when the nodes are not that grid in row-major order.
    S[k, l] = sqrt(2/n) sin(pi k l / n) is symmetric and orthogonal, and
    diagonalizes T = tridiag(-1, 2, -1) with eigenvalues 2 - 2 cos(pi k / n).
    """
    n = int(round(np.sqrt(mesh.node_count))) - 1
    if n < 2 or (n + 1) ** 2 != mesh.node_count:
        return None
    coords = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    inner = (np.arange(1, n)[:, None] * (n + 1) + np.arange(1, n)).ravel()
    if not (np.allclose(mesh.nodes, grid, rtol=0.0, atol=1e-12)
            and np.array_equal(mesh.interior_list, inner)):
        return None
    k = np.arange(1, n)
    S = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    return S, lam[:, None] + lam[None, :]


def format_columns(row_format: str, *columns) -> str:
    """Equal-length columns formatted as rows, one row_format per row.

    All rows are formatted in one %-format call, which is far cheaper than a
    Python loop over rows and gives the same bytes.
    """
    n = len(columns[0])
    cells = [None] * (len(columns) * n)
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return (row_format * n) % tuple(cells)


def write_columns(path, header: str, row_format: str, *columns) -> None:
    """Write equal-length columns as CSV: header line, then the format_columns rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + format_columns(row_format, *columns))


def clip_nonnegative(values: np.ndarray) -> np.ndarray:
    """Physical companion field: negative reconstructed values clipped to zero."""
    return np.maximum(np.asarray(values, dtype=float), 0.0)


def save_field(path, values, clipped_path=None) -> None:
    """Write a nodal field as CSV with header ``node,value``.

    Values are written with ``%.17g``, which round-trips every float64. With
    clipped_path, the companion field clip_nonnegative(values) is written
    there from the same formatted rows: only rows whose clipped value differs
    bitwise from the raw one (negatives and -0.0) are formatted again, so its
    bytes are those of a separate save_field call on the clipped values.
    """
    values = np.asarray(values, dtype=float)
    rows = format_columns("%d,%.17g\n", range(len(values)), values.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node,value\n" + rows)
    if clipped_path is None:
        return
    clipped = clip_nonnegative(values)
    changed = np.flatnonzero(clipped.view(np.int64) != values.view(np.int64))
    if changed.size:
        lines = rows.split("\n")
        for i in changed.tolist():
            lines[i] = "%d,%.17g" % (i, clipped[i])
        rows = "\n".join(lines)
    with open(clipped_path, "w", encoding="ascii") as fh:
        fh.write("node,value\n" + rows)


def load_field(path, mesh: Mesh | None = None) -> np.ndarray:
    """Read a nodal field CSV; validates the header, node order and count."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != "node,value":
        raise MeshFormatError("expected header 'node,value'", line=1)
    values = []
    for lineno, ln in enumerate(raw[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise MeshFormatError(f"expected 'node,value', got {ln!r}", line=lineno)
        try:
            idx = int(parts[0])
            val = float(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad entry {ln!r}", line=lineno) from None
        if idx != len(values):
            raise MeshFormatError(
                f"expected node {len(values)}, got {idx}", line=lineno)
        values.append(val)
    arr = np.asarray(values, dtype=float)
    if mesh is not None and arr.shape != (mesh.node_count,):
        raise MeshFormatError(
            f"field has {arr.size} values, mesh has {mesh.node_count} nodes")
    return arr
