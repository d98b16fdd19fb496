"""Independent oracles the tests compare the library against.

The library imposes Dirichlet data by splitting the system into interior and
boundary blocks (forward.ForwardOperator). apply_dirichlet does it the other
way, by symmetric elimination on the full matrix, so tests can compare the
two.

The library writes CSV columns with one %-format call per file; the
per-row f-string writers below are the reference for their bytes.

The library forms the six distinct local stiffness entries from contiguous
gradient components and sums the lumped mass with np.bincount;
assemble_stiffness_einsum, from the (T, 3, 3) gradient products of
_p1_gradients, and lumped_mass_add_at are the np.einsum and np.add.at forms
they replaced, the reference for their bits.

The library measures relative L2 errors with the exact P1 triangle rule
(metrics.relative_l2_error); assemble_weighted_mass, the consistent mass
matrix it replaced, is the reference for those norms and for the lumped
mass.

The library reads mesh and field files one section at a time as arrays;
load_mesh_lines and load_field_lines are the per-line readers they replaced,
the reference for their arrays and their error lines.

The mu-only pointwise fit (direct.fit_pair_pointwise with sigma known) sums
its weighted normal equations over the data in one reduction;
mu_from_set_loop is the per-datum accumulation it replaced, the reference
for its bits.

fem.solve_linear tests its residual right after each update and so never
applies its preconditioner after the last iteration; solve_linear_top_test,
the loop it replaced, tests at the top of each iteration and applies it once
more. It is the reference for the bits of x and for the count of
applications.

The library holds its matrices as fem.BandedOperator, a diagonal and one
band per node-number offset. dense, csr and banded convert between that
form and dense or scipy.sparse matrices, so that the oracles here, which
keep scipy.sparse, can be compared with it; stiffness_coo is the COO to CSR
assembly of every local entry that the banded assembly replaced.
"""

import math

import numpy as np
import scipy.sparse as sp

from tppat import fem
from tppat.errors import MeshFormatError, SolverError, ValidationError
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
        boundary = set(mesh.boundary_list.tolist())
        for node in boundary_values:
            if int(node) not in boundary:
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


def dense(A: fem.BandedOperator) -> np.ndarray:
    """The dense matrix of a fem.BandedOperator."""
    D = np.diag(A.diagonal())
    for o, band in zip(A.offsets, A.bands):
        D += np.diag(band, o) + np.diag(band, -o)
    return D


def csr(A: fem.BandedOperator) -> sp.csr_matrix:
    """The scipy.sparse CSR matrix of a fem.BandedOperator, indices sorted."""
    n = len(A.diagonal())
    return sp.diags([A.diagonal(), *A.bands, *A.bands],
                    [0, *A.offsets, *(-o for o in A.offsets)], shape=(n, n), format="csr")


def banded(A) -> fem.BandedOperator:
    """The fem.BandedOperator of the diagonal and upper triangle of A (dense or sparse)."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    offsets = [o for o in range(1, len(A)) if np.any(np.diagonal(A, o))]
    return fem.BandedOperator(np.diagonal(A).copy(), offsets,
                              [np.diagonal(A, o).copy() for o in offsets])


def _coo_scatter(mesh, local) -> sp.csr_matrix:
    """CSR matrix of every entry of the (T, 3, 3) local matrices, summed by COO to CSR."""
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.node_count
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def stiffness_coo(mesh, gamma) -> sp.csr_matrix:
    """The stiffness matrix of fem.assemble_stiffness, both triangles assembled by COO."""
    return _coo_scatter(mesh, _stiffness_local_einsum(mesh, gamma))


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
        lines.append(f"{i},{cond:.6g},{flag}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_gradcheck_rows(path, result) -> None:
    """gradcheck.GradCheckResult.save, one f-string per row."""
    lines = ["direction,adjoint,fd,relative_error"]
    for i in range(len(result.relative_errors)):
        adjoint, fd = float(result.adjoint_values[i]), float(result.fd_values[i])
        lines.append(f"{i},{adjoint:.17g},{fd:.17g},{float(result.relative_errors[i]):.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_column_rows(path, header, row_format, *columns) -> None:
    """fem.write_columns, one %-format per row."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + "".join(row_format % row for row in zip(*columns)))


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


def _p1_gradients(mesh: Mesh) -> np.ndarray:
    """(T, 3, 2) gradients of each triangle's three P1 basis functions."""
    p = mesh.nodes
    t = mesh.triangles
    a, b, c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    # grad phi_i = perp(edge opposite i) / (2 area)
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
    return grads


def _stiffness_local_einsum(mesh, gamma) -> np.ndarray:
    """The (T, 3, 3) local stiffness matrices of fem.assemble_stiffness, by np.einsum."""
    gamma = fem.as_field(mesh, gamma)
    grads = _p1_gradients(mesh)
    gbar = gamma[mesh.triangles].mean(axis=1)
    return np.einsum("tid,tjd->tij", grads, grads) * (gbar * mesh.areas)[:, None, None]


def assemble_stiffness_einsum(mesh, gamma) -> fem.BandedOperator:
    """fem.assemble_stiffness with the local matrices from np.einsum."""
    local = _stiffness_local_einsum(mesh, gamma)
    return fem._scatter(mesh, np.diagonal(local, axis1=1, axis2=2),
                        local[:, [0, 0, 1], [1, 2, 2]])


def lumped_mass_add_at(mesh) -> np.ndarray:
    """fem.lumped_mass accumulated with np.add.at."""
    m = np.zeros(mesh.node_count)
    np.add.at(m, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return m


def assemble_weighted_mass(mesh, weight) -> sp.csr_matrix:
    """Consistent mass matrix M[i,j] = ∫ w phi_i phi_j with w piecewise linear.

    Exact closed form for products of three linears on a triangle:
    diagonal (6 w_i + 2 w_j + 2 w_k)|T|/60, off-diagonal (2 w_i + 2 w_j + w_k)|T|/60.
    """
    weight = fem.as_field(mesh, weight)
    if not np.all(np.isfinite(weight)):
        raise ValidationError("mass weight has non-finite values")
    area = mesh.areas
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
    return _coo_scatter(mesh, local)


def mu_from_set_loop(data, Gamma, u_stars, sigma_known) -> np.ndarray:
    """mu with sigma known, accumulated one datum at a time.

    Minimizes sum_j (mu |u_j*| - (r_j - sigma))^2 / r_j^2 per node, with
    r_j = H_j / (Gamma u_j*): the whitened rows p_j = |u_j*| q_j, q_j = 1 / r_j,
    with right-hand sides 1 - sigma q_j, so that
    mu = (sum_j p_j - sigma sum_j p_j q_j) / sum_j p_j^2.
    """
    p_sum = np.zeros(len(sigma_known))
    pq_sum = np.zeros(len(sigma_known))
    pp_sum = np.zeros(len(sigma_known))
    for H, u_star in zip(data, u_stars):
        q = 1.0 / (H / (Gamma * u_star))
        p = np.abs(u_star) * q
        p_sum += p
        pq_sum += p * q
        pp_sum += p * p
    return (p_sum - sigma_known * pq_sum) / pp_sum


def solve_linear_top_test(A, b, tol=fem.DEFAULT_TOL, preconditioner=None, shift=0.0):
    """fem.solve_linear with the stop test at the top of each iteration.

    A is a fem.BandedOperator, whose matvec takes diag(A) + shift as
    fem.solve_linear's does.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"CG tolerance must be finite and positive, got {tol!r}")
    b = np.asarray(b, dtype=float)
    n = len(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    max_iterations = max(1000, 20 * n)

    diag = A.diagonal() + shift
    if np.any(diag <= 0.0):
        raise SolverError("matrix diagonal must be positive for CG")

    def matvec(p):
        return A.matvec(p, diag)
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


def _expect_header(token_line, keyword, lineno):
    parts = token_line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise MeshFormatError(f"expected '{keyword} <count>', got {token_line!r}",
                              line=lineno)
    try:
        count = int(parts[1])
    except ValueError:
        raise MeshFormatError(f"bad count in {token_line!r}", line=lineno) from None
    if count < 0:
        raise MeshFormatError(f"negative count in {token_line!r}", line=lineno)
    return count


def load_mesh_lines(path) -> Mesh:
    """mesh.load_mesh, one line at a time."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"unexpected end of file, expected {what}",
                                  line=len(raw) + 1)
        item = lines[pos]
        pos += 1
        return item

    lineno, header = next_line("'nodes <N>'")
    n_nodes = _expect_header(header, "nodes", lineno)
    nodes = np.empty((n_nodes, 2))
    for k in range(n_nodes):
        lineno, ln = next_line("a node line")
        parts = ln.split()
        if len(parts) != 2:
            raise MeshFormatError(f"expected 'x y', got {ln!r}", line=lineno)
        try:
            nodes[k] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {ln!r}", line=lineno) from None
        if not np.isfinite(nodes[k]).all():
            raise MeshFormatError(f"node {k} has a non-finite coordinate", line=lineno)

    lineno, header = next_line("'triangles <T>'")
    n_tris = _expect_header(header, "triangles", lineno)
    tris = np.empty((n_tris, 3), dtype=np.int64)
    for k in range(n_tris):
        lineno, ln = next_line("a triangle line")
        parts = ln.split()
        if len(parts) != 3:
            raise MeshFormatError(f"expected 'i j k', got {ln!r}", line=lineno)
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"bad index in {ln!r}", line=lineno) from None
        for i in idx:
            if i < 0 or i >= n_nodes:
                raise MeshFormatError(
                    f"triangle index {i} out of range for {n_nodes} nodes",
                    line=lineno)
        a, b, c = idx
        with np.errstate(over="ignore", invalid="ignore"):
            area2 = ((nodes[b, 0] - nodes[a, 0]) * (nodes[c, 1] - nodes[a, 1])
                     - (nodes[c, 0] - nodes[a, 0]) * (nodes[b, 1] - nodes[a, 1]))
        if area2 == 0.0:
            raise MeshFormatError(f"degenerate triangle {idx}", line=lineno)
        if not np.isfinite(area2):
            raise MeshFormatError(f"triangle {idx} has a non-finite signed area",
                                  line=lineno)
        if area2 < 0.0:
            a, b, c = a, c, b      # reorient clockwise input
        tris[k] = (a, b, c)

    lineno, header = next_line("'boundary_edges <B>'")
    n_bed = _expect_header(header, "boundary_edges", lineno)
    bedges = np.empty((n_bed, 2), dtype=np.int64)
    for k in range(n_bed):
        lineno, ln = next_line("a boundary edge line")
        parts = ln.split()
        if len(parts) != 2:
            raise MeshFormatError(f"expected 'i j', got {ln!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad index in {ln!r}", line=lineno) from None
        for v in (i, j):
            if v < 0 or v >= n_nodes:
                raise MeshFormatError(
                    f"boundary edge index {v} out of range for {n_nodes} nodes",
                    line=lineno)
        bedges[k] = (i, j)

    if pos < len(lines):
        lineno, ln = lines[pos]
        raise MeshFormatError(f"trailing content {ln!r}", line=lineno)

    try:
        return Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges)
    except ValidationError as exc:
        raise MeshFormatError(str(exc)) from exc


def load_field_lines(path, mesh: Mesh | None = None) -> np.ndarray:
    """fem.load_field, one line at a time."""
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
