"""P1 finite-element assembly and banded linear solves.

Coefficients live as nodal fields (piecewise-linear interpolants). Stiffness
integrals and the lumped mass are evaluated exactly, from the triangle areas
the mesh keeps.

Matrices are BandedOperator: a symmetric matrix held as its diagonal and one
band per node-number offset o, A[i, i + o] = A[i + o, i] = band_o[i], with
only the bands that hold a nonzero entry. assemble_stiffness forms only the
six distinct entries of each symmetric triangle-local matrix, from the P1
gradient components held as six contiguous arrays over the triangles, and
sums the diagonal and upper ones into the bands with np.bincount, keyed by
(offset, row), so it sorts nothing. Storage and a matvec cost
bands x nodes, so the form suits a numbering with few distinct neighbour
offsets: on the row-major build_square_mesh grid, where every solve of the
command line runs, K and its interior block each have just the two bands of
the 5-point stencil, and the jittered meshes of the tests keep that
numbering. A randomly numbered mesh still gives the right operator, at up
to nodes x nodes cost. The form replaces scipy.sparse, which the solves
needed only for COO to CSR assembly, slicing and the CSR matvec, and whose
import adds about 22 MB of resident memory to a run; the package needs
numpy only.

The linear solver is preconditioned conjugate gradients
(ConjugateGradient), which is deterministic and keeps the
Dirichlet-eliminated SPD structure assumptions explicit; its default
preconditioner is Jacobi. It tests the residual right after each update, so
it applies the preconditioner once per iteration and never to a residual
that already meets the tolerance. A solve is resumable: run(tol) pauses
right after the test that meets tol, and a later run to a tighter
tolerance continues the same iteration, so a solve taken first loosely and
then tightly costs the iterations of the tight one and gives its x bitwise
(lsq.run_lsq decides its stop tests on such loose solves). solve_linear is
one run to one tolerance.
grid_sine_basis gives the sine transform that diagonalizes the
constant-coefficient operator on the build_square_mesh grid (Concus & Golub
1973). A mesh is that grid exactly when mesh.square_grid_size says so (the
builder's node bits and triangles), the one rule that the spectral floor and
the transfer's grid path follow too. forward.ForwardOperator, which holds
the Dirichlet operator of one diffusion field, preconditions its grid solves
with it, so they need about ten iterations at any mesh size; it applies the
transform in float32, while CG keeps its iterates, residuals and stop test
in float64.

Nodal fields serialize as CSV with header ``node,value``, one row per node in
mesh order; load_field reads them with the row parser of mesh.load_mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshFormatError, SolverError, ValidationError
from .mesh import Mesh, _first, _parse_rows, _read_lines, square_grid_size

DEFAULT_TOL = 1e-10


def as_field(mesh: Mesh, values) -> np.ndarray:
    """values as a float64 array with one value per mesh node, without a copy.

    A scalar is broadcast to every node, a float64 nodal array comes back as
    it is, and anything else is converted. The result may be values itself:
    a caller that keeps the field, or writes to it, copies it.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(mesh.node_count, float(arr))
    if arr.shape != (mesh.node_count,):
        raise ValidationError(
            f"field has {arr.shape} values, mesh has {mesh.node_count} nodes")
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The quadruple (Gamma, gamma, sigma, mu) of positive nodal fields.

    gruneisen: photoacoustic efficiency Gamma; diffusion: gamma;
    single_photon: sigma; two_photon: mu. All must be bounded away from zero.
    The set checks nothing itself: each solve checks the fields it takes
    (positive_field), and phantoms.PhantomField checks the values of the
    fields it samples when it is made. Frozen, so its fields stay the
    arrays it was made with; experiments.prepare_data also makes the arrays
    of the truth it shares read-only.
    """

    gruneisen: np.ndarray
    diffusion: np.ndarray
    single_photon: np.ndarray
    two_photon: np.ndarray


def positive_field(mesh: Mesh, values, name: str) -> np.ndarray:
    """as_field(mesh, values), checked finite and positive everywhere.

    Like as_field it does not copy a float64 nodal array. name is the
    coefficient the ValidationError names.
    """
    values = as_field(mesh, values)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"coefficient {name} has non-finite values")
    if values.min() <= 0.0:
        raise ValidationError(f"coefficient {name} must be positive everywhere "
                              f"(min is {values.min():g})")
    return values


class BandedOperator:
    """A symmetric matrix held as its diagonal and one band per node-number offset.

    A[i, i] = diag[i], and A[i, i + o] = A[i + o, i] = band[i] for each offset
    o in offsets (positive, increasing) with its band of n - o values. Every
    other entry is zero, and only offsets with a nonzero entry have a band,
    so storage and a matvec cost one pass over the nodes for the diagonal
    and for each band. The operator holds no per-call state: one instance
    can serve many solves and threads at once.
    """

    def __init__(self, diag: np.ndarray, offsets, bands):
        self.diag = diag
        self.offsets = tuple(int(o) for o in offsets)
        self.bands = tuple(bands)

    def diagonal(self) -> np.ndarray:
        """The diagonal of A (the stored array itself)."""
        return self.diag

    def matvec(self, x: np.ndarray, diagonal=None) -> np.ndarray:
        """A x, or (A - diag(A) + diag(diagonal)) x when diagonal is given.

        Each row is summed in ascending column order, as a CSR row with
        sorted indices is: a row whose entries cancel exactly gives exactly 0
        on a constant x. The farthest lower band writes the rows it reaches
        instead of adding to zeros, which saves a pass over the nodes.
        """
        diagonal = self.diag if diagonal is None else diagonal
        if not self.offsets:
            return diagonal * x
        far = self.offsets[-1]
        y = np.empty(len(x))
        y[:far] = 0.0
        np.multiply(self.bands[-1], x[:-far], out=y[far:])
        for o, band in zip(self.offsets[-2::-1], self.bands[-2::-1]):
            rows = y[o:]
            rows += band * x[:-o]
        y += diagonal * x
        for o, band in zip(self.offsets, self.bands):
            rows = y[:-o]
            rows += band * x[o:]
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def restrict(self, nodes) -> "BandedOperator":
        """The block A[nodes][:, nodes] of increasing nodes, numbered by position in nodes."""
        nodes = np.asarray(nodes)
        n = len(self.diag)
        position = np.full(n, -1)
        position[nodes] = np.arange(len(nodes))
        rows, cols, values = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
        for o, band in zip(self.offsets, self.bands):
            r, c = position[:n - o], position[o:]
            kept = (r >= 0) & (c >= 0) & (band != 0.0)
            rows.append(r[kept])
            cols.append(c[kept])
            values.append(band[kept])
        r = np.concatenate(rows)
        return _from_upper(self.diag[nodes], r, np.concatenate(cols) - r,
                           np.concatenate(values))


def _from_upper(diag: np.ndarray, rows, offs, values) -> BandedOperator:
    """BandedOperator with diagonal diag and A[r, r + o] the sum of its values.

    rows, offs (each offset positive) and values list the entries above the
    diagonal, summed by position in their order; bands whose entries are all
    zero are dropped.
    """
    n = len(diag)
    present = np.zeros(n, dtype=bool)
    present[offs] = True
    offsets = np.flatnonzero(present)
    slot = np.cumsum(present) - 1
    table = np.bincount(slot[offs] * n + rows, weights=values,
                        minlength=len(offsets) * n).reshape(len(offsets), n)
    kept = table.any(axis=1)
    return BandedOperator(diag, offsets[kept],
                          [band[:n - o] for band, o in zip(table[kept], offsets[kept])])


def assemble_stiffness(mesh: Mesh, gamma) -> BandedOperator:
    """Stiffness matrix K[i,j] = ∫ gamma ∇phi_i·∇phi_j, gamma piecewise linear.

    Since P1 gradients are constant per triangle the integral is exact with
    the mean of the vertex values of gamma (equivalently the mid-edge rule).
    K is symmetric positive semidefinite with constants in its kernel.

    Each gradient component is one contiguous array over the triangles: the
    gradient of phi_i is the edge opposite vertex i turned a quarter, over
    2|T|. Only the six distinct entries of each symmetric local matrix are
    formed, (gx_i gx_j + gy_i gy_j) gbar |T| with gbar the mean of the three
    vertex values of gamma: the diagonal and (0, 1), (0, 2), (1, 2).
    """
    gamma = as_field(mesh, gamma)
    t = mesh.triangles
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    xa, xb, xc = x[t[:, 0]], x[t[:, 1]], x[t[:, 2]]
    ya, yb, yc = y[t[:, 0]], y[t[:, 1]], y[t[:, 2]]
    det = 2.0 * mesh.areas
    gx = ((yb - yc) / det, (yc - ya) / det, (ya - yb) / det)
    gy = ((xc - xb) / det, (xa - xc) / det, (xb - xa) / det)
    w = gamma[t].mean(axis=1) * mesh.areas
    diag = np.empty((len(t), 3))
    upper = np.empty((len(t), 3))
    for k in range(3):
        diag[:, k] = (gx[k] * gx[k] + gy[k] * gy[k]) * w
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        upper[:, k] = (gx[i] * gx[j] + gy[i] * gy[j]) * w
    return _scatter(mesh, diag, upper)


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Row-sum lumped unweighted mass: m_i = ∫ phi_i = sum of |T|/3 over incident T."""
    return np.bincount(mesh.triangles.ravel(), weights=np.repeat(mesh.areas / 3.0, 3),
                       minlength=mesh.node_count)


def _scatter(mesh: Mesh, diag: np.ndarray, upper: np.ndarray) -> BandedOperator:
    """The assembled operator of symmetric triangle-local matrices.

    diag holds the (T, 3) diagonals of the local matrices, and upper their
    (T, 3) entries (0, 1), (0, 2) and (1, 2).
    """
    t = mesh.triangles
    diag = np.bincount(t.ravel(), weights=diag.ravel(), minlength=mesh.node_count)
    first, second = t[:, [0, 0, 1]], t[:, [1, 2, 2]]
    return _from_upper(diag, np.minimum(first, second).ravel(),
                       np.abs(second - first).ravel(), upper.ravel())


class ConjugateGradient:
    """Preconditioned conjugate gradients for the SPD system (A + diag(shift)) x = b,
    resumable: run(tol) iterates until the relative residual is at most tol,
    and a later run(tol2) continues the same iteration from there.

    shift (an array of one value per row, or a scalar) is added to the
    diagonal once, and each matvec takes the sum in place of diag(A)
    (BandedOperator.matvec), so no matrix is formed. preconditioner maps a
    residual r to z = P^-1 r for a symmetric positive definite P; the default
    is Jacobi, z = r / (diag(A) + shift). CG starts from x0 (one value per
    row) when given, with the residual b - (A + diag(shift)) x0, and from 0
    otherwise; the stop test is against the full right-hand side either way.

    Each iteration updates x and the residual r and tests ||r|| right away; a
    run pauses there, before the next preconditioner application, so the
    preconditioner is applied once per iteration and never to a residual
    that meets the tolerance. A pause therefore changes nothing in the
    sequence: run(t1) then run(t2) with t2 < t1 gives bitwise the x and the
    iteration count of run(t2) alone, and a run whose tolerance the residual
    already meets does no iteration. residual_norm is ||r|| where the last
    run stopped (||b|| before any iteration), bnorm is ||b||, and iterations
    counts every iteration so far. r is the recursively updated residual,
    which agrees with b - (A + diag(shift)) x to round-off.

    Raises ValidationError, before any iteration, unless b and x0 are
    finite, and SolverError unless diag(A) + shift is positive (not checked
    when b = 0).
    """

    def __init__(self, A: BandedOperator, b: np.ndarray, preconditioner=None,
                 shift=0.0, x0=None):
        b = np.asarray(b, dtype=float)
        n = len(b)
        self.bnorm = float(np.linalg.norm(b))
        if not math.isfinite(self.bnorm):        # a NaN or an infinity in b
            raise ValidationError("CG right-hand side has non-finite values")
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            if x0.shape != b.shape:
                raise ValidationError(f"CG start has {x0.shape} values, right-hand side "
                                      f"has {b.shape}")
            if not np.isfinite(x0).all():
                raise ValidationError("CG start has non-finite values")
        self.A, self.b, self.shift = A, b, shift
        self.iterations = 0
        self.max_iterations = max(1000, 20 * n)
        self.start = None
        self.p = self.rz = None
        if self.bnorm == 0.0:
            self.x = np.zeros(n)
            self.r = b
            self.residual_norm = 0.0
            return
        self.diag = A.diagonal() + shift
        if np.any(self.diag <= 0.0):
            raise SolverError("matrix diagonal must be positive for CG")
        if preconditioner is None:
            inv_diag = 1.0 / self.diag

            def preconditioner(r):
                return inv_diag * r
        self.preconditioner = preconditioner
        if x0 is None:
            self.x = np.zeros(n)
            self.r = b.copy()
        else:
            self.start = x0
            self.x = x0.copy()
            self.r = b - A.matvec(x0, self.diag)
        self.residual_norm = float(np.linalg.norm(self.r))

    def run(self, tol: float) -> np.ndarray:
        """x with relative residual ||(A + diag(shift)) x - b|| / ||b|| <= tol.

        Continues the iteration from where the last run paused. The result is
        the solver's own iterate, which a later run updates in place: x = 0
        when b = 0, x0 itself while x0 meets every tolerance asked so far, and
        x = 0 when tol >= 1 without x0. Raises ValidationError, before any
        iteration, unless tol is finite and positive, and SolverError with
        the final residual when max(1000, 20 n) iterations in all do not
        reach tol.
        """
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValidationError(f"CG tolerance must be finite and positive, got {tol!r}")
        target = tol * self.bnorm
        if self.residual_norm <= target:
            return self.x if self.start is None or self.iterations else self.start
        A, diag, preconditioner = self.A, self.diag, self.preconditioner
        x, r, p, rz = self.x, self.r, self.p, self.rz
        rnorm = self.residual_norm
        while rnorm > target:
            if self.iterations == self.max_iterations:
                res = float(np.linalg.norm(self.b - A.matvec(x, diag))) / self.bnorm
                if res <= tol:
                    rnorm = res * self.bnorm
                    break
                raise SolverError(
                    f"CG failed to reach tol {tol:g} in {self.max_iterations} "
                    f"iterations (relative residual {res:.3e})", residual=res)
            z = preconditioner(r)
            rz_new = float(r @ z)
            if p is None:
                p = z.copy()
            else:
                p *= rz_new / rz
                p += z
            rz = rz_new
            Ap = A.matvec(p, diag)
            pAp = float(p @ Ap)
            if pAp <= 0.0:
                raise SolverError("matrix is not positive definite (p^T A p <= 0)",
                                  residual=float(np.linalg.norm(r)) / self.bnorm)
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rnorm = float(np.linalg.norm(r))
            self.iterations += 1
        self.p, self.rz, self.residual_norm = p, rz, rnorm
        return x


def solve_linear(A: BandedOperator, b: np.ndarray, tol: float = DEFAULT_TOL,
                 preconditioner=None, shift=0.0, x0=None):
    """One ConjugateGradient run to tol: x with relative residual at most tol.

    The arguments are those of ConjugateGradient and of its run; x = 0 when
    b = 0, x0 itself when x0 already meets the test, and x = 0 when tol >= 1
    without x0. Raises ValidationError, before any iteration, unless tol is
    finite and positive and b and x0 are finite, SolverError unless diag(A)
    + shift is positive, and SolverError with the final residual when
    max(1000, 20 n) iterations do not reach tol.
    """
    return ConjugateGradient(A, b, preconditioner, shift, x0).run(tol)


def grid_sine_basis(mesh: Mesh):
    """(S, lambda_k + lambda_l) for the interior of a build_square_mesh grid.

    None unless mesh.square_grid_size finds mesh to be build_square_mesh(n)'s
    grid with n >= 2 (n = 1 has no interior node): the one test of the grid,
    which the transfer's grid path uses too.
    S[k, l] = sqrt(2/n) sin(pi k l / n) is symmetric and orthogonal, and
    diagonalizes T = tridiag(-1, 2, -1) with eigenvalues 2 - 2 cos(pi k / n).
    """
    n = square_grid_size(mesh)
    if n is None or n < 2:
        return None
    k = np.arange(1, n)
    S = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    return S, lam[:, None] + lam[None, :]


def format_columns(row_format: str, *columns) -> str:
    """Equal-length columns formatted as rows, one row_format per row.

    All rows are formatted in one %-format call, which is far cheaper than a
    Python loop over rows and gives the same bytes. A leading node-number
    column, range(n) under a leading %d (field, condition and gradient-check
    files), is formatted once per row format and n by _numbered_rows, so a
    file formats only its other columns: the float conversion, the floor.
    """
    n = len(columns[0])
    if isinstance(columns[0], range) and columns[0] == range(n) \
            and row_format.startswith("%d"):
        template, columns = _numbered_rows(row_format, n), columns[1:]
    else:
        template = row_format * n
    cells = [None] * (len(columns) * n)
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return template % tuple(cells)


@functools.lru_cache(maxsize=4)
def _numbered_rows(row_format: str, n: int) -> str:
    """n rows of row_format with the leading %d filled in by 0, 1, ..., n - 1
    and the rest left as a format: "0,%.17g\n1,%.17g\n..." for "%d,%.17g\n"."""
    return ("%d" + row_format[2:].replace("%", "%%")) * n % tuple(range(n))


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
    """Read a nodal field CSV: the header, then rows 'node,value' numbering
    the nodes 0, 1, 2, ... (and, given a mesh, exactly its nodes). Blank lines
    are skipped. Every error is a MeshFormatError naming its 1-based line; a
    count off the mesh's names the first extra row or the end of the file,
    and a file that cannot be read names its path."""
    numbers, texts = _read_lines(path)
    if numbers[0] != 1 or texts[:1] != ["node,value"]:
        raise MeshFormatError("expected header 'node,value'", line=1)
    node, values = _parse_rows(
        numbers, texts, 1, len(texts) - 1, "node,value", (np.int64, float), sep=",",
        check=lambda c: _first(c[0] != np.arange(len(c[0])),
                               lambda k: f"expected node {k}, got {c[0][k]}"))
    if mesh is not None and len(values) != mesh.node_count:
        raise MeshFormatError(
            f"field has {len(values)} values, mesh has {mesh.node_count} nodes",
            line=numbers[min(1 + mesh.node_count, len(texts))])
    return values
