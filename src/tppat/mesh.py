"""Conforming triangular meshes of planar polygonal domains.

Meshes are immutable after construction. The workhorse constructor is
:func:`build_square_mesh`, which triangulates the square (-1, 1)^2 with a
structured grid: every cell is split along the lower-left to upper-right
diagonal so that runs are reproducible. Triangles are stored with
counterclockwise orientation; clockwise triangles in input files are
reoriented on load (orientation carries no physical content here).

Text file format (0-based indices)::

    nodes <N>
    x y            (N lines)
    triangles <T>
    i j k          (T lines)
    boundary_edges <B>
    i j            (B lines)

load_mesh parses each section as one array with _parse_rows, the row parser
fem.load_field shares; blank lines are skipped and every error names its
1-based line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import MeshFormatError, ValidationError


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation with boundary tagging.

    Attributes
    ----------
    nodes : (N, 2) float array of node coordinates.
    triangles : (T, 3) int array of node indices, counterclockwise.
    boundary_edges : (B, 2) int array of node-index pairs on the boundary.
    boundary_list : read-only int array of the boundary nodes, increasing
        (the stable ordering for I/O and boundary data).
    interior_list : read-only int array of the other nodes, increasing.
    areas : read-only (T,) float array of the triangle areas, each positive
        (the signed areas of the counterclockwise triangles).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_list: np.ndarray = field(init=False, repr=False)
    interior_list: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        bedges = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValidationError("nodes must be an (N, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValidationError("triangles must be a (T, 3) array")
        if bedges.ndim != 2 or bedges.shape[1] != 2:
            raise ValidationError("boundary_edges must be a (B, 2) array")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_edges", bedges)
        self._validate()
        boundary = np.unique(bedges)
        interior = np.ones(len(nodes), dtype=bool)
        interior[boundary] = False
        object.__setattr__(self, "boundary_list", boundary)
        object.__setattr__(self, "interior_list", np.nonzero(interior)[0])
        for arr in (self.nodes, self.triangles, self.boundary_edges,
                    self.boundary_list, self.interior_list, self.areas):
            arr.setflags(write=False)

    def _validate(self):
        n = len(self.nodes)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= n):
            raise ValidationError("triangle node index out of range")
        if self.boundary_edges.size and (self.boundary_edges.min() < 0
                                         or self.boundary_edges.max() >= n):
            raise ValidationError("boundary edge node index out of range")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"node {int(np.argmin(finite))} has a non-finite coordinate")
        areas = 0.5 * _doubled_areas(*self.nodes.T, *self.triangles.T)
        object.__setattr__(self, "areas", areas)
        finite = np.isfinite(areas)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValidationError(
                f"triangle {bad} has a non-finite signed area {areas[bad]:g}")
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise ValidationError(
                f"triangle {bad} has non-positive signed area {areas[bad]:g}")
        # Conformity: each edge in at most two triangles; edges seen once are
        # exactly the declared boundary edges.
        t = self.triangles
        edges, counts = np.unique(
            _edge_keys(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), n),
            return_counts=True)
        if np.any(counts > 2):
            raise ValidationError("an edge is shared by more than two triangles")
        declared = np.unique(_edge_keys(self.boundary_edges, n))
        if not np.array_equal(edges[counts == 1], declared):
            raise ValidationError(
                "boundary_edges do not match the edges incident to exactly one triangle")

    @cached_property
    def _square_grid_size(self):
        """square_grid_size's answer; a Mesh is frozen, so it is decided once."""
        n = int(np.sqrt(self.node_count)) - 1
        if n < 1 or (n + 1) ** 2 != self.node_count or self.triangle_count != 2 * n * n:
            return None
        nodes, tris = _square_grid(n)
        if np.array_equal(self.nodes.view(np.int64), nodes.view(np.int64)) \
                and np.array_equal(self.triangles, tris):
            return n
        return None

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def triangle_count(self):
        return len(self.triangles)


def _edge_keys(pairs: np.ndarray, node_count: int) -> np.ndarray:
    """One integer per undirected edge: min * node_count + max."""
    return pairs.min(axis=1) * node_count + pairs.max(axis=1)


def build_square_mesh(n: int) -> Mesh:
    """Structured triangulation of (-1, 1)^2 with n subdivisions per side.

    Yields (n+1)^2 nodes and 2 n^2 triangles; each grid cell is split along
    its lower-left to upper-right diagonal. Node (i, j) has index
    j*(n+1) + i and coordinates (-1 + 2i/n, -1 + 2j/n). Cell (i, j), with
    lower-left node (i, j), has index c = j*n + i and holds triangles 2c
    (lower: below the diagonal) and 2c + 1 (upper).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"subdivision count must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"subdivision count must be >= 1, got {n}")
    n = int(n)
    nodes, tris = _square_grid(n)
    i = np.arange(n)
    top = n * (n + 1)
    left = i * (n + 1)
    bedges = np.concatenate([
        np.column_stack([i, i + 1, top + i, top + i + 1]),              # bottom, top
        np.column_stack([left, left + (n + 1), left + n, left + (n + 1) + n]),  # left, right
    ]).reshape(-1, 2)

    return Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges)


def _square_grid(n: int):
    """build_square_mesh(n)'s nodes and triangles."""
    coords = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)           # row-major: index = j*(n+1)+i
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) in row-major order, lower-left corner ll, split into
    # (ll, lr, ur) then (ll, ur, ul)
    ll = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    lr, ul = ll + 1, ll + (n + 1)
    ur = ul + 1
    return nodes, np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)


def square_grid_size(mesh: Mesh) -> int | None:
    """n when mesh is build_square_mesh(n)'s grid exactly, else None.

    Exactly means the same node coordinates bit for bit, in the same order,
    and the same triangles in the same order; a grid read back from
    save_mesh's file is one. This is the one test of the grid, and its
    users take their grid path only where it gives n: the sine-transform
    preconditioner (fem.grid_sine_basis, n >= 2), the spectral floor of
    forward.ForwardOperator, whose bound rests on the builder's triangles,
    and the grid locator of transfer.PairLocator. The answer is kept on the
    mesh, so a mesh that several of them ask about is checked once.
    """
    return mesh._square_grid_size


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text format documented in the module docstring.

    Each section's rows are formatted in one %-format call.
    """
    sections = (("nodes", "%.17g %.17g\n", mesh.nodes),
                ("triangles", "%d %d %d\n", mesh.triangles),
                ("boundary_edges", "%d %d\n", mesh.boundary_edges))
    with open(path, "w", encoding="ascii") as fh:
        for keyword, row_format, rows in sections:
            fh.write(f"{keyword} {len(rows)}\n"
                     + (row_format * len(rows)) % tuple(rows.ravel().tolist()))


def _read_lines(path):
    """The 1-based numbers of a file's non-blank lines, then the number one
    past its last line, and the stripped texts of those lines. A file that
    cannot be read raises a MeshFormatError naming its path, and a byte that
    is not ASCII one naming its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MeshFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        raw = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("ascii") + "x").splitlines())
        raise MeshFormatError(f"non-ASCII byte {data[exc.start]:#04x}", line=line) from None
    stripped = list(map(str.strip, raw))
    numbers = list(compress(range(1, len(raw) + 1), stripped))
    return numbers + [len(raw) + 1], list(compress(stripped, stripped))


def _columns(texts, dtypes, sep):
    """One array per column of rows of len(dtypes) tokens split at sep, or
    None when a row has another width or a token does not convert as int()
    or float() would. The rows are split as one string joined by '|' tokens;
    dropping every (len(dtypes) + 1)-th token removes all the '|'s only when
    every row has len(dtypes) tokens, and a '|' left over is no number."""
    if not texts:
        return [np.empty(0, dtype) for dtype in dtypes]
    width = len(dtypes)
    tokens = f"{sep or ' '}|{sep or ' '}".join(texts).split(sep)
    if len(tokens) != len(texts) * (width + 1) - 1:
        return None
    del tokens[width::width + 1]
    try:
        return [np.array(tokens[j::width], dtype) for j, dtype in enumerate(dtypes)]
    except (ValueError, OverflowError):
        return None


def _parse_rows(numbers, texts, start, count, form, dtypes, sep=None, check=None):
    """Parse count rows of the given form, from non-blank line start on, into
    one array per column. check(columns) may return (row, message) for the
    first row that parses but is invalid. Only when the block does not
    convert at once are its rows tried one by one. The first problem in file
    order raises a MeshFormatError naming its line."""
    texts = texts[start:start + count]
    problem = None
    if len(texts) < count:
        problem = (len(texts), f"unexpected end of file, expected '{form}'")
    columns = _columns(texts, dtypes, sep)
    if columns is None:
        k = next(k for k in range(len(texts)) if _columns(texts[k:k + 1], dtypes, sep) is None)
        columns = _columns(texts[:k], dtypes, sep)
        problem = (k, f"expected '{form}', got {texts[k]!r}")
    problem = (check(columns) if check else None) or problem
    if problem:
        raise MeshFormatError(problem[1], line=numbers[start + problem[0]])
    return columns


def _first(bad, message):
    """(row, message(row)) for the first row where bad is set, or None."""
    rows = np.flatnonzero(bad)
    return (int(rows[0]), message(int(rows[0]))) if rows.size else None


def _non_finite_node(columns):
    """The first node with a nan or infinite coordinate, as for _first."""
    finite = np.isfinite(columns[0]) & np.isfinite(columns[1])
    return _first(~finite, lambda k: f"node {k} has a non-finite coordinate")


def _index_problem(columns, node_count, what):
    """The first row with a node index out of range, as for _first."""
    idx = np.column_stack(columns)
    out = (idx < 0) | (idx >= node_count)
    return _first(out.any(axis=1), lambda k: f"{what} index {idx[k][out[k]][0]} "
                                             f"out of range for {node_count} nodes")


def _doubled_areas(x, y, a, b, c):
    """Twice the signed areas of the triangles (a, b, c) of nodes (x, y).

    Huge coordinates overflow to an infinite or NaN area without a warning;
    the callers reject those."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a])


def load_mesh(path) -> Mesh:
    """Read a mesh file, validating counts and index ranges.

    Blank lines are skipped. Clockwise triangles are reoriented to
    counterclockwise; non-finite coordinates, degenerate triangles, triangles
    whose signed area overflows and bytes that are not ASCII are rejected.
    Every error is a MeshFormatError naming its 1-based line: the first
    offending line, the line past the end of a truncated file, or the
    boundary_edges header when the mesh as a whole does not conform. A file
    that cannot be read (missing, a directory) is a MeshFormatError naming
    its path.
    """
    numbers, texts = _read_lines(path)
    pos = 0

    def section(keyword, form, dtype, check=None):
        nonlocal pos
        header = f"{keyword} <count>"
        _, (count,) = _parse_rows(
            numbers, texts, pos, 1, header, (str, np.int64),
            check=lambda c: _first((c[0] != keyword) | (c[1] < 0),
                                   lambda k: f"expected '{header}', got {texts[pos]!r}"))
        start, pos = pos + 1, pos + 1 + int(count)
        return _parse_rows(numbers, texts, start, pos - start, form,
                           (dtype,) * len(form.split()), check=check)

    x, y = section("nodes", "x y", float, _non_finite_node)

    def triangle_problem(columns):
        problem = _index_problem(columns, len(x), "triangle")
        head = [c[:problem[0]] for c in columns] if problem else columns
        areas = _doubled_areas(x, y, *head)

        def message(k):
            corners = [int(c[k]) for c in head]
            if areas[k] == 0.0:
                return f"degenerate triangle {corners}"
            return f"triangle {corners} has a non-finite signed area"
        return _first((areas == 0.0) | ~np.isfinite(areas), message) or problem

    a, b, c = section("triangles", "i j k", np.int64, triangle_problem)
    boundary_header = pos
    bedges = section("boundary_edges", "i j", np.int64,
                     lambda columns: _index_problem(columns, len(x), "boundary edge"))
    if pos < len(texts):
        raise MeshFormatError(f"trailing content {texts[pos]!r}", line=numbers[pos])
    clockwise = _doubled_areas(x, y, a, b, c) < 0.0
    b, c = np.where(clockwise, c, b), np.where(clockwise, b, c)
    try:
        return Mesh(nodes=np.column_stack([x, y]), triangles=np.column_stack([a, b, c]),
                    boundary_edges=np.column_stack(bedges))
    except ValidationError as exc:
        raise MeshFormatError(str(exc), line=numbers[boundary_header]) from exc
