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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshFormatError, ValidationError


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with boundary tagging.

    Attributes
    ----------
    nodes : (N, 2) float array of node coordinates.
    triangles : (T, 3) int array of node indices, counterclockwise.
    boundary_edges : (B, 2) int array of node-index pairs on the boundary.
    boundary_nodes : frozenset of node indices on the boundary.
    boundary_list : read-only int array of the boundary nodes, increasing
        (the stable ordering for I/O and boundary data).
    interior_list : read-only int array of the other nodes, increasing.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_nodes: frozenset = field(init=False)
    boundary_list: np.ndarray = field(init=False, repr=False)
    interior_list: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "boundary_nodes", frozenset(boundary.tolist()))
        object.__setattr__(self, "boundary_list", boundary)
        object.__setattr__(self, "interior_list", np.nonzero(interior)[0])
        for arr in (self.nodes, self.triangles, self.boundary_edges,
                    self.boundary_list, self.interior_list):
            arr.setflags(write=False)

    def _validate(self):
        n = len(self.nodes)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= n):
            raise ValidationError("triangle node index out of range")
        if self.boundary_edges.size and (self.boundary_edges.min() < 0
                                         or self.boundary_edges.max() >= n):
            raise ValidationError("boundary edge node index out of range")
        areas = self.signed_areas()
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

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def triangle_count(self):
        return len(self.triangles)

    def signed_areas(self):
        p = self.nodes
        a, b, c = (p[self.triangles[:, k]] for k in range(3))
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def _edge_keys(pairs: np.ndarray, node_count: int) -> np.ndarray:
    """One integer per undirected edge: min * node_count + max."""
    return pairs.min(axis=1) * node_count + pairs.max(axis=1)


def build_square_mesh(n: int) -> Mesh:
    """Structured triangulation of (-1, 1)^2 with n subdivisions per side.

    Yields (n+1)^2 nodes and 2 n^2 triangles; each grid cell is split along
    its lower-left to upper-right diagonal. Node (i, j) has index
    j*(n+1) + i and coordinates (-1 + 2i/n, -1 + 2j/n).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"subdivision count must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"subdivision count must be >= 1, got {n}")
    n = int(n)
    coords = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)           # row-major: index = j*(n+1)+i
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) in row-major order, lower-left corner ll, split into
    # (ll, lr, ur) then (ll, ur, ul)
    ll = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    lr, ul = ll + 1, ll + (n + 1)
    ur = ul + 1
    tris = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)

    i = np.arange(n)
    top = n * (n + 1)
    left = i * (n + 1)
    bedges = np.concatenate([
        np.column_stack([i, i + 1, top + i, top + i + 1]),              # bottom, top
        np.column_stack([left, left + (n + 1), left + n, left + (n + 1) + n]),  # left, right
    ]).reshape(-1, 2)

    return Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges)


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


def load_mesh(path) -> Mesh:
    """Read a mesh file, validating counts and index ranges.

    Clockwise triangles are reoriented to counterclockwise (documented policy);
    degenerate triangles are rejected. Errors report the offending line number.
    """
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
        area2 = ((nodes[b, 0] - nodes[a, 0]) * (nodes[c, 1] - nodes[a, 1])
                 - (nodes[c, 0] - nodes[a, 0]) * (nodes[b, 1] - nodes[a, 1]))
        if area2 == 0.0:
            raise MeshFormatError(f"degenerate triangle {idx}", line=lineno)
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
