"""Piecewise-linear transfer of nodal fields between meshes.

Used to break the inversion crime: data generated on one mesh can be
interpolated onto a different reconstruction mesh. The transfer is a fixed
linear map for a given (source, target) mesh pair, so a locator finds the
target nodes in the source mesh once per pair and every field moved between
the two meshes only gathers with the weights it keeps.

All target nodes are located at once with array code. A uniform bucket grid
over the source mesh lists, for each bucket, the triangles whose bounding box
meets it (CSR arrays, ascending triangle index). Each target node takes the
first of its bucket's triangles that contains it, and its field value is the
barycentric combination of the triangle's vertex values, or the vertex value
itself when the node is one. Target points that fall marginally outside the
source mesh, from floating-point boundary jitter, are assigned to the
triangle with the least barycentric violation (the first one on ties); a
point in an empty bucket is tested against every triangle.

When the source mesh is exactly build_square_mesh(n)'s grid (the same node
bits and the same triangles in the same order, as every crime-guard data
mesh is), the same rule is worked out by arithmetic instead: the buckets'
triangle lists follow from the grid lines, and a point weighs only the
first of its bucket's triangles that lies near it, so the bucket table is
never built. The triangles and weights are those of the bucket path, bit
for bit. The target nodes may be any points.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fem import as_field
from .mesh import Mesh, square_grid_size

_EDGE_TOL = 1e-12
_OUTSIDE_TOL = 1e-6
_NEAR = 1e-9        # in grid cell widths: far above _EDGE_TOL and the rounding


class _TriangleLocator:
    """Bucket table of a mesh's triangles, for locating points in the mesh.

    The vertex coordinates are kept as six contiguous arrays over the
    triangles (ax, ay, bx, by, cx, cy), so every read is a 1-D gather.
    """

    def __init__(self, mesh: Mesh):
        self._read_triangles(mesh)
        t = mesh.triangles
        self.lo = mesh.nodes.min(axis=0)
        self.span = np.maximum(mesh.nodes.max(axis=0) - self.lo, 1e-300)
        self.nb = max(1, int(np.sqrt(len(t) / 2.0)))
        col0, row0 = self._cells(np.minimum(np.minimum(self.ax, self.bx), self.cx),
                                 np.minimum(np.minimum(self.ay, self.by), self.cy))
        col1, row1 = self._cells(np.maximum(np.maximum(self.ax, self.bx), self.cx),
                                 np.maximum(np.maximum(self.ay, self.by), self.cy))
        # every (bucket, triangle) pair of each triangle's bounding-box range;
        # a stable sort keeps ascending triangle order inside each bucket, and
        # on keys that fit 16 bits numpy's stable sort is a radix sort
        height = row1 - row0 + 1
        tri, offset = _expand((col1 - col0 + 1) * height)
        across, up = np.divmod(offset, height[tri])
        bucket = (col0 * self.nb + row0)[tri] + across * self.nb + up
        if self.nb * self.nb <= 1 << 16:
            bucket = bucket.astype(np.uint16)
        self.bucket_tris = tri[np.argsort(bucket, kind="stable")]
        self.bucket_ptr = np.zeros(self.nb * self.nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(bucket, minlength=self.nb * self.nb),
                  out=self.bucket_ptr[1:])

    def _read_triangles(self, mesh: Mesh):
        """The vertex coordinate arrays and doubled areas of the triangles."""
        t = mesh.triangles
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        self.ax, self.bx, self.cx = x[t[:, 0]], x[t[:, 1]], x[t[:, 2]]
        self.ay, self.by, self.cy = y[t[:, 0]], y[t[:, 1]], y[t[:, 2]]
        self.det = 2.0 * mesh.areas

    def _cells(self, x: np.ndarray, y: np.ndarray):
        """Bucket column and row of each point (x, y), clipped to the grid."""
        col = np.clip((x - self.lo[0]) / self.span[0] * self.nb, 0, self.nb - 1)
        row = np.clip((y - self.lo[1]) / self.span[1] * self.nb, 0, self.nb - 1)
        return col.astype(np.int64), row.astype(np.int64)

    def _bary(self, k: np.ndarray, x: np.ndarray, y: np.ndarray):
        ax, ay = self.ax[k], self.ay[k]
        bx, by = self.bx[k], self.by[k]
        cx, cy = self.cx[k], self.cy[k]
        det = self.det[k]
        l1 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
        l2 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
        return l1, l2, 1.0 - l1 - l2

    def _pick(self, x: np.ndarray, y: np.ndarray, counts: np.ndarray, owner: np.ndarray,
              cand: np.ndarray):
        """Best candidate per point (x, y); ``cand`` lists each point's ``counts``
        triangles, and ``owner`` the point of each candidate.

        The first candidate within ``_EDGE_TOL`` wins; failing that, the one
        with the least violation, the first one on ties.
        """
        lams = self._bary(cand, x[owner], y[owner])
        violation = -np.minimum(np.minimum(lams[0], lams[1]), lams[2])
        key = np.where(violation <= _EDGE_TOL, -np.inf, violation)
        starts = np.cumsum(counts) - counts
        least = np.minimum.reduceat(key, starts)
        position = np.arange(len(cand))
        first = np.minimum.reduceat(
            np.where(key == least[owner], position, len(cand)), starts)
        return cand[first], np.column_stack([lam[first] for lam in lams]), \
            violation[first]

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Source triangle and barycentric weights (M, 3) of each of M points.

        Raises ``ValidationError`` naming the first point that lies outside the
        source mesh by more than the boundary-jitter tolerance.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.isfinite(points).all():
            raise ValidationError("target points must have finite coordinates")
        tri, lams, violation = self._search(points[:, 0], points[:, 1])
        outside = np.flatnonzero(violation > _OUTSIDE_TOL)
        if outside.size:
            x, y = points[outside[0]]
            raise ValidationError(f"point ({x:g}, {y:g}) lies outside the source mesh")
        return tri, lams

    def _search(self, x: np.ndarray, y: np.ndarray):
        """Triangle, weights and violation of each point, by the bucket rule."""
        col, row = self._cells(x, y)
        bucket = col * self.nb + row
        begin = self.bucket_ptr[bucket]
        counts = self.bucket_ptr[bucket + 1] - begin
        tri = np.empty(len(x), dtype=np.int64)
        lams = np.empty((len(x), 3))
        violation = np.empty(len(x))

        hit = np.flatnonzero(counts)
        if hit.size:
            owner, offset = _expand(counts[hit])
            cand = self.bucket_tris[begin[hit][owner] + offset]
            tri[hit], lams[hit], violation[hit] = self._pick(
                x[hit], y[hit], counts[hit], owner, cand)

        every = np.arange(len(self.det))
        for i in np.flatnonzero(counts == 0):       # empty bucket: scan everything
            k, lam, v = self._pick(x[i:i + 1], y[i:i + 1], np.array([len(every)]),
                                   np.zeros_like(every), every)
            tri[i], lams[i], violation[i] = k[0], lam[0], v[0]

        return tri, lams, violation


class _GridLocator(_TriangleLocator):
    """The bucket rule on build_square_mesh(n)'s grid, without the bucket table.

    On this grid the bucket table has n buckets a side over the grid's
    square, and a bucket holds the triangles of a block of cells: the cell
    columns whose two grid lines fall, by _cells, on either side of the
    bucket's column or in it, by the rows that do so for its row, in
    ascending triangle order. A triangle can be within _EDGE_TOL of a point
    only if it lies within _NEAR cell widths of it, so when the
    lowest-numbered triangle of the point's bucket that lies that near is
    within _EDGE_TOL, it is the first there, the one the bucket path takes.
    Each point computes the weights of that one triangle, so a point strictly
    inside a triangle gets it at once. A point whose triangle is not within
    _EDGE_TOL (it lies just beyond it, or outside the grid) weighs every
    triangle of its bucket, as the bucket path does.
    """

    def __init__(self, mesh: Mesh, n: int):
        self._read_triangles(mesh)
        # the corner, extent and bucket count _TriangleLocator finds on this grid
        self.lo, self.span, self.nb = np.full(2, -1.0), np.full(2, 2.0), n
        line, _ = self._cells(mesh.nodes[:n + 1, 0], mesh.nodes[:n + 1, 0])
        # cell column i spans buckets line[i]..line[i + 1], so bucket b holds
        # columns first[b]..last[b]; the same holds for rows
        bucket = np.arange(n)
        self.first = np.searchsorted(line[1:], bucket)
        self.last = np.searchsorted(line[:-1], bucket, side="right") - 1

    def _search(self, x: np.ndarray, y: np.ndarray):
        n = self.nb
        col, row = self._cells(x, y)
        # each point's place in cell widths (clipped: a far point is near no cell)
        sx, sy = (np.clip((v - self.lo[a]) / self.span[a] * n, -1.0, n + 1.0)
                  for a, v in enumerate((x, y)))
        # the lowest-numbered cell of the bucket within _NEAR of the point, and
        # its lower half unless the point lies above the diagonal by more
        c = np.maximum(np.floor(sx - _NEAR), self.first[col])
        r = np.maximum(np.floor(sy - _NEAR), self.first[row])
        near = (c <= np.minimum(np.floor(sx + _NEAR), self.last[col])) \
            & (r <= np.minimum(np.floor(sy + _NEAR), self.last[row]))
        tri = np.where(near, 2 * (r * n + c) + ((sy - r) - (sx - c) > _NEAR),
                       0).astype(np.int64)
        lams = self._bary(tri, x, y)
        violation = -np.minimum(np.minimum(lams[0], lams[1]), lams[2])
        lams = np.column_stack(lams)

        rest = np.flatnonzero(~near | (violation > _EDGE_TOL))
        if rest.size:               # the whole bucket, in ascending triangle order
            col, row = col[rest], row[rest]
            c0, r0 = self.first[col], self.first[row]
            width = self.last[col] - c0 + 1
            counts = 2 * width * (self.last[row] - r0 + 1)
            owner, offset = _expand(counts)
            cell, half = np.divmod(offset, 2)
            up, across = np.divmod(cell, width[owner])
            cand = 2 * ((r0[owner] + up) * n + c0[owner] + across) + half
            tri[rest], lams[rest], violation[rest] = self._pick(
                x[rest], y[rest], counts, owner, cand)
        return tri, lams, violation


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of sum(counts) slots, its group and its offset in the group."""
    group = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
    return group, offset


class PairLocator:
    """The nodes of a target mesh, located in a source mesh.

    Keeps each target node's source-triangle vertices and barycentric
    weights, and the nodes that coincide with a source vertex (the snap
    mask) with that vertex; the bucket table is dropped once the nodes are
    located. Built once, then only read: one locator serves every field
    moved between the two meshes, also from several threads at once.

    A source mesh that is exactly build_square_mesh(n)'s grid (see
    mesh.square_grid_size) is searched by _GridLocator, any other by the
    bucket table of _TriangleLocator. Both keep the bucket rule: the first
    triangle of the point's bucket, in ascending order, within 1e-12 in
    barycentric coordinates, else the least violation, the first on ties;
    and both compute the weights of that triangle with the same formula, so
    the locator is the same bit for bit either way.
    """

    def __init__(self, source_mesh: Mesh, target_mesh: Mesh):
        self.source, self.target = source_mesh, target_mesh
        n = square_grid_size(source_mesh)
        locator = _TriangleLocator(source_mesh) if n is None \
            else _GridLocator(source_mesh, n)
        tri, self.weights = locator.locate(target_mesh.nodes)
        self.vertices = source_mesh.triangles[tri]
        rows = np.arange(len(tri))
        jmax = np.argmax(self.weights, axis=1)
        self.snap = self.weights[rows, jmax] >= 1.0 - 1e-12
        self.snap_vertices = self.vertices[rows[self.snap], jmax[self.snap]]

    def made_for(self, source_mesh: Mesh, target_mesh: Mesh) -> bool:
        """Whether the locator was made for meshes equal to this pair."""
        pairs = ((self.source.nodes, source_mesh.nodes),
                 (self.source.triangles, source_mesh.triangles),
                 (self.target.nodes, target_mesh.nodes))
        return all(a is b or np.array_equal(a, b) for a, b in pairs)


def make_locator(source_mesh: Mesh, target_mesh: Mesh) -> PairLocator:
    """Locate target_mesh's nodes in source_mesh, once for every field moved
    between the two meshes."""
    return PairLocator(source_mesh, target_mesh)


def transfer_field(source_mesh: Mesh, target_mesh: Mesh, values,
                   locator: PairLocator | None = None) -> np.ndarray:
    """Interpolate a nodal field from source_mesh onto target_mesh nodes.

    locator, from make_locator(source_mesh, target_mesh), lets many fields
    share one location of the target nodes; without one, the pair is located
    for this call. Raises ValidationError if locator was made for another
    mesh pair. Exact for target nodes that coincide with source nodes (hence
    the identity on matching meshes) and exact for fields that are linear on
    each source triangle.
    """
    values = as_field(source_mesh, values)
    if locator is None:
        locator = make_locator(source_mesh, target_mesh)
    elif not locator.made_for(source_mesh, target_mesh):
        raise ValidationError("locator was made for a different mesh pair")
    lams, verts = locator.weights, locator.vertices
    out = (lams[:, 0] * values[verts[:, 0]]
           + lams[:, 1] * values[verts[:, 1]]
           + lams[:, 2] * values[verts[:, 2]])
    # snap to a vertex when the point is one, for bitwise round trips
    out[locator.snap] = values[locator.snap_vertices]
    return out
