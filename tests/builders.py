"""The one way the tests build a config, its data, and meshes that are not
the builder's grid.

config(**changes) is the default config with the given fields replaced, by
dataclasses.replace, so it is checked when it is made. bundle(**changes) is
prepare_data of that config, built once per distinct config (by its
canonical text) for the whole session: a bundle is frozen and its arrays
are read-only, so every test can share it. A test that changes a config or
a bundle after it was made builds its own with config() and prepare_data.

jittered_mesh, permuted_mesh and not_quite_grids build meshes that
mesh.square_grid_size does not take for build_square_mesh(n)'s grid, so
they take the solvers' Jacobi path and the transfer's bucket path;
mesh_from_triangles makes a mesh from nodes and triangles alone.
"""

import dataclasses

import numpy as np

from tppat.config import default_config
from tppat.experiments import prepare_data
from tppat.mesh import Mesh, build_square_mesh

_BUNDLES: dict = {}


def config(**changes):
    return dataclasses.replace(default_config(), **changes)


def bundle(**changes):
    cfg = config(**changes)
    key = cfg.canonical_text()
    if key not in _BUNDLES:
        _BUNDLES[key] = prepare_data(cfg)
    return _BUNDLES[key]


def jittered_mesh(n, seed, amplitude):
    """build_square_mesh(n) with interior nodes moved by up to amplitude (Jacobi path)."""
    base = build_square_mesh(n)
    nodes = base.nodes.copy()
    rng = np.random.default_rng(seed)
    nodes[base.interior_list] += rng.uniform(-amplitude, amplitude,
                                             (len(base.interior_list), 2))
    return Mesh(nodes=nodes, triangles=base.triangles, boundary_edges=base.boundary_edges)


def permuted_mesh(mesh, seed):
    """mesh with its node numbers randomly permuted: old node i becomes perm[i]."""
    perm = np.random.default_rng(seed).permutation(mesh.node_count)
    nodes = np.empty_like(mesh.nodes)
    nodes[perm] = mesh.nodes
    return Mesh(nodes=nodes, triangles=perm[mesh.triangles],
                boundary_edges=perm[mesh.boundary_edges])


def mesh_from_triangles(nodes, tris):
    """Mesh whose boundary edges are the edges of exactly one triangle."""
    tris = np.asarray(tris)
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return Mesh(nodes=np.asarray(nodes, dtype=float), triangles=tris,
                boundary_edges=uniq[counts == 1])


def not_quite_grids(n):
    """Meshes over build_square_mesh(n)'s square that are not that grid."""
    grid = build_square_mesh(n)
    ll = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    lr, ul = ll + 1, ll + n + 1
    flipped = np.column_stack([ll, lr, ul, lr, ul + 1, ul]).reshape(-1, 3)
    permuted = grid.triangles[np.random.default_rng(4).permutation(grid.triangle_count)]
    moved = grid.nodes.copy()
    node = (n // 2) * (n + 1) + n // 3                 # an interior node
    moved[node, 0] = np.nextafter(moved[node, 0], np.inf)
    jittered = grid.nodes.copy()
    inner = grid.interior_list
    jittered[inner] += np.random.default_rng(5).uniform(-0.3, 0.3, (len(inner), 2)) / n
    return {"flipped": mesh_from_triangles(grid.nodes, flipped),
            "permuted": mesh_from_triangles(grid.nodes, permuted),
            "one-ulp": Mesh(nodes=moved, triangles=grid.triangles,
                            boundary_edges=grid.boundary_edges),
            "jittered": Mesh(nodes=jittered, triangles=grid.triangles,
                             boundary_edges=grid.boundary_edges)}
