import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tppat import transfer
from tppat.errors import ValidationError
from tppat.experiments import prepare_data, run_experiment
from tppat.fem import CoefficientSet
from tppat.mesh import Mesh, build_square_mesh, load_mesh, save_mesh, square_grid_size
from tppat.transfer import _TriangleLocator, make_locator, transfer_field

from builders import bundle, config, mesh_from_triangles, not_quite_grids


class ScalarLocator:
    """Reference point-by-point locator: the loop form of transfer's locator.

    Buckets list triangles in ascending index order; a point takes the first
    triangle of its bucket within 1e-12, else the least violation (first on
    ties), scanning every triangle when its bucket is empty.
    """

    def __init__(self, mesh):
        t, p = mesh.triangles, mesh.nodes
        self.a, self.b, self.c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
        self.det = (self.b[:, 0] - self.a[:, 0]) * (self.c[:, 1] - self.a[:, 1]) \
            - (self.c[:, 0] - self.a[:, 0]) * (self.b[:, 1] - self.a[:, 1])
        self.lo = p.min(axis=0)
        self.hi = p.max(axis=0)
        self.nb = max(1, int(np.sqrt(len(t) / 2.0)))
        self.buckets = {}
        span = np.maximum(self.hi - self.lo, 1e-300)
        tmin = np.minimum(np.minimum(self.a, self.b), self.c)
        tmax = np.maximum(np.maximum(self.a, self.b), self.c)
        i0 = np.clip(((tmin - self.lo) / span * self.nb).astype(int), 0, self.nb - 1)
        i1 = np.clip(((tmax - self.lo) / span * self.nb).astype(int), 0, self.nb - 1)
        for k in range(len(t)):
            for bx in range(i0[k, 0], i1[k, 0] + 1):
                for by in range(i0[k, 1], i1[k, 1] + 1):
                    self.buckets.setdefault((bx, by), []).append(k)

    def _bary(self, k, x, y):
        ax, ay = self.a[k]
        bx, by = self.b[k]
        cx, cy = self.c[k]
        l1 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / self.det[k]
        l2 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / self.det[k]
        return l1, l2, 1.0 - l1 - l2

    def _best(self, candidates, x, y):
        best, best_violation = None, np.inf
        for k in candidates:
            lams = self._bary(k, x, y)
            violation = -min(lams)
            if violation <= 1e-12:
                return (k, lams), violation
            if violation < best_violation:
                best, best_violation = (k, lams), violation
        return best, best_violation

    def locate(self, x, y):
        span = np.maximum(self.hi - self.lo, 1e-300)
        bx = int(np.clip((x - self.lo[0]) / span[0] * self.nb, 0, self.nb - 1))
        by = int(np.clip((y - self.lo[1]) / span[1] * self.nb, 0, self.nb - 1))
        best, violation = self._best(self.buckets.get((bx, by), []), x, y)
        if best is None:
            best, violation = self._best(range(len(self.det)), x, y)
        if violation > 1e-6:
            raise ValidationError(f"point ({x:g}, {y:g}) lies outside the source mesh")
        return best


def scalar_transfer(source, target, values):
    """Reference transfer: one located target node at a time."""
    loc = ScalarLocator(source)
    out = np.empty(target.node_count)
    for i, (x, y) in enumerate(target.nodes):
        k, lams = loc.locate(float(x), float(y))
        tri = source.triangles[k]
        jmax = int(np.argmax(lams))
        if lams[jmax] >= 1.0 - 1e-12:
            out[i] = values[tri[jmax]]
        else:
            out[i] = lams[0] * values[tri[0]] + lams[1] * values[tri[1]] \
                + lams[2] * values[tri[2]]
    return out


def bitwise_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_identity_on_same_mesh():
    m = build_square_mesh(5)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(m.node_count)
    out = transfer_field(m, m, f)
    assert np.array_equal(out, f)


def test_constant_field_to_any_mesh():
    src = build_square_mesh(3)
    dst = build_square_mesh(7)
    out = transfer_field(src, dst, np.full(src.node_count, 2.75))
    assert np.allclose(out, 2.75, atol=1e-13)


def test_linear_field_transfers_exactly():
    # globally linear fields are in the P1 space of every mesh
    src = build_square_mesh(4)
    dst = build_square_mesh(9)
    f = 1.0 + 2.0 * src.nodes[:, 0] - 0.5 * src.nodes[:, 1]
    out = transfer_field(src, dst, f)
    expected = 1.0 + 2.0 * dst.nodes[:, 0] - 0.5 * dst.nodes[:, 1]
    assert np.abs(out - expected).max() <= 1e-12


def test_nested_grid_restriction_is_exact():
    # n=64 nodes contain all n=32 nodes, so restriction is exact sampling
    src = build_square_mesh(16)
    dst = build_square_mesh(8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(src.node_count)
    out = transfer_field(src, dst, f)
    for i, (x, y) in enumerate(dst.nodes):
        j = np.argmin((src.nodes[:, 0] - x) ** 2 + (src.nodes[:, 1] - y) ** 2)
        assert out[i] == f[j]


def test_locator_reuse_matches_direct_call():
    src = build_square_mesh(6)
    dst = build_square_mesh(5)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(src.node_count)
    loc = make_locator(src, dst)
    assert np.array_equal(transfer_field(src, dst, f, locator=loc),
                          transfer_field(src, dst, f))


def test_locator_for_another_mesh_pair_is_rejected():
    src = build_square_mesh(6)
    dst = build_square_mesh(5)
    f = 1.0 + 2.0 * src.nodes[:, 0] - 0.5 * src.nodes[:, 1]
    for loc in (make_locator(build_square_mesh(4), dst),
                make_locator(src, build_square_mesh(4))):
        with pytest.raises(ValidationError, match="different mesh pair"):
            transfer_field(src, dst, f, locator=loc)
    # a locator made for equal meshes fits
    loc = make_locator(build_square_mesh(6), build_square_mesh(5))
    expected = 1.0 + 2.0 * dst.nodes[:, 0] - 0.5 * dst.nodes[:, 1]
    assert np.abs(transfer_field(src, dst, f, locator=loc) - expected).max() <= 1e-12


def test_crime_free_reconstruction_stays_accurate():
    # data from a finer mesh, reconstruction on a coarser one: the direct
    # method inherits only the discretization gap
    table = run_experiment("III", config(mesh_n=32, data_mesh_n=64, noise_levels=[0.0]))
    means = table.mean_errors()
    assert means[("sigma", 0.0)] <= 3.0
    assert means[("mu", 0.0)] <= 3.0


def test_crime_guard_on_a_non_nested_pair_keeps_its_measured_floor():
    # 32 <- 64 is nested (every reconstruction node is a data node, so the
    # transfer only samples); on 24 <- 32 most nodes fall inside data
    # triangles and take interpolated data. Noiseless mean errors measured
    # for this pair: I mu 6.24 %, III sigma/mu 3.32/2.72 %; the bounds allow
    # about 10 % above them.
    cfg = config(mesh_n=24, data_mesh_n=32, noise_levels=[0.0])
    assert run_experiment("I", cfg).mean_errors()[("mu", 0.0)] <= 6.9
    means = run_experiment("III", cfg).mean_errors()
    assert means[("sigma", 0.0)] <= 3.7
    assert means[("mu", 0.0)] <= 3.0


def test_crime_guard_floor_falls_with_n_at_a_fixed_ratio():
    # non-nested pairs at the ratio 3/4, 24 <- 32, 48 <- 64 and 96 <- 128.
    # Noiseless mean errors measured (seed 101): I mu 6.24/5.65/3.69 % and
    # III sigma 3.32/2.62/1.96 %, each falling as h shrinks; III mu
    # (2.72/3.19/1.35 %) does not fall monotonically and is not asserted.
    floors = []
    for n in (24, 48, 96):
        cfg = config(mesh_n=n, data_mesh_n=4 * n // 3, noise_levels=[0.0])
        bundle = prepare_data(cfg)
        floors.append((run_experiment("I", cfg, bundle=bundle).mean_errors()[("mu", 0.0)],
                       run_experiment("III", cfg, bundle=bundle).mean_errors()[("sigma", 0.0)]))
    for coarse, fine in zip(floors, floors[1:]):
        assert fine[0] < coarse[0] and fine[1] < coarse[1]


class SmoothBumps:
    """The default phantom with each inclusion replaced by a Gaussian bump
    v exp(-|x - c|^2 / R^2): same centre c, R the inclusion's radius or
    half-width, v its contrast over the background."""

    @staticmethod
    def coefficients(mesh):
        x, y = mesh.nodes.T

        def bump(background, v, cx, cy, radius):
            return background + v * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / radius ** 2)

        return CoefficientSet(gruneisen=np.ones(mesh.node_count),
                              diffusion=bump(0.2, 0.1, -0.45, 0.4, 0.3),
                              single_photon=bump(0.15, 0.15, 0.45, 0.4, 0.25),
                              two_photon=bump(0.05, 0.05, 0.0, -0.4, 0.3))


def test_crime_guard_pipeline_is_second_order_on_smooth_coefficients():
    # the guarded direct pipeline (forward solves on the data mesh, transfer,
    # density solves, pointwise fit) on the non-nested pairs 24 <- 32,
    # 48 <- 64 and 96 <- 128. Noiseless mean errors measured: III
    # sigma/mu 0.222/0.200, 0.056/0.051 and 0.0141/0.0128 %, I mu 0.457,
    # 0.116 and 0.029 %: rates of 1.97 to 1.99. The default phantom's
    # discontinuities, not the pipeline, set its slow floor.
    errors = []
    for n in (24, 48, 96):
        cfg = config(phantom=SmoothBumps(), mesh_n=n, data_mesh_n=4 * n // 3,
                     noise_levels=[0.0])
        bundle = prepare_data(cfg)
        iii = run_experiment("III", cfg, bundle=bundle).mean_errors()
        errors.append((iii[("sigma", 0.0)], iii[("mu", 0.0)],
                       run_experiment("I", cfg, bundle=bundle).mean_errors()[("mu", 0.0)]))
    rates = [np.log2(np.divide(coarse, fine)) for coarse, fine in zip(errors, errors[1:])]
    assert np.min(rates) >= 1.8, (errors, rates)


def test_point_outside_source_mesh_rejected():
    from tppat.errors import ValidationError
    from tppat.mesh import Mesh
    src = build_square_mesh(3)
    big = build_square_mesh(2)
    target = Mesh(nodes=2.0 * big.nodes, triangles=big.triangles,
                  boundary_edges=big.boundary_edges)
    with pytest.raises(ValidationError):
        transfer_field(src, target, np.ones(src.node_count))


def test_crime_guard_flag_in_bundle():
    bundle = prepare_data(config(mesh_n=8, data_mesh_n=12))
    assert bundle.crime_guard
    assert bundle.data_mesh.node_count == 13 * 13
    ds = bundle.datum_set(0.0, 1)
    assert ds.data[0].shape == (bundle.mesh.node_count,)


# source n, target n: either n can be any size, or the target nests in the source
MESH_PAIRS = st.one_of(
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
    st.integers(1, 12).flatmap(
        lambda nt: st.tuples(st.integers(1, 24 // nt).map(lambda f: f * nt), st.just(nt))),
)


@settings(max_examples=60, deadline=None)
@given(pair=MESH_PAIRS, stretch=st.sampled_from([0.0, 1e-13, 1e-9]),
       seed=st.integers(0, 2**32 - 1),
       coeffs=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
@example(pair=(128, 96), stretch=0.0, seed=35, coeffs=(0.5, 2.0, -3.0))
@example(pair=(24, 18), stretch=1e-13, seed=7, coeffs=(1.0, -2.0, 0.5))
@example(pair=(23, 17), stretch=1e-9, seed=11, coeffs=(-0.5, 1.5, 3.0))
def test_vectorized_transfer_matches_scalar_oracle(pair, stretch, seed, coeffs):
    # a stretched target puts boundary nodes just outside the source mesh,
    # where the least-violation rule picks the triangle; the example is the
    # crime guard's meshes, where every fourth source grid line is a target
    # line, so many target nodes lie on edges that several candidates share.
    # Every source here is a builder grid, so the grid path is the one tested.
    # At stretch 1e-13 and n = 24 the boundary nodes lie 1.2e-12 cell widths
    # outside, just beyond _EDGE_TOL; at 1e-9 they take the least violation
    ns, nt = pair
    src = build_square_mesh(ns)
    square = build_square_mesh(nt)
    dst = Mesh(nodes=square.nodes * (1.0 + stretch), triangles=square.triangles,
               boundary_edges=square.boundary_edges)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(src.node_count)
    oracle = scalar_transfer(src, dst, f)
    assert bitwise_equal(transfer_field(src, dst, f), oracle)
    # one locator serves several fields
    loc = make_locator(src, dst)
    g = rng.standard_normal(src.node_count)
    assert bitwise_equal(transfer_field(src, dst, f, locator=loc), oracle)
    assert bitwise_equal(transfer_field(src, dst, g, locator=loc),
                         scalar_transfer(src, dst, g))

    c0, cx, cy = coeffs
    linear = c0 + cx * src.nodes[:, 0] + cy * src.nodes[:, 1]
    expected = c0 + cx * dst.nodes[:, 0] + cy * dst.nodes[:, 1]
    scale = 1.0 + abs(c0) + abs(cx) + abs(cy)
    assert np.abs(transfer_field(src, dst, linear) - expected).max() \
        <= 1e-12 * scale + 2.0 * stretch * (abs(cx) + abs(cy))


def _l_shaped_source():
    # bottom row of three unit-wide cells of height h, a column of two cells on
    # the left above it; the bucket grid is 2 x 2 over [0, 3]^2, and h stops
    # just short of the bucket edge y = 1.5, so bucket (1, 1) stays empty
    h = 1.5 - 1e-9
    xs, ys = [0.0, 1.0, 2.0, 3.0], [0.0, h, 2.0, 3.0]
    nodes = [(x, y) for y in ys for x in xs]
    cells = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]
    tris = []
    for i, j in cells:
        ll = 4 * j + i
        tris += [(ll, ll + 1, ll + 5), (ll, ll + 5, ll + 4)]
    return mesh_from_triangles(nodes, tris)


def test_point_in_empty_bucket_scans_every_triangle():
    src = _l_shaped_source()
    # (2.5, 1.5) is in the empty bucket, 1e-9 above the bottom row
    dst = mesh_from_triangles([(0.5, 0.5), (2.5, 0.5), (2.5, 1.5)], [(0, 1, 2)])
    grid = _TriangleLocator(src)
    col, row = grid._cells(dst.nodes[2:, 0], dst.nodes[2:, 1])
    lo, hi = grid.bucket_ptr[col[0] * grid.nb + row[0]:][:2]
    assert lo == hi                                     # the bucket is empty
    loc = make_locator(src, dst)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(src.node_count)
    out = transfer_field(src, dst, f, locator=loc)
    assert bitwise_equal(out, scalar_transfer(src, dst, f))
    linear = 1.0 + 2.0 * src.nodes[:, 0] - 0.5 * src.nodes[:, 1]
    expected = 1.0 + 2.0 * dst.nodes[:, 0] - 0.5 * dst.nodes[:, 1]
    assert np.abs(transfer_field(src, dst, linear) - expected).max() <= 1e-8


@pytest.mark.parametrize("far", [(2.5, 2.5), (-2.0, 1.0)])
def test_outside_error_names_the_point(far):
    # (2.5, 2.5) is in the empty bucket, (-2, 1) is clipped into a full one
    src = _l_shaped_source()
    dst = mesh_from_triangles([(0.5, 0.5), (1.0, 0.5), far], [(0, 1, 2)])
    with pytest.raises(ValidationError, match=rf"point \({far[0]:g}, {far[1]:g}\)"):
        transfer_field(src, dst, np.ones(src.node_count))


def test_non_finite_target_point_rejected():
    # a mesh cannot hold such a node, so the locator is given the points directly
    dst = build_square_mesh(2)
    nodes = dst.nodes.copy()
    nodes[4] = np.nan
    with pytest.raises(ValidationError, match="node 4 has a non-finite coordinate"):
        Mesh(nodes=nodes, triangles=dst.triangles, boundary_edges=dst.boundary_edges)
    locator = _TriangleLocator(build_square_mesh(3))
    for bad in (np.nan, np.inf, -np.inf):
        nodes[4] = bad
        with pytest.raises(ValidationError, match="finite"):
            locator.locate(nodes)


def bucket_path(src, dst):
    """vertices, weights, snap and snap_vertices of the bucket locator."""
    tri, weights = _TriangleLocator(src).locate(dst.nodes)
    vertices = src.triangles[tri]
    jmax = np.argmax(weights, axis=1)
    snap = weights[np.arange(len(tri)), jmax] >= 1.0 - 1e-12
    return vertices, weights, snap, vertices[snap, jmax[snap]]


def assert_same_locator(loc, expected):
    vertices, weights, snap, snap_vertices = expected
    assert np.array_equal(loc.vertices, vertices)
    assert bitwise_equal(loc.weights, weights)
    assert np.array_equal(loc.snap, snap)
    assert np.array_equal(loc.snap_vertices, snap_vertices)


GRID_PAIRS = [(ns, nt) for ns in range(1, 25) for nt in range(1, 25)] \
    + [(128, 96), (16, 12), (48, 32)]


def test_grid_source_locator_matches_the_bucket_path_bitwise():
    # every builder-grid pair up to 24 a side and the crime guard's pairs
    grids = {n: build_square_mesh(n) for n in {n for pair in GRID_PAIRS for n in pair}}
    for ns, nt in GRID_PAIRS:
        src, dst = grids[ns], grids[nt]
        assert_same_locator(make_locator(src, dst), bucket_path(src, dst))
    b = bundle(mesh_n=12, data_mesh_n=16, noise_levels=[0.0])
    assert_same_locator(b.locator, bucket_path(b.data_mesh, b.mesh))


def _refuse(*args):
    raise AssertionError("this locator must not be built")


def test_builder_grids_take_the_grid_path(monkeypatch, tmp_path):
    # a grid read back from its file is the same grid
    save_mesh(build_square_mesh(9), tmp_path / "grid.txt")
    loaded = load_mesh(tmp_path / "grid.txt")
    expected = {n: bucket_path(build_square_mesh(n), build_square_mesh(7)) for n in (1, 9, 16)}
    monkeypatch.setattr(transfer, "_TriangleLocator", _refuse)
    for src, n in ((build_square_mesh(1), 1), (build_square_mesh(16), 16), (loaded, 9)):
        assert square_grid_size(src) == n
        assert_same_locator(make_locator(src, build_square_mesh(7)), expected[n])


@pytest.mark.parametrize("kind", ["flipped", "permuted", "one-ulp", "jittered"])
def test_other_sources_keep_the_bucket_path(kind, monkeypatch):
    src = not_quite_grids(12)[kind]
    dst = build_square_mesh(9)
    assert square_grid_size(src) is None
    monkeypatch.setattr(transfer, "_GridLocator", _refuse)
    loc = make_locator(src, dst)
    oracle = ScalarLocator(src)
    for i, (x, y) in enumerate(dst.nodes):
        k, lams = oracle.locate(float(x), float(y))
        assert np.array_equal(loc.vertices[i], src.triangles[k])
        assert bitwise_equal(loc.weights[i], lams)


def test_grid_source_rejects_a_far_point_as_the_bucket_path_does():
    src = build_square_mesh(10)
    points = build_square_mesh(6).nodes.copy()
    points[[5, 20]] = [[0.3, 1.00002], [-1.0 - 1e-3, 0.0]]
    messages = []
    for locator in (transfer._GridLocator(src, 10), _TriangleLocator(src)):
        with pytest.raises(ValidationError, match=r"point \(0\.3, 1\.00002\) lies outside") as err:
            locator.locate(points)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_grid_source_takes_the_least_violation_for_a_small_overshoot():
    # the boundary nodes lie 1e-7 outside, 5e-7 cell widths: within
    # _OUTSIDE_TOL of the mesh but within _EDGE_TOL of no triangle, so the
    # least violation decides
    src = build_square_mesh(10)
    square = build_square_mesh(7)
    dst = Mesh(nodes=square.nodes * (1.0 + 1e-7), triangles=square.triangles,
               boundary_edges=square.boundary_edges)
    loc = make_locator(src, dst)
    assert_same_locator(loc, bucket_path(src, dst))
    # the top-left node is nearest the upper triangle of the top-left cell
    # (c = 90), 5e-7 cell widths outside its two sides
    top_left = np.argmin(dst.nodes[:, 0] - dst.nodes[:, 1])
    assert np.array_equal(loc.vertices[top_left], src.triangles[2 * 90 + 1])
    assert np.isclose(-loc.weights[top_left].min(), 5e-7, rtol=1e-6)
