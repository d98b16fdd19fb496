import numpy as np
import pytest

from tppat.errors import MeshFormatError, ValidationError
from tppat.mesh import Mesh, build_square_mesh, load_mesh, save_mesh

from oracle import save_mesh_rows


def test_smallest_grid_counts():
    m = build_square_mesh(1)
    assert m.node_count == 4
    assert m.triangle_count == 2
    assert len(m.boundary_nodes) == 4


def test_n2_counts():
    m = build_square_mesh(2)
    assert m.node_count == 9
    assert m.triangle_count == 8
    assert len(m.boundary_nodes) == 8


def test_benchmark_scale_element_count():
    # n=55 gives 6050 triangles, the ~6000-element scale used for the benchmark
    m = build_square_mesh(55)
    assert m.triangle_count == 6050
    assert m.node_count == 56 * 56


def test_rejects_bad_subdivisions():
    with pytest.raises(ValidationError):
        build_square_mesh(0)
    with pytest.raises(ValidationError):
        build_square_mesh(-3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
def test_total_area_is_four(n):
    m = build_square_mesh(n)
    assert abs(m.signed_areas().sum() - 4.0) <= 1e-12 * 4.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
def test_boundary_edge_count(n):
    # 4n sides of length 2/n on a perimeter of length 8
    m = build_square_mesh(n)
    assert len(m.boundary_edges) == 4 * n
    assert len(m.boundary_nodes) == 4 * n


def test_all_triangles_counterclockwise():
    m = build_square_mesh(4)
    assert np.all(m.signed_areas() > 0.0)


def test_roundtrip_identity(tmp_path):
    m = build_square_mesh(1)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)
    assert m.boundary_nodes == m2.boundary_nodes


def test_roundtrip_larger_mesh(tmp_path):
    m = build_square_mesh(7)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.triangles, m2.triangles)


def test_out_of_range_triangle_index_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "nodes 4\n-1 -1\n1 -1\n-1 1\n1 1\n"
        "triangles 2\n0 1 99\n0 3 2\n"
        "boundary_edges 4\n0 1\n1 3\n3 2\n2 0\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "99" in str(err.value)
    assert "line 7" in str(err.value)


def test_clockwise_triangle_is_reoriented(tmp_path):
    m = build_square_mesh(1)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    # triangle lines sit after "nodes 4" + 4 node lines + "triangles 2"
    i, j, k = lines[6].split()
    lines[6] = f"{i} {k} {j}"          # flip to clockwise
    path.write_text("\n".join(lines) + "\n")
    m2 = load_mesh(path)
    assert np.all(m2.signed_areas() > 0.0)
    assert {frozenset(t) for t in m2.triangles.tolist()} \
        == {frozenset(t) for t in m.triangles.tolist()}


def written_bytes(writer, mesh, path):
    writer(mesh, path)
    return path.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 7, 32, 128])
def test_save_mesh_writes_the_bytes_of_the_row_writer(n, tmp_path):
    m = build_square_mesh(n)
    assert (written_bytes(save_mesh, m, tmp_path / "a.txt")
            == written_bytes(save_mesh_rows, m, tmp_path / "b.txt"))


def test_save_mesh_of_a_reoriented_load_writes_the_bytes_of_the_row_writer(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(
        "nodes 5\n-1 -1\n1 -1\n-1 1\n1 1\n0.1 -0.30000000000000004\n"
        "triangles 4\n0 4 1\n1 3 4\n3 4 2\n2 0 4\n"
        "boundary_edges 4\n0 1\n1 3\n3 2\n2 0\n")
    m = load_mesh(path)
    assert m.triangles.tolist() == [[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]]
    assert (written_bytes(save_mesh, m, tmp_path / "a.txt")
            == written_bytes(save_mesh_rows, m, tmp_path / "b.txt"))


def test_degenerate_triangle_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "nodes 4\n-1 -1\n1 -1\n-1 1\n1 1\n"
        "triangles 2\n0 1 1\n0 3 2\n"
        "boundary_edges 4\n0 1\n1 3\n3 2\n2 0\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_wrong_boundary_edges_rejected():
    m = build_square_mesh(1)
    bad_edges = np.array([[0, 1], [1, 3], [3, 2]])     # one side missing
    with pytest.raises(ValidationError):
        Mesh(nodes=m.nodes.copy(), triangles=m.triangles.copy(),
             boundary_edges=bad_edges)


def test_malformed_header_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 4\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line 1" in str(err.value)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 4\n-1 -1\n1 -1\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_mesh_is_immutable():
    m = build_square_mesh(2)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 5


def test_interior_and_boundary_partition():
    m = build_square_mesh(4)
    assert len(m.interior_list) + len(m.boundary_list) == m.node_count
    assert set(m.interior_list).isdisjoint(m.boundary_nodes)
    assert m.boundary_list.tolist() == sorted(m.boundary_nodes)
    assert np.all(np.diff(m.interior_list) > 0)


def test_node_lists_are_computed_once_and_read_only():
    m = build_square_mesh(3)
    for name in ("boundary_list", "interior_list"):
        first = getattr(m, name)
        assert getattr(m, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1


def _square_mesh_loops(n):
    """Loop-built triangle and boundary-edge lists of build_square_mesh (oracle)."""
    tris = []
    for j in range(n):
        for i in range(n):
            ll = j * (n + 1) + i
            ul = ll + (n + 1)
            tris += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
    bedges = []
    for i in range(n):
        bedges += [(i, i + 1), (n * (n + 1) + i, n * (n + 1) + i + 1)]
    for j in range(n):
        bedges += [(j * (n + 1), (j + 1) * (n + 1)),
                   (j * (n + 1) + n, (j + 1) * (n + 1) + n)]
    return np.array(tris), np.array(bedges)


@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_square_mesh_order_matches_loop_construction(n):
    m = build_square_mesh(n)
    tris, bedges = _square_mesh_loops(n)
    assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.boundary_edges, bedges)


def test_edge_in_three_triangles_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValidationError, match="more than two"):
        Mesh(nodes=nodes, triangles=tris, boundary_edges=np.array([[0, 2]]))
