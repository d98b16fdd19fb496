"""The array readers of mesh and field files against the per-line readers
they replaced (oracle.load_mesh_lines, oracle.load_field_lines): the same
arrays, bit for bit, and the same error lines."""

import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tppat.cli import main
from tppat.errors import MeshFormatError, ValidationError
from tppat.fem import load_field, save_field
from tppat.mesh import Mesh, build_square_mesh, load_mesh, save_mesh

from builders import jittered_mesh
from oracle import load_field_lines, load_mesh_lines
from test_fem import ANY_FLOAT64, SPECIAL

KEYWORDS = ("nodes", "triangles", "boundary_edges")
MESH4 = build_square_mesh(1)


def outcome(reader, path, *args):
    """What reader returns for path, or the MeshFormatError it raises."""
    try:
        return reader(path, *args)
    except MeshFormatError as exc:
        return exc


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_mesh(m1, m2):
    for name in ("nodes", "triangles", "boundary_edges"):
        assert same_bits(getattr(m1, name), getattr(m2, name)), name


def mesh_text(mesh, flip):
    """save_mesh text of mesh with the triangles where flip is set written
    clockwise (their last two indices swapped)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mesh.txt")
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
    first = mesh.node_count + 2                       # the first triangle line
    for t in np.flatnonzero(flip):
        a, b, c = lines[first + t].split()
        lines[first + t] = f"{a} {c} {b}"
    return "\n".join(lines) + "\n"


# -- round trips ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       jitter=st.sampled_from([0.0, 0.3]), flipped=st.sampled_from([0.0, 0.5, 1.0]))
@example(n=128, seed=0, jitter=0.0, flipped=0.0)
@example(n=128, seed=1, jitter=0.3, flipped=0.5)
def test_mesh_save_load_save_writes_the_same_bytes_and_the_reference_arrays(
        n, seed, jitter, flipped):
    mesh = build_square_mesh(n) if jitter == 0.0 else jittered_mesh(n, seed, jitter / n)
    flip = np.random.default_rng(seed).random(mesh.triangle_count) < flipped
    with tempfile.TemporaryDirectory() as tmp:
        original, written, again = (Path(tmp, name) for name in ("a", "b", "c"))
        original.write_text(mesh_text(mesh, flip))
        loaded = load_mesh(original)
        assert_same_mesh(loaded, load_mesh_lines(original))
        assert_same_mesh(loaded, mesh)                # clockwise rows reoriented
        save_mesh(loaded, written)
        save_mesh(load_mesh(written), again)
        assert written.read_bytes() == again.read_bytes()
        assert (written.read_bytes() == original.read_bytes()) == (not flip.any())


@settings(max_examples=80, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=ANY_FLOAT64))
@example(values=np.array([]))
@example(values=np.array([-0.0]))
@example(values=SPECIAL)
@example(values=np.random.default_rng(0).standard_normal(129 * 129))
def test_field_save_load_save_writes_the_same_bytes_and_the_reference_array(values):
    with tempfile.TemporaryDirectory() as tmp:
        written, again = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        save_field(written, values)
        loaded = load_field(written)
        nan = np.isnan(values)                        # every NaN is written "nan"
        assert same_bits(loaded[~nan], values[~nan]) and np.isnan(loaded[nan]).all()
        assert same_bits(loaded, load_field_lines(written))
        save_field(again, loaded)
        assert written.read_bytes() == again.read_bytes()


# -- malformed files -----------------------------------------------------------

TOKENS = st.one_of(
    st.sampled_from(["x", "", "1.5", "2.0", "1e3", "-1", "-0", "+1", "1_0", "0x1",
                     "99", "nan", "-inf", "|", "99999999999999999999"]),
    st.integers(-2, 12).map(str),
    st.text(string.printable, max_size=6))
MUTATIONS = ("token", "extra column", "missing column", "shifted token", "drop",
             "duplicate", "swap", "blank", "trailing", "truncate", "count")


def mutate(text, sep, data):
    """text with one edit drawn from MUTATIONS; tokens are split at sep."""
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    parts = lines[k].split(sep)
    if kind == "token":
        token = data.draw(TOKENS, label="token")
        # a reference reader given a 20-digit count would allocate that many rows
        assume(len(token) < 7 or parts[0] not in KEYWORDS)
        parts[data.draw(st.integers(0, len(parts) - 1), label="column")] = token
        lines[k] = sep.join(parts)
    elif kind == "extra column":
        lines[k] += sep + data.draw(TOKENS, label="token")
    elif kind == "missing column":
        lines[k] = sep.join(parts[:-1])
    elif kind == "shifted token":                     # the token count stays the same
        assume(k + 1 < len(lines))
        lines[k], lines[k + 1] = sep.join(parts[:-1]), sep.join([parts[-1], lines[k + 1]])
    elif kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[j], lines[k] = lines[k], lines[j]
    elif kind == "blank":
        lines.insert(k, data.draw(st.sampled_from(["", " ", "\t \t"]), label="blank"))
    elif kind == "trailing":
        lines.append(data.draw(st.text(string.printable, max_size=8), label="trailing"))
    elif kind == "truncate":
        text = "\n".join(lines) + "\n"
        return text[:data.draw(st.integers(0, len(text)), label="cut")]
    else:
        headers = [i for i, line in enumerate(lines) if line.split(" ")[0] in KEYWORDS]
        if headers:                                   # a mesh: edit a count
            k = data.draw(st.sampled_from(headers), label="header")
            keyword, count = lines[k].split(" ")
            lines[k] = f"{keyword} " + data.draw(st.sampled_from(
                [str(int(count) + 1), str(int(count) - 1), "-1", "-0", "x", "3.0", ""]),
                label="count")
        else:                                         # a field: edit the header
            lines[0] = data.draw(st.sampled_from(["value,node", "node", " node,value",
                                                  "node,value,", ""]), label="header")
    return "\n".join(lines) + "\n"


def non_blank_line_numbers(path):
    return [i + 1 for i, line in enumerate(path.read_text().splitlines()) if line.strip()]


def assert_same_error(new, ref, line_without_reference):
    """new and ref are both MeshFormatErrors at the same line. Where the
    reference names no line, new names line_without_reference()."""
    assert isinstance(new, MeshFormatError), new
    assert isinstance(ref, MeshFormatError), ref
    assert new.line == (line_without_reference() if ref.line is None else ref.line), (
        str(new), str(ref))
    assert str(new).startswith(f"line {new.line}: ")


@settings(max_examples=600, deadline=None)
@given(n=st.integers(1, 3), jittered=st.booleans(), flip=st.integers(0, 2**18 - 1),
       data=st.data())
def test_a_malformed_mesh_file_fails_at_the_line_of_the_reference_reader(
        n, jittered, flip, data):
    mesh = jittered_mesh(n, n, 0.3 / n) if jittered else build_square_mesh(n)
    flip = (flip >> np.arange(mesh.triangle_count)) & 1 == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mesh.txt")
        path.write_text(mutate(mesh_text(mesh, flip), " ", data))
        new, ref = outcome(load_mesh, path), outcome(load_mesh_lines, path)
        if isinstance(ref, Mesh):
            assert isinstance(new, Mesh), new
            assert_same_mesh(new, ref)
            return

        def boundary_header():              # where the whole mesh is checked
            lines = path.read_text().splitlines()
            return next(i + 1 for i, line in enumerate(lines)
                        if line.split()[:1] == ["boundary_edges"])

        assert_same_error(new, ref, boundary_header)


@settings(max_examples=400, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 8), elements=ANY_FLOAT64),
       data=st.data())
def test_a_malformed_field_file_fails_at_the_line_of_the_reference_reader(values, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "field.csv")
        save_field(path, values)
        path.write_text(mutate(path.read_text(), ",", data))
        for mesh in (None, MESH4):
            new, ref = outcome(load_field, path, mesh), outcome(load_field_lines, path, mesh)
            if isinstance(ref, np.ndarray):
                assert isinstance(new, np.ndarray), new
                assert same_bits(new, ref)
                continue

            def count_line():               # the first extra row, or end of file
                rows = non_blank_line_numbers(path)[1:]
                lines = len(path.read_text().splitlines())
                return rows[mesh.node_count] if len(rows) > mesh.node_count else lines + 1

            assert_same_error(new, ref, count_line)


# -- errors on their own -------------------------------------------------------

MESH4_TEXT = ("nodes 4\n-1 -1\n1 -1\n-1 1\n1 1\n"
              "triangles 2\n0 1 3\n0 3 2\n"
              "boundary_edges 4\n0 1\n1 3\n3 2\n2 0\n")


@pytest.mark.parametrize("old, new, line, message", [
    ("0 1 3\n0 3 2", "0 1 3\n0 1 x", 8, "expected 'i j k', got '0 1 x'"),
    ("0 1 3\n0 3 2", "0 1 99\n0 1 x", 7, "triangle index 99 out of range for 4 nodes"),
    ("0 1 3\n0 3 2", "0 1 1\n0 1 99", 7, "degenerate triangle [0, 1, 1]"),
    ("0 1 3\n0 3 2", "0 1 3\n0 1 99999999999999999999", 8, "expected 'i j k'"),
    ("nodes 4", "nodes 5", 6, "expected 'x y', got 'triangles 2'"),
    ("3 2\n2 0\n", "3 2\n2 0\n0 3\n", 14, "trailing content '0 3'"),
    ("3 2\n2 0\n", "3 2\n", 13, "unexpected end of file, expected 'i j'"),
    ("0 1\n1 3", "0 1 1\n3", 10, "expected 'i j', got '0 1 1'"),
    ("nodes 4\n-1 -1", "nodes 4\n-1 -inf", 2, "node 0 has a non-finite coordinate"),
    ("-1 1\n1 1", "-1 1\nnan 1", 5, "node 3 has a non-finite coordinate"),
    ("-1 1\n1 1\ntriangles 2\n0 1 3", "-1 1\nnan 1\ntriangles 2\n0 1 x", 5,
     "node 3 has a non-finite coordinate"),
    ("nodes 4", "nodes 4.0", 1, "expected 'nodes <count>', got 'nodes 4.0'"),
    ("triangles 2", "triangles -2", 6, "expected 'triangles <count>', got 'triangles -2'"),
    ("triangles 2", "triangle 2", 6, "expected 'triangles <count>', got 'triangle 2'"),
    ("boundary_edges 4\n0 1\n1 3\n3 2\n2 0\n", "", 9,
     "unexpected end of file, expected 'boundary_edges <count>'"),
    ("3 2\n2 0", "3 2\n1 2", 9, "boundary_edges do not match"),
    ("0 1 3\n0 3 2", "0 1 3\n0 3 1", 9, "boundary_edges do not match"),
])
def test_mesh_errors_name_their_line(tmp_path, old, new, line, message):
    path = tmp_path / "mesh.txt"
    path.write_text(MESH4_TEXT.replace(old, new, 1))
    with pytest.raises(MeshFormatError, match=f"^line {line}: ") as err:
        load_mesh(path)
    assert err.value.line == line
    assert message in str(err.value)


def mesh_file(nodes, triangles, boundary_edges):
    """Mesh file text of the given arrays, which need not make a valid Mesh."""
    sections = (("nodes", nodes), ("triangles", triangles), ("boundary_edges", boundary_edges))
    return "".join(f"{keyword} {len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n"
                                                      for row in rows)
                   for keyword, rows in sections)


# corners at +-1e200 overflow the doubled area to inf; (0, 0), (2e200, 1e200),
# (1e200, 2e200) give inf - inf = nan
@pytest.mark.parametrize("arrays, line, area", [
    ((1e200 * MESH4.nodes, MESH4.triangles, MESH4.boundary_edges), 7, "inf"),
    (([[0, 0], [2e200, 1e200], [1e200, 2e200]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]]),
     6, "nan"),
], ids=["inf", "nan"])
def test_a_triangle_whose_signed_area_overflows_fails_at_its_line(tmp_path, arrays, line, area):
    path = tmp_path / "mesh.txt"
    path.write_text(mesh_file(*arrays))
    corners = [int(k) for k in arrays[1][0]]
    for reader in (load_mesh, load_mesh_lines):
        with pytest.raises(MeshFormatError) as err:
            reader(path)
        assert str(err.value) == f"line {line}: triangle {corners} has a non-finite signed area"
    with pytest.raises(ValidationError, match=f"triangle 0 has a non-finite signed area {area}"):
        Mesh(*arrays)


def test_a_count_far_beyond_the_rows_fails_at_the_first_line_that_is_no_row(tmp_path):
    # the per-line reader allocated count rows before reading any
    path = tmp_path / "mesh.txt"
    path.write_text(MESH4_TEXT.replace("nodes 4", f"nodes {10**12}", 1))
    with pytest.raises(MeshFormatError, match="^line 6: expected 'x y'"):
        load_mesh(path)


@pytest.mark.parametrize("old, new, line", [
    (b"-1 1\n", b"-1 \xe91\n", 4),
    (b"nodes 4\n", b"\xffnodes 4\n", 1),
    (b"0 1\n", b"0 1\r\n\r\n\x80\n", 12),
])
def test_a_non_ascii_byte_in_a_mesh_file_fails_at_its_line(tmp_path, old, new, line):
    path = tmp_path / "mesh.txt"
    path.write_bytes(MESH4_TEXT.encode("ascii").replace(old, new, 1))
    with pytest.raises(MeshFormatError, match=f"^line {line}: non-ASCII byte 0x") as err:
        load_mesh(path)
    assert err.value.line == line


def test_a_non_ascii_byte_in_a_field_file_fails_at_its_line(tmp_path):
    path = tmp_path / "field.csv"
    path.write_bytes(b"node,value\r\n0,1\r\n\n1,2\xe9\n")
    with pytest.raises(MeshFormatError, match="^line 4: non-ASCII byte 0xe9$"):
        load_field(path)


def test_cli_transfer_reports_a_non_ascii_mesh_as_a_validation_error(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    path.write_bytes(MESH4_TEXT.encode("ascii").replace(b"-1 1\n", b"-1 \xe91\n", 1))
    assert main(["transfer", "--source-mesh", str(path), "--target-mesh", str(path),
                 "--field", str(tmp_path / "f.csv"), "--out", str(tmp_path / "g.csv")]) == 1
    assert "error: line 4: non-ASCII byte 0xe9" in capsys.readouterr().err


@pytest.mark.parametrize("text, mesh, line, message", [
    ("node,value\n0,1.5\n\n1,2\n", MESH4, 5, "field has 2 values, mesh has 4 nodes"),
    ("node,value\n0,1\n1,2\n2,3\n3,4\n4,5\n", MESH4, 6, "field has 5 values"),
    ("node,value\n0,1\n1,2\n2,3\n3,4\n4,5\n5,x\n", None, 7, "expected 'node,value', got '5,x'"),
    ("node,value\n0,1\n2,2\n1,x\n", None, 3, "expected node 1, got 2"),
    ("node,value\n1.0,1\n", None, 2, "expected 'node,value', got '1.0,1'"),
    ("node,value\n0,1,1\n2\n", None, 2, "expected 'node,value', got '0,1,1'"),
    ("\nnode,value\n", None, 1, "expected header 'node,value'"),
])
def test_field_errors_name_their_line(tmp_path, text, mesh, line, message):
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=f"^line {line}: ") as err:
        load_field(path, mesh)
    assert message in str(err.value)
