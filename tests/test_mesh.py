import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab.errors import DomainError
from torsionlab.mesh import (TriMesh, boundary_geometry, load_mesh,
                            mesh_from_spec, save_mesh)


def test_disk_mesh_counts():
    # ring k holds 6k vertices, so n rings give 1 + 3n(n+1) vertices and
    # 6n^2 triangles
    for n in (2, 5, 11):
        m = tl.build_disk_mesh(1.0, n)
        assert m.vertices.shape[0] == 1 + 3 * n * (n + 1)
        assert m.triangles.shape[0] == 6 * n * n
        assert len(m.boundary_vertices) == 6 * n


def test_disk_mesh_geometry():
    m = tl.build_disk_mesh(2.0, 12)
    r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
    assert np.allclose(r[m.boundary_vertices], 2.0, atol=1e-12)
    assert r[0] == 0.0
    areas = m.triangle_areas()
    assert np.all(areas > 0.0)
    # inscribed polygon area converges to pi R^2 from below
    assert math.pi * 4.0 * (1 - 2e-3) < areas.sum() < math.pi * 4.0


def test_rectangle_mesh_counts():
    m = tl.build_rectangle_mesh(2.0, 1.0, 8, 4)
    assert m.vertices.shape[0] == 9 * 5
    assert m.triangles.shape[0] == 2 * 8 * 4
    assert np.isclose(m.triangle_areas().sum(), 2.0)
    assert len(m.boundary_edges) == 2 * (8 + 4)


def test_ellipse_mesh_is_scaled_disk():
    m = tl.build_ellipse_mesh(2.0, 0.5, 6)
    d = tl.build_disk_mesh(1.0, 6)
    assert np.allclose(m.vertices, d.vertices * [2.0, 0.5])
    assert np.array_equal(m.triangles, d.triangles)


def test_boundary_edges_ccw_ordered():
    m = tl.build_disk_mesh(1.0, 4)
    edges = m.boundary_edges
    # consecutive edges chain head to tail around the loop
    assert np.array_equal(edges[1:, 0], edges[:-1, 1])
    assert edges[0, 0] == edges[-1, 1]
    mids, normals, lengths = boundary_geometry(m)
    # outward normal points along the radius on a disk
    rad = mids / np.linalg.norm(mids, axis=1)[:, None]
    assert np.allclose((normals * rad).sum(axis=1), 1.0, atol=1e-3)
    # inscribed 24-gon perimeter falls short of 2*pi by (pi/24)^2/6
    assert np.isclose(lengths.sum(), 2 * math.pi, rtol=5e-3)


def test_interior_vertices_partition():
    m = tl.build_disk_mesh(1.0, 3)
    both = np.concatenate([m.interior_vertices, m.boundary_vertices])
    assert np.array_equal(np.sort(both), np.arange(len(m.vertices)))


def test_from_arrays_rejects_bad_input():
    good_v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    good_t = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        tl.TriMesh.from_arrays(good_v, np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        tl.TriMesh.from_arrays(good_v, np.array([[0, 2, 1]]))  # clockwise
    with pytest.raises(ValueError):
        tl.TriMesh.from_arrays(good_v[:, :1], good_t)
    # same directed edge twice: two triangles on the same side
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    t = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValueError, match="nonconforming"):
        tl.TriMesh.from_arrays(v, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(bad):
    m = tl.build_disk_mesh(1.0, 3)
    moved = m.vertices.copy()
    moved[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        tl.TriMesh.from_arrays(moved, m.triangles)
    with pytest.raises(ValueError, match="finite"):
        m.replace_vertices(moved)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_huge_coordinates_rejected_without_warnings(scale):
    # finite coordinates whose area products overflow
    m = tl.build_disk_mesh(1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mesh coordinates too large"):
            tl.TriMesh.from_arrays(scale * m.vertices, m.triangles)
        with pytest.raises(ValueError, match="mesh coordinates too large"):
            m.replace_vertices(scale * m.vertices)
        with pytest.raises(ValueError, match="mesh coordinates too large"):
            mesh_from_spec(f"rect:{scale}:1:3:3")


def test_mesh_arrays_immutable():
    m = tl.build_disk_mesh(1.0, 2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 7


def test_mesh_leaves_the_callers_arrays_writeable():
    # float64 and int64 C arrays are the dtypes the mesh stores, where
    # np.asarray would hand back the caller's own array to be locked
    base = tl.build_disk_mesh(1.0, 3)
    v, t = base.vertices.copy(), base.triangles.astype(np.int64)
    m = tl.TriMesh.from_arrays(v, t)
    w = 1.5 * v
    moved = m.replace_vertices(w)
    assert v.flags.writeable and t.flags.writeable and w.flags.writeable
    v[:] = 7.0
    t[:] = 0
    w[:] = -3.0
    assert np.array_equal(m.vertices, base.vertices)
    assert np.array_equal(m.triangles, base.triangles)
    assert np.array_equal(moved.vertices, 1.5 * base.vertices)
    assert not (m.vertices.flags.writeable or m.triangles.flags.writeable
                or moved.vertices.flags.writeable)


def test_replace_vertices():
    m = tl.build_disk_mesh(1.0, 3)
    m2 = m.replace_vertices(m.vertices * 2.0)
    assert np.isclose(m2.h, 2.0 * m.h)
    assert np.array_equal(m2.triangles, m.triangles)
    # folding the mesh flips triangles and must be refused
    with pytest.raises(ValueError):
        m.replace_vertices(m.vertices * [-1.0, 1.0])


def test_save_load_roundtrip(tmp_path):
    m = tl.build_disk_mesh(1.0, 3)
    path = tmp_path / "disk.mesh"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.triangles, m.triangles)


_SIDES = st.floats(min_value=0.1, max_value=10.0)
_COUNTS = st.integers(min_value=2, max_value=12)


@st.composite
def _meshes(draw):
    kind = draw(st.sampled_from(("disk", "ellipse", "rect")))
    if kind == "disk":
        m = tl.build_disk_mesh(draw(_SIDES), draw(_COUNTS))
    elif kind == "ellipse":
        m = tl.build_ellipse_mesh(draw(_SIDES), draw(_SIDES), draw(_COUNTS))
    else:
        m = tl.build_rectangle_mesh(draw(_SIDES), draw(_SIDES), draw(_COUNTS),
                                    draw(_COUNTS))
    # a rotation and shift give coordinates with full-length mantissas
    angle = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    shift = np.array(draw(st.tuples(_SIDES, _SIDES)))
    c, s = math.cos(angle), math.sin(angle)
    return m.replace_vertices(m.vertices @ np.array([[c, s], [-s, c]]) + shift)


@settings(max_examples=30, deadline=None)
@given(m=_meshes())
def test_save_load_roundtrip_is_bit_identical(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mesh")
        save_mesh(m, path)
        m2 = load_mesh(path)
    for name in ("vertices", "triangles", "boundary_vertices",
                 "boundary_edges", "boundary_edge_tri", "areas"):
        a, b = getattr(m, name), getattr(m2, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert m2.h == m.h


def test_load_mesh_rejects_junk(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("v 0 0\nv 1 0\nv 0 1\nwhat 1 2 3\nt 0 1 2\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_mesh_from_spec(tmp_path):
    m = mesh_from_spec("disk:1:4")
    assert m.vertices.shape[0] == 1 + 3 * 4 * 5
    m = mesh_from_spec("ellipse:2:1:3")
    assert m.vertices[:, 0].max() == pytest.approx(2.0)
    m = mesh_from_spec("rect:1:2:2:4")
    assert m.vertices.shape[0] == 15
    d = tl.build_disk_mesh(1.0, 3)
    path = tmp_path / "m.mesh"
    save_mesh(d, path)
    m = mesh_from_spec(f"file:{path}")
    assert m.vertices.shape[0] == d.vertices.shape[0]
    # image meshes push a disk through a catalogue map
    m = mesh_from_spec("image:quad:0.2:0.5:4")
    assert m.vertices.shape[0] == 1 + 3 * 4 * 5
    for bad in ("disk:1", "disk:1:1", "pentagon:1:3", "rect:1:1:0:4", ""):
        with pytest.raises(ValueError):
            mesh_from_spec(bad)


def test_map_mesh_univalence_guard():
    d = tl.build_disk_mesh(1.0, 4)
    squeeze = tl.moebius_map(2.0)  # univalent only up to |z| = 0.5
    with pytest.raises(DomainError):
        tl.map_mesh(d, squeeze)
    small = tl.build_disk_mesh(0.4, 4)
    img = tl.map_mesh(small, squeeze)
    assert img.vertices.shape == small.vertices.shape


@pytest.mark.parametrize("spec", ["quad:0.3", "cubic:0.5", "moebius:0.8,0.3"])
def test_map_mesh_matches_a_rebuilt_image(spec):
    # the image keeps the disk's combinatorics: it equals the mesh rebuilt
    # from the mapped vertices, boundary loops and all
    disk = tl.build_disk_mesh(0.7, 6)
    img = tl.map_mesh(disk, tl.map_from_spec(spec))
    z = disk.vertices[:, 0] + 1j * disk.vertices[:, 1]
    fz = np.asarray(tl.map_from_spec(spec).eval(z))
    ref = TriMesh.from_arrays(np.column_stack([fz.real, fz.imag]),
                              disk.triangles)
    for field in ("vertices", "triangles", "boundary_vertices",
                  "boundary_edges", "boundary_edge_tri", "areas"):
        np.testing.assert_array_equal(getattr(img, field), getattr(ref, field))
    assert img.h == ref.h


def _disk_triangles_loop(n):
    """Reference ring-by-ring construction of the disk triangle list."""
    def start(k):
        return 1 + 3 * k * (k - 1)
    tris = [(0, 1 + m, 1 + (m + 1) % 6) for m in range(6)]
    for k in range(2, n + 1):
        o0, i0, oc, ic = start(k), start(k - 1), 6 * k, 6 * (k - 1)
        for s in range(6):
            for j in range(k):
                o1, o2 = o0 + (s * k + j) % oc, o0 + (s * k + j + 1) % oc
                i1 = i0 + (s * (k - 1) + j) % ic
                tris.append((o1, o2, i1))
                if j < k - 1:
                    tris.append((i1, o2, i0 + (s * (k - 1) + j + 1) % ic))
    return np.asarray(tris, dtype=np.int64)


def test_builders_match_loop_reference():
    for n in (2, 3, 7, 20):
        m = tl.build_disk_mesh(1.5, n)
        assert np.array_equal(m.triangles, _disk_triangles_loop(n))
        verts = [np.zeros((1, 2))]
        for k in range(1, n + 1):
            ang = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
            rk = 1.5 * k / n
            verts.append(np.column_stack([rk * np.cos(ang), rk * np.sin(ang)]))
        assert np.array_equal(m.vertices, np.vstack(verts))
    nx, ny = 3, 5
    m = tl.build_rectangle_mesh(2.0, 1.0, nx, ny)
    tris = []
    for j in range(ny):
        for i in range(nx):
            v = j * (nx + 1) + i
            tris += [(v, v + 1, v + nx + 2), (v, v + nx + 2, v + nx + 1)]
    assert np.array_equal(m.triangles, tris)


def test_pinned_triangle_arrays():
    assert mesh_from_spec("rect:1:1:2:2").triangles.tolist() == [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]
    assert mesh_from_spec("disk:1:3").triangles.tolist() == [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 6], [0, 6, 1],
        [7, 8, 1], [1, 8, 2], [8, 9, 2], [9, 10, 2], [2, 10, 3], [10, 11, 3],
        [11, 12, 3], [3, 12, 4], [12, 13, 4], [13, 14, 4], [4, 14, 5],
        [14, 15, 5], [15, 16, 5], [5, 16, 6], [16, 17, 6], [17, 18, 6],
        [6, 18, 1], [18, 7, 1], [19, 20, 7], [7, 20, 8], [20, 21, 8],
        [8, 21, 9], [21, 22, 9], [22, 23, 9], [9, 23, 10], [23, 24, 10],
        [10, 24, 11], [24, 25, 11], [25, 26, 11], [11, 26, 12], [26, 27, 12],
        [12, 27, 13], [27, 28, 13], [28, 29, 13], [13, 29, 14], [29, 30, 14],
        [14, 30, 15], [30, 31, 15], [31, 32, 15], [15, 32, 16], [32, 33, 16],
        [16, 33, 17], [33, 34, 17], [34, 35, 17], [17, 35, 18], [35, 36, 18],
        [18, 36, 7], [36, 19, 7]]


def test_triangle_areas_stored_once():
    m = tl.build_disk_mesh(1.0, 5)
    areas = m.triangle_areas()
    assert areas is m.triangle_areas()
    assert not areas.flags.writeable
    p = m.vertices[m.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert np.array_equal(areas, 0.5 * cross)
    moved = m.replace_vertices(2.0 * m.vertices)
    assert np.allclose(moved.triangle_areas(), 4.0 * areas, rtol=1e-15)
    assert not moved.triangle_areas().flags.writeable
