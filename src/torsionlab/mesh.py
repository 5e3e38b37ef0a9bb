"""Conforming P1 triangulations of the reference domains.

Triangles are stored counterclockwise; boundary edges are recovered from
the triangle list (an edge on the boundary appears in exactly one triangle)
and kept in counterclockwise order around the domain, so the outward normal
of a boundary edge (a, b) is the tangent rotated by -90 degrees.  Meshes
are immutable once built: the coordinate and index arrays, and the triangle
areas computed for the orientation check, are write-locked.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import DomainError


def _checked_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed triangle areas; raises ValueError unless every coordinate is
    finite, every area is too, and every triangle is counterclockwise and
    not degenerate."""
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    p = vertices[triangles]
    with np.errstate(over="ignore", invalid="ignore"):
        areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                       - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        floor = 1e-14 * np.square(np.abs(vertices).max())
    if not (np.isfinite(floor) and np.all(np.isfinite(areas))):
        raise ValueError("mesh coordinates too large")
    if np.any(areas <= floor):
        raise ValueError(
            f"all triangles must have positive area; min signed area "
            f"{areas.min():.3e}"
        )
    return areas


def _longest_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    d = vertices[triangles[:, [1, 2, 0]]]
    d -= vertices[triangles]
    return float(np.hypot(d[..., 0], d[..., 1]).max())


def _unpaired_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """Mask of the directed edges (a, b) whose twin (b, a) is absent.

    Raises ValueError if a directed edge appears twice.  One sort and one
    sorted search find the twins without the temporaries of a set test.
    """
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("nonconforming mesh: a directed edge appears twice")
    rev = edges[:, 1] * n + edges[:, 0]
    pos = np.minimum(np.searchsorted(keys, rev), len(keys) - 1)
    return keys[pos] != rev


@dataclasses.dataclass(frozen=True, eq=False)
class Topology:
    """The combinatorics of a mesh, which its
    :meth:`TriMesh.replace_vertices` copies share.

    ``boundary_edges`` lists directed vertex pairs in counterclockwise loop
    order and ``boundary_edge_tri`` the index of the unique triangle touching
    each of them.  Compared and hashed by identity, so that what depends on
    the combinatorics alone is computed once per topology: the interior
    vertices here, the edge numbering of the solver's operator there.
    """

    n_vertices: int
    triangles: np.ndarray
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray
    boundary_edge_tri: np.ndarray

    def __post_init__(self):
        for arr in (self.triangles, self.boundary_vertices,
                    self.boundary_edges, self.boundary_edge_tri):
            arr.setflags(write=False)

    @functools.cached_property
    def interior_vertices(self) -> np.ndarray:
        interior = np.setdiff1d(np.arange(self.n_vertices),
                                self.boundary_vertices)
        interior.setflags(write=False)
        return interior


@dataclasses.dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangulated planar domain: vertices on a :class:`Topology`.

    ``areas`` is the (positive) area of each triangle and ``h`` the longest
    edge in the mesh, computed on first use.  Compared and hashed by
    identity, so that the solver can keep a mesh's operator while it lives.
    """

    vertices: np.ndarray
    topology: Topology = dataclasses.field(repr=False)
    areas: np.ndarray = dataclasses.field(repr=False)

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.areas.setflags(write=False)

    triangles = property(lambda self: self.topology.triangles)
    boundary_vertices = property(lambda self: self.topology.boundary_vertices)
    boundary_edges = property(lambda self: self.topology.boundary_edges)
    boundary_edge_tri = property(lambda self: self.topology.boundary_edge_tri)
    interior_vertices = property(lambda self: self.topology.interior_vertices)

    @functools.cached_property
    def h(self) -> float:
        return _longest_edge(self.vertices, self.triangles)

    @classmethod
    def from_arrays(cls, vertices, triangles) -> "TriMesh":
        """Validate raw arrays and derive boundary structure; the mesh keeps
        read-only copies of them.

        Raises ValueError for non-finite coordinates, inverted triangles,
        nonconforming edge use, or a boundary that does not close up into
        loops.
        """
        # copies, so that locking them leaves the caller's arrays writeable
        verts = np.array(vertices, dtype=float, order="C")
        tris = np.array(triangles, dtype=np.int64, order="C")
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        n = len(verts)
        if tris.size and (tris.min() < 0 or tris.max() >= n):
            raise ValueError("triangle indices out of range")

        areas = _checked_areas(verts, tris)

        # directed edges; a conforming orientable mesh uses each at most once
        edges = tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        is_boundary = _unpaired_edges(edges, n)
        b_edges = edges[is_boundary]
        b_tris = np.flatnonzero(is_boundary) // 3  # edge row r is in triangle r // 3

        # assemble loops; every boundary vertex must have exactly one
        # outgoing and one incoming boundary edge
        succ = {}
        edge_ix = {}
        for ix, (a, b) in enumerate(b_edges):
            if a in succ:
                raise ValueError("boundary is not a union of simple closed loops")
            succ[int(a)] = int(b)
            edge_ix[int(a)] = ix
        if set(succ.values()) != set(succ.keys()):
            raise ValueError("boundary is not a union of simple closed loops")
        ordered = []
        seen = set()
        for start in sorted(succ):
            if start in seen:
                continue
            v = start
            while True:
                ordered.append(edge_ix[v])
                seen.add(v)
                v = succ[v]
                if v == start:
                    break
                if v in seen:
                    raise ValueError("boundary loops intersect")
        ordered = np.asarray(ordered, dtype=np.int64)

        topology = Topology(
            n_vertices=n,
            triangles=tris,
            boundary_vertices=np.unique(b_edges),
            boundary_edges=np.ascontiguousarray(b_edges[ordered]),
            boundary_edge_tri=np.ascontiguousarray(b_tris[ordered]),
        )
        return cls(vertices=verts, topology=topology, areas=areas)

    def triangle_areas(self) -> np.ndarray:
        return self.areas

    def replace_vertices(self, new_vertices) -> "TriMesh":
        """Same combinatorics on a read-only copy of the moved vertices,
        sharing this mesh's :class:`Topology`; revalidates orientation."""
        new_verts = np.array(new_vertices, dtype=float, order="C")
        if new_verts.shape != self.vertices.shape:
            raise ValueError("replacement vertices must match the existing shape")
        areas = _checked_areas(new_verts, self.triangles)
        return TriMesh(vertices=new_verts, topology=self.topology, areas=areas)


def boundary_geometry(mesh: TriMesh):
    """Midpoints, outward unit normals and lengths of the boundary edges."""
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    tangent = b - a
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    return 0.5 * (a + b), normals, lengths


def _ring_start(k):
    return 1 + 3 * k * (k - 1)


def _disk_triangles(n: int) -> np.ndarray:
    """Triangle list of the n-ring disk: the centre fan, then ring by ring.

    Triangles 6(k-1)^2 .. 6k^2 - 1 join rings k-1 and k; in sector s, strip
    position q = 2j is (o1, o2, i1) and q = 2j + 1 is (i1, o2, i2).
    """
    ks = np.arange(2, n + 1)
    k = np.repeat(ks, 6 * (2 * ks - 1))
    s, q = np.divmod(np.arange(6, 6 * n * n) - 6 * (k - 1) ** 2, 2 * k - 1)
    j, odd = np.divmod(q, 2)
    o0, i0 = _ring_start(k), _ring_start(k - 1)
    o1 = o0 + (s * k + j) % (6 * k)
    o2 = o0 + (s * k + j + 1) % (6 * k)
    i1 = i0 + (s * (k - 1) + j) % (6 * (k - 1))
    i2 = i0 + (s * (k - 1) + j + 1) % (6 * (k - 1))
    strips = np.where(odd[:, None] == 1, np.column_stack([i1, o2, i2]),
                      np.column_stack([o1, o2, i1]))
    m = np.arange(6)
    fan = np.column_stack([np.zeros(6, dtype=np.int64), 1 + m, 1 + (m + 1) % 6])
    return np.vstack([fan, strips])


def build_disk_mesh(radius: float, n_rings: int) -> TriMesh:
    """Concentric-ring triangulation of a disk.

    Ring k holds 6k vertices at radius k/n_rings * radius, giving
    1 + 3n(n+1) vertices and 6n^2 triangles; ring n lies exactly on the
    circle.  Each of the six sectors between consecutive rings is stitched
    with an alternating strip of 2k-1 triangles.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if n_rings < 2:
        raise ValueError(f"n_rings must be at least 2, got {n_rings}")
    n = int(n_rings)
    # vertex v of ring k sits at angle 2 pi v / (6k), radius k/n * radius
    ring = np.repeat(np.arange(1, n + 1), 6 * np.arange(1, n + 1))
    slot = np.arange(1, len(ring) + 1) - _ring_start(ring)
    ang = 2.0 * np.pi * slot / (6 * ring)
    rk = radius * ring / n
    verts = np.vstack([np.zeros((1, 2)),
                       np.column_stack([rk * np.cos(ang), rk * np.sin(ang)])])
    return TriMesh.from_arrays(verts, _disk_triangles(n))


def build_ellipse_mesh(a: float, b: float, n_rings: int) -> TriMesh:
    """Disk mesh scaled onto the ellipse with semi-axes a, b."""
    if not (0.0 < a < np.inf and 0.0 < b < np.inf):
        raise ValueError(f"semi-axes must be positive and finite, got a={a}, b={b}")
    disk = build_disk_mesh(1.0, n_rings)
    return TriMesh.from_arrays(disk.vertices * np.array([a, b]), disk.triangles)


def build_rectangle_mesh(w: float, h: float, nx: int, ny: int) -> TriMesh:
    """Structured rectangle [0,w]x[0,h] split into 2*nx*ny triangles."""
    if not (0.0 < w < np.inf and 0.0 < h < np.inf):
        raise ValueError(f"side lengths must be positive and finite, got {w}, {h}")
    if nx < 1 or ny < 1:
        raise ValueError(f"nx, ny must be at least 1, got {nx}, {ny}")
    xs = np.linspace(0.0, w, nx + 1)
    ys = np.linspace(0.0, h, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    verts = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) with lower-left vertex v splits along its rising diagonal
    v = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    tris = np.column_stack([v, v + 1, v + nx + 2, v, v + nx + 2, v + nx + 1])
    return TriMesh.from_arrays(verts, tris.reshape(-1, 3))


def map_mesh(mesh: TriMesh, cmap) -> TriMesh:
    """Push a mesh forward through a conformal map.

    Every vertex must lie strictly inside the map's certified univalence
    disk; the image is a :meth:`TriMesh.replace_vertices` copy, which keeps
    the combinatorics and revalidates orientation.
    """
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    rad = np.abs(z)
    if np.any(rad >= cmap.univalence_radius):
        raise DomainError(
            f"mesh reaches radius {rad.max():g}, outside the univalence "
            f"radius {cmap.univalence_radius:g} of map {cmap.name!r}"
        )
    fz = cmap.eval(z)
    return mesh.replace_vertices(np.column_stack([fz.real, fz.imag]))


def save_mesh(mesh: TriMesh, path: str) -> None:
    """Write the text format: one "v x y" line per vertex, "t i j k" per triangle."""
    with open(path, "w") as fh:
        for x, y in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"t {int(i)} {int(j)} {int(k)}\n")


def load_mesh(path: str) -> TriMesh:
    verts, tris = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "v" and len(fields) == 3:
                verts.append((float(fields[1]), float(fields[2])))
            elif fields[0] == "t" and len(fields) == 4:
                tris.append((int(fields[1]), int(fields[2]), int(fields[3])))
            else:
                raise ValueError(f"{path}:{lineno}: unrecognized mesh line {line!r}")
    if not verts or not tris:
        raise ValueError(f"{path}: mesh file holds no vertices or no triangles")
    return TriMesh.from_arrays(np.asarray(verts), np.asarray(tris, dtype=np.int64))


def mesh_from_spec(spec: str) -> TriMesh:
    """Build a mesh from a registry string.

    Forms: ``disk:R:n``, ``ellipse:a:b:n``, ``rect:w:h:nx:ny``,
    ``file:<path>``, ``image:<mapspec>:R:n`` (mapspec may itself contain
    colons, e.g. ``image:quad:0.2:0.9:40``; R must lie strictly below the
    map's univalence radius).  A ``file:`` path that cannot be read raises
    its OSError.
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "disk":
            r, n = rest.split(":")
            return build_disk_mesh(float(r), int(n))
        if kind == "ellipse":
            a, b, n = rest.split(":")
            return build_ellipse_mesh(float(a), float(b), int(n))
        if kind == "rect":
            w, h, nx, ny = rest.split(":")
            return build_rectangle_mesh(float(w), float(h), int(nx), int(ny))
        if kind == "file":
            return load_mesh(rest)
        if kind == "image":
            mapspec, r, n = rest.rsplit(":", 2)
            from . import conformal

            base = build_disk_mesh(float(r), int(n))
            return map_mesh(base, conformal.map_from_spec(mapspec))
    except (ValueError, DomainError, OSError):
        raise
    except Exception as exc:
        raise ValueError(f"unrecognized mesh spec {spec!r}") from exc
    raise ValueError(f"unrecognized mesh spec {spec!r}")
