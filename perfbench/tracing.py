"""Spans around the public functions of each torsionlab layer.

The tracer patches functions from outside the package, so nothing under
``src/`` knows about it.  ``SPAN_TARGETS`` is the one table that maps a span
name to the functions it wraps.  A function is patched in every torsionlab
module namespace that binds it (``solve_torsion`` is imported into ``shape``
and ``conformal``), methods are patched on their class, and ``solve_ivp`` and
``brentq`` are patched where ``radial_oracle`` binds them.

Spans are kept in memory as (name, start, end, parent, task, counts) and
written out as JSON lines when the run ends; every per-layer metric is
derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

# span name -> targets, each "<torsionlab module>:<qualified name>"
SPAN_TARGETS = {
    "mesh.build": ("mesh:mesh_from_spec", "mesh:build_disk_mesh",
                   "mesh:build_ellipse_mesh", "mesh:build_rectangle_mesh",
                   "mesh:map_mesh", "mesh:TriMesh.from_arrays",
                   "mesh:TriMesh.replace_vertices"),
    "mesh.triangle_areas": ("mesh:TriMesh.triangle_areas",),
    "solver.assemble": ("solver:assemble_stiffness", "solver:assemble_mass",
                        "solver:load_vector"),
    "solver.linear": ("solver:cg_solve",),
    "solver.torsion": ("solver:solve_torsion",),
    "solver.eigen": ("solver:solve_eigen",),
    "functionals.rigidity": ("functionals:rigidity",),
    "functionals.level_sets": ("functionals:level_set_profile",),
    "shape.fd_validate": ("shape:fd_validate_torsion", "shape:fd_validate_eigen"),
    "shape.deform": ("shape:deform_mesh",),
    "conformal.map_build": ("conformal:map_from_spec", "conformal:linear_map",
                            "conformal:quad_map", "conformal:cubic_map",
                            "conformal:moebius_map"),
    "conformal.image": ("conformal:rigidity_of_image",),
    "radial_oracle.shoot": ("radial_oracle:shoot_torsion",
                            "radial_oracle:shoot_eigen"),
    "radial_oracle.ivp": ("radial_oracle:solve_ivp",),
    "radial_oracle.brent": ("radial_oracle:brentq",),
    "geometry": ("geometry:metric_from_spec", "geometry:flat_metric",
                 "geometry:sphere_metric", "geometry:hyperbolic_metric",
                 "geometry:cone_metric", "geometry:user_metric",
                 "geometry:gauss_curvature", "geometry:circle_length",
                 "geometry:disk_area", "geometry:bishop_gromov_check",
                 "geometry:tau_circle_upper_bound", "geometry:flat_tau",
                 "geometry:cone_tau"),
}

_SOLVES = ("solver.torsion", "solver.eigen")

# Subcommands the workloads run; each gets its untraced wall time.
SUBCOMMANDS = ("solve", "isoperimetry", "levelsets", "schwarz", "variation",
               "monotonicity", "eigen-monotonicity", "scaling", "radial")

# Per-layer metric -> (unit, spans it is derived from).  A metric whose
# spans lost a target reads "missing".
#
# Which end-to-end metric each layer should move, and where:
#   mesh, solver      wall_s and cpu_s on fem-reference and fem-sweep, not on
#                     oracle; caching a factor per mesh also peak_rss_mb on
#                     fem-reference
#   functionals       wall_s on fem-reference (level sets)
#   shape, conformal  wall_s on fem-sweep (three solves per finite-difference
#                     check; map certification is O(n^2) in its sample grid)
#   radial_oracle,    wall_s on oracle (nearly all of it), about 2% of
#   geometry          fem-sweep, nothing on fem-reference
LAYER_METRICS = {
    "mesh.build.calls": ("count", ("mesh.build",)),
    "mesh.build.s": ("s", ("mesh.build",)),
    "mesh.triangle_areas.calls": ("count", ("mesh.triangle_areas",)),
    "mesh.triangle_areas.s": ("s", ("mesh.triangle_areas",)),
    "mesh.unknowns": ("count", _SOLVES),
    "solver.assemble.calls": ("count", ("solver.assemble",)),
    "solver.assemble.s": ("s", ("solver.assemble",)),
    "solver.linear.calls": ("count", ("solver.linear",)),
    "solver.linear.s": ("s", ("solver.linear",)),
    "solver.linear.iters": ("count", ("solver.linear",)),
    "solver.torsion.calls": ("count", ("solver.torsion",)),
    "solver.torsion.s": ("s", ("solver.torsion",)),
    "solver.torsion.self_s": ("s", ("solver.torsion",)),
    "solver.torsion.cold_iters": ("count", ("solver.torsion",)),
    "solver.torsion.warm_iters": ("count", ("solver.torsion",)),
    "solver.eigen.calls": ("count", ("solver.eigen",)),
    "solver.eigen.s": ("s", ("solver.eigen",)),
    "solver.eigen.iters": ("count", ("solver.eigen",)),
    "solver.failed": ("count", ("solver.linear",) + _SOLVES),
    "functionals.rigidity.calls": ("count", ("functionals.rigidity",)),
    "functionals.rigidity.s": ("s", ("functionals.rigidity",)),
    "functionals.level_sets.calls": ("count", ("functionals.level_sets",)),
    "functionals.level_sets.s": ("s", ("functionals.level_sets",)),
    "shape.fd_validate.calls": ("count", ("shape.fd_validate",)),
    "shape.fd_validate.s": ("s", ("shape.fd_validate",)),
    "shape.deform.calls": ("count", ("shape.deform",)),
    "shape.solves_per_validation": ("ratio", ("shape.fd_validate",) + _SOLVES),
    "conformal.map_build.calls": ("count", ("conformal.map_build",)),
    "conformal.map_build.s": ("s", ("conformal.map_build",)),
    "conformal.image.calls": ("count", ("conformal.image",)),
    "conformal.image.s": ("s", ("conformal.image",)),
    "radial_oracle.shoot.calls": ("count", ("radial_oracle.shoot",)),
    "radial_oracle.shoot.s": ("s", ("radial_oracle.shoot",)),
    "radial_oracle.ivp.calls": ("count", ("radial_oracle.ivp",)),
    "radial_oracle.ivp.nfev": ("count", ("radial_oracle.ivp",)),
    "radial_oracle.brent.calls": ("count", ("radial_oracle.brent",)),
    "geometry.calls": ("count", ("geometry",)),
    "geometry.s": ("s", ("geometry",)),
    **{f"experiments.{cmd}.s": ("s", ()) for cmd in SUBCOMMANDS},
    "trace.overhead_s": ("s", ()),
}


def _counts(name, fn, args, kwargs, result):
    """Counts recorded at the span boundary, from arguments and result."""
    counts = {}
    if name == "solver.linear" and isinstance(result, tuple) and len(result) == 2:
        counts["iters"] = result[1]
    elif name in _SOLVES:
        counts["iters"] = getattr(result, "iterations", 0)
        mesh = getattr(result, "mesh", None)
        if mesh is not None:
            counts["unknowns"] = len(mesh.vertices) - len(mesh.boundary_vertices)
        if name == "solver.torsion":
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            counts["warm"] = bound.get("initial") is not None
    elif name == "radial_oracle.ivp":
        counts["nfev"] = getattr(result, "nfev", 0)
    return counts or None


class Tracer:
    """Records one span per call of a patched function."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.task, {"failed": True}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        span[5] = _counts(name, fn, args, kwargs, result)
        return result

    def write(self, fh, round_):
        """Append the spans to ``fh`` as JSON lines tagged with ``round_``."""
        for name, start, end, parent, task, counts in self.spans:
            fh.write(json.dumps({"round": round_, "name": name, "start": start,
                                 "end": end, "parent": parent, "task": task,
                                 "counts": counts}) + "\n")


def _package_modules():
    import torsionlab

    mods = [torsionlab]
    for info in pkgutil.iter_modules(torsionlab.__path__):
        mods.append(importlib.import_module(f"torsionlab.{info.name}"))
    return mods


def _resolve(target):
    """(owner, attribute) of a target, or None if it no longer exists."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(f"torsionlab.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Patch:
    """Wraps every span target for one tracer; ``restore`` undoes it.

    ``missing`` names the spans with a target that no longer exists.
    """

    def __init__(self, tracer):
        self.missing = set()
        self._undo = []
        modules = _package_modules()
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.add(name)
                    continue
                owner, attr = found
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    self._set(owner, attr, _wrap_member(tracer, name, raw))
                    continue
                wrapped = _wrap(tracer, name, raw)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _wrap_member(tracer, name, raw):
    if isinstance(raw, classmethod):
        return classmethod(_wrap(tracer, name, raw.__func__))
    return _wrap(tracer, name, raw)


def layer_metrics(spans, missing=()):
    """Per-layer metrics of one traced pass, from its spans.

    Calls and inclusive seconds count only the outermost span of each name,
    so a mesh function that calls another mesh function counts once.  Self
    time is a span's duration minus that of its direct children.
    """
    calls, secs, counts = {}, {}, {}
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, _task, _c in spans:
        if parent is not None:
            child_s[parent] += end - start

    def ancestor_named(i, name):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    torsion_self = 0.0
    for i, (name, start, end, _parent, _task, c) in enumerate(spans):
        if ancestor_named(i, name):
            continue
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)
        c = c or {}
        if c.get("failed") and name in ("solver.linear",) + _SOLVES:
            add("solver.failed", 1)
        if name == "solver.linear":
            add("solver.linear.iters", c.get("iters", 0))
        elif name in _SOLVES:
            add("mesh.unknowns", c.get("unknowns", 0))
            if ancestor_named(i, "shape.fd_validate"):
                add("fd_solves", 1)
            if name == "solver.eigen":
                add("solver.eigen.iters", c.get("iters", 0))
            else:
                torsion_self += (end - start) - child_s[i]
                kind = "warm" if c.get("warm") else "cold"
                add(f"solver.torsion.{kind}_iters", c.get("iters", 0))
        elif name == "radial_oracle.ivp":
            add("radial_oracle.ivp.nfev", c.get("nfev", 0))

    fd_calls = calls.get("shape.fd_validate", 0)
    values = {"solver.torsion.self_s": torsion_self,
              "shape.solves_per_validation":
                  counts.get("fd_solves", 0) / fd_calls if fd_calls else 0.0}
    for metric, (_unit, sources) in LAYER_METRICS.items():
        if metric in values or not sources:
            continue
        span, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(span, 0)
        elif field == "s":
            values[metric] = secs.get(span, 0.0)
        else:
            values[metric] = counts.get(metric, 0)
    for metric, (_unit, sources) in LAYER_METRICS.items():
        if any(s in missing for s in sources):
            values[metric] = "missing"
    return values
