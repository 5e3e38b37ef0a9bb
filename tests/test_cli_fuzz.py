"""Fuzz of the spec parsers through ``experiments.main``.

Every draw is a well-formed command line whose spec strings and numbers may
be nan, inf, zero, negative or garbage.  Whatever the input, the CLI must
answer with a verdict (exit 0 or 1), a usage error (2) or a numerical
failure (3), the last two as one ``error:`` line and never as a traceback
or an internal error (4).  Ring, cell and grid counts stay small so that no
draw builds a large mesh.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import experiments

# Valid values are repeated, and each spec also has a branch of valid
# specs, so that about half of the draws get past the parsers and reach the
# solvers; the rest are non-finite, zero, negative or garbage.
_VALID = ("0.5", "1", "0.3", "2", "0.9", "3", "0") * 4
_BAD = ("nan", "inf", "-inf", "-0", "-1", "-0.5", "1e-9")
_GARBAGE = ("", "abc", ",", ":", "1,", "0x1", "--", "1:2")

num = st.sampled_from(_VALID + _BAD)
token = st.sampled_from(_VALID + _BAD + _GARBAGE)
count = st.sampled_from(("2", "3", "5", "12") * 3 + ("nan", "abc", "-3", "0",
                                                      "1"))
small_count = st.sampled_from(("2", "3", "4") * 2 + ("0", "1"))
n_rings = st.sampled_from(("2", "5", "12") * 2 + ("0", "1"))


def _join(*parts):
    return st.tuples(*parts).map(":".join)


complex_param = st.one_of(token, st.tuples(token, token).map(",".join))
maps = st.one_of(
    st.sampled_from(("quad:0.2", "linear:2", "cubic:0.1,0.1", "moebius:0.3",
                     "linear:1:0.5")),
    _join(st.sampled_from(("linear", "quad", "cubic", "moebius")),
          complex_param),
    _join(st.just("linear"), complex_param, complex_param),
    token,
)
meshes = st.one_of(
    st.sampled_from(("disk:1:8", "ellipse:1:0.5:6", "rect:1:2:6:4",
                     "image:quad:0.2:0.8:6")),
    _join(st.just("disk"), token, count),
    _join(st.just("ellipse"), token, token, count),
    _join(st.just("rect"), token, token, count, count),
    _join(st.just("image"), maps, token, count),
    st.sampled_from(("file:/nonexistent/mesh.txt", "disk", "disk:1", "")),
    token,
)
metrics = st.one_of(
    st.sampled_from(("flat", "sphere", "hyperbolic", "cone:0.5",
                     "cone:0.25:0.02")),
    st.sampled_from(("user:/nonexistent", "cone", "flat:1")),
    _join(st.just("cone"), token),
    _join(st.just("cone"), token, token),
    token,
)
flows = st.one_of(
    st.sampled_from(("radial", "stretch-x", "translate", "translate:1")),
    st.tuples(token, token).map(lambda p: f"translate:{p[0]},{p[1]}"),
    token,
)
grids = st.one_of(
    st.sampled_from(("0.5:2:3", "0.2:0.8:3", "0.5,1", "0.3,0.6")),
    _join(token, token, small_count),
    st.lists(token, min_size=0, max_size=3).map(",".join),
)


def _opt(flag, values):
    # --flag=value keeps a value such as -inf from reading as an option
    return values.map(lambda v: f"--{flag}={v}")


argvs = st.one_of(
    st.tuples(st.just("solve"), _opt("mesh", meshes), _opt("gamma", num)),
    st.tuples(st.just("isoperimetry"), _opt("mesh", meshes),
              _opt("tau", num)),
    st.tuples(st.just("eigen-isoperimetry"), _opt("mesh", meshes)),
    st.tuples(st.just("levelsets"), _opt("mesh", meshes),
              _opt("levels", st.sampled_from(("-1", "0", "1", "5")))),
    st.tuples(st.just("variation"), _opt("mesh", meshes), _opt("flow", flows),
              _opt("gamma", num),
              st.sampled_from(("--h=nan", "--h=0", "--h=-1e-3", "--h=1e-3",
                               "--h=inf", "--eigen"))),
    st.tuples(st.just("radial"), _opt("metric", metrics), _opt("gamma", num),
              _opt("radius", num)),
    st.tuples(st.just("monotonicity"), _opt("metric", metrics),
              _opt("grid", grids), _opt("gamma", num)),
    st.tuples(st.just("eigen-monotonicity"), _opt("metric", metrics),
              _opt("grid", grids), _opt("tau", num)),
    st.tuples(st.just("scaling"), _opt("metric", st.just("flat") | metrics),
              _opt("radii", grids), _opt("base-radius", num)),
    st.tuples(st.just("schwarz"), _opt("map", maps), _opt("grid", grids),
              _opt("n-rings", n_rings), _opt("gamma", num)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs)
def test_cli_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = experiments.main(list(argv))
    stdout, stderr = out.getvalue(), err.getvalue()
    assert "Traceback" not in stderr
    assert code in (0, 1, 2, 3), stderr
    if code in (0, 1):
        assert json.loads(stdout)["pass"] is (code == 0)
    else:
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
