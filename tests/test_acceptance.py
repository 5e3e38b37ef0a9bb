"""Full acceptance battery, one test per criterion.

The battery is computed once per session (it solves on fine meshes and
takes a couple of minutes); each test then asserts its criterion and
prints the one-line verdict, so -s shows the same table the CLI prints.
"""

import pytest

from torsionlab import experiments, mesh_from_spec, shape, solver


@pytest.fixture(scope="session")
def acceptance_run():
    # the solver keeps the float32 factor of the last topology solved on:
    # 14 factorisations a pass, where one for each solve outside an fd
    # check or a sweep, and one for each of those, would make 24
    factors = []
    factor = solver._factor
    # the vertex counts of the meshes whose operators are alive as c08's
    # eigenvalue check starts, once a pass
    live_at_c08 = []
    fd_validate_eigen = shape.fd_validate_eigen

    def counting(K):
        factors.append(K.shape)
        return factor(K)

    def recording(mesh, *args, **kwargs):
        live_at_c08.append(sorted(len(m.vertices) for m in solver._OPERATORS))
        return fd_validate_eigen(mesh, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_factor", counting)
        mp.setattr(shape, "fd_validate_eigen", recording)
        report = experiments.run_acceptance()
    assert len(factors) <= 28
    return report, live_at_c08


@pytest.fixture(scope="session")
def acceptance_report(acceptance_run):
    return acceptance_run[0]


def _assert_criterion(report, num):
    crit = next(c for c in report["criteria"] if c["id"] == f"criterion-{num:02d}")
    status = "PASS" if crit["pass"] else "FAIL"
    print(f"{crit['id']} {status} - {crit['title']}")
    if not crit["pass"]:
        failed = [c for c in crit["checks"] if not c["pass"]]
        detail = ", ".join(
            f"{c['name']}: {c['measured']:.3e} > {c['tolerance']:.3e}"
            for c in failed)
        pytest.fail(f"{crit['id']} failed: {detail}")


def test_criterion_01_reference_disk(acceptance_report):
    _assert_criterion(acceptance_report, 1)


def test_criterion_02_two_form_agreement(acceptance_report):
    _assert_criterion(acceptance_report, 2)


def test_criterion_03_isoperimetric_ratio(acceptance_report):
    _assert_criterion(acceptance_report, 3)


def test_criterion_04_eigen_isoperimetry(acceptance_report):
    _assert_criterion(acceptance_report, 4)


def test_criterion_05_green_identity(acceptance_report):
    _assert_criterion(acceptance_report, 5)


def test_criterion_06_level_sets(acceptance_report):
    _assert_criterion(acceptance_report, 6)


def test_criterion_07_torsion_variation(acceptance_report):
    _assert_criterion(acceptance_report, 7)


def test_criterion_08_eigen_variation(acceptance_report):
    _assert_criterion(acceptance_report, 8)


def test_criterion_09_scaling_law(acceptance_report):
    _assert_criterion(acceptance_report, 9)


def test_criterion_10_torsion_monotonicity(acceptance_report):
    _assert_criterion(acceptance_report, 10)


def test_criterion_11_eigen_monotonicity(acceptance_report):
    _assert_criterion(acceptance_report, 11)


def test_criterion_12_conformal_ratio(acceptance_report):
    _assert_criterion(acceptance_report, 12)


def test_criterion_13_determinism(acceptance_report):
    _assert_criterion(acceptance_report, 13)
    assert acceptance_report["pass"] is True


def test_pass_drops_the_meshes_no_criterion_reads(acceptance_run):
    # c02, c03 and c05 read only the rigidity reports of the ellipse and the
    # square, so neither mesh, nor its operator, outlives the reference
    # solves; c08, the battery's peak, starts without them
    _, live_at_c08 = acceptance_run
    dropped = {len(mesh_from_spec(spec).vertices)
               for spec in (experiments._ELLIPSE_SPEC,
                            experiments._SQUARE_SPEC)}
    assert len(live_at_c08) == 2  # once in each pass
    for sizes in live_at_c08:
        assert sizes and not dropped & set(sizes)
