"""Full acceptance battery, one test per criterion.

The battery is computed once per session (it solves on fine meshes and
takes a couple of minutes); each test then asserts its criterion and
prints the one-line verdict, so -s shows the same table the CLI prints.
"""

import pytest

from torsionlab import experiments, solver


@pytest.fixture(scope="session")
def acceptance_report():
    # the solver keeps the float32 factor of the last topology solved on:
    # 14 factorisations a pass, where one for each solve outside an fd
    # check or a sweep, and one for each of those, would make 24
    factors = []
    factor = solver._factor

    def counting(K):
        factors.append(K.shape)
        return factor(K)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_factor", counting)
        report = experiments.run_acceptance()
    assert len(factors) <= 28
    return report


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
