"""The CI gate on the tier-1 JUnit report (tools/check_tier1.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_tier1.py"
_SPEC = importlib.util.spec_from_file_location("check_tier1", _PATH)
check_tier1 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_tier1)

PASS = '<testcase classname="tests.test_x" name="test_ok" />'
BY_DESIGN = ('<testcase classname="tests.test_acceptance" '
             'name="test_08_orbit_moments_of_diagonal_seed"><failure message="x" /></testcase>')


def report(*cases):
    return "<testsuites><testsuite>" + "".join(cases) + "</testsuite></testsuites>"


def test_only_the_by_design_failure_passes_the_gate(tmp_path, capsys):
    assert check_tier1.check(report(PASS, BY_DESIGN)) == []
    path = tmp_path / "tier1.xml"
    path.write_text(report(PASS, BY_DESIGN))
    assert check_tier1.main([str(path)]) == 0


def test_other_failures_and_collection_errors_fail_the_gate():
    other = '<testcase classname="tests.test_x" name="test_bad"><failure /></testcase>'
    collect = '<testcase classname="" name="tests.test_y"><error message="collection failure" /></testcase>'
    assert check_tier1.check(report(PASS, BY_DESIGN, other)) == [
        "unexpected failure: tests.test_x::test_bad"]
    assert check_tier1.check(report(PASS, BY_DESIGN, collect)) == [
        "unexpected failure: ::tests.test_y"]


def test_by_design_test_passing_or_empty_report_fails_the_gate():
    fixed = ('<testcase classname="tests.test_acceptance" '
             'name="test_08_orbit_moments_of_diagonal_seed" />')
    assert check_tier1.check(report(PASS, fixed)) == [
        "expected failure did not fail: "
        "tests.test_acceptance::test_08_orbit_moments_of_diagonal_seed"]
    assert "the report holds no test cases" in check_tier1.check(report())
