"""Gate the tier-1 test run on its JUnit XML report.

    python -m pytest --junitxml=tier1.xml ...
    python tools/check_tier1.py tier1.xml

Exits 0 only when the run collected tests without errors and the set of
failing tests is exactly EXPECTED_FAILURES.  test_08 asserts a stated
covariance form that no covariance can match (see README), so it must keep
failing; any other failure, error or collection error, and any change in
the expected set (including test_08 passing), fails the gate.  Nothing is
skipped or deselected to get there.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = frozenset({"tests.test_acceptance::test_08_orbit_moments_of_diagonal_seed"})


def outcomes(xml_text: str) -> tuple[set[str], int]:
    """Ids (classname::name) of failed or errored test cases, and the case count."""
    root = ET.fromstring(xml_text)
    failing, total = set(), 0
    for case in root.iter("testcase"):
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(f"{case.get('classname', '')}::{case.get('name', '')}")
    return failing, total


def check(xml_text: str) -> list[str]:
    """Problems with the run; empty when the gate passes."""
    failing, total = outcomes(xml_text)
    problems = []
    if total == 0:
        problems.append("the report holds no test cases")
    for name in sorted(failing - EXPECTED_FAILURES):
        problems.append(f"unexpected failure: {name}")
    for name in sorted(EXPECTED_FAILURES - failing):
        problems.append(f"expected failure did not fail: {name}")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: check_tier1.py REPORT.xml", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        problems = check(fh.read())
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"tier-1 ok: only {', '.join(sorted(EXPECTED_FAILURES))} fails, as designed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
