"""Tier-1 gate: pass only when the one failing test is criterion 4.

    python .github/scripts/tier1_gate.py tier1.xml

Reads the junit XML that `pytest --junitxml` wrote.  Acceptance criterion 4
(`test_criterion_4_hom_vanishing_table`) fails on purpose: it records the
finding against the paper's Hom-vanishing claim.  The gate exits 1 when any
other test fails or errors (collection errors included), when criterion 4
passes, is skipped or is missing, or when no test ran; otherwise 0.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = "tests.test_acceptance::test_criterion_4_hom_vanishing_table"


def outcomes(path: str) -> dict:
    """Test id -> 'passed', 'failed' or 'skipped'."""
    out = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        classname, name = case.get("classname", ""), case.get("name", "")
        test_id = f"{classname}::{name}" if classname else name
        if case.find("failure") is not None or case.find("error") is not None:
            out[test_id] = "failed"
        elif case.find("skipped") is not None:
            out[test_id] = "skipped"
        else:
            out[test_id] = "passed"
    return out


def verdict(results: dict) -> list[str]:
    """The reasons to go red; empty when the run is as expected."""
    problems = []
    if not results:
        problems.append("no test ran")
    for test_id, outcome in sorted(results.items()):
        if outcome == "failed" and test_id != EXPECTED_FAILURE:
            problems.append(f"unexpected failure: {test_id}")
    expected = results.get(EXPECTED_FAILURE)
    if expected != "failed":
        problems.append(f"{EXPECTED_FAILURE} should fail, got {expected or 'missing'}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: tier1_gate.py JUNIT_XML", file=sys.stderr)
        return 2
    results = outcomes(argv[0])
    counts = {k: list(results.values()).count(k)
              for k in ("passed", "failed", "skipped")}
    print(", ".join(f"{v} {k}" for k, v in counts.items()))
    problems = verdict(results)
    for line in problems:
        print(f"tier1 gate: {line}")
    if not problems:
        print("tier1 gate: ok (only criterion 4 fails, as it should)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
