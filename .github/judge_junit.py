"""Judge a JUnit XML report by the set of tests that fail in it.

    python .github/judge_junit.py REPORT.xml [EXPECTED_ID ...]

Exits 0 when the failed or errored tests are exactly the EXPECTED_IDs
(pytest node IDs such as tests/test_x.py::test_y) and no test was skipped,
else 1.  A test step whose known failure makes pytest exit 1 writes the
report, and this judges it.  In CI nothing may skip: the runner is Linux
and the package is installed, so a skip means a test did not run.
"""

import sys
import xml.etree.ElementTree as ET

path, *expected = sys.argv[1:]
failed, skipped = set(), set()
for case in ET.parse(path).iter("testcase"):
    # a collection error has no classname; its name is the module
    cls, name = case.get("classname"), case.get("name")
    node = f"{cls.replace('.', '/')}.py::{name}" if cls else name
    if case.find("failure") is not None or case.find("error") is not None:
        failed.add(node)
    if case.find("skipped") is not None:
        skipped.add(node)
print("failed:", *sorted(failed), sep="\n  ")
print("skipped:", *sorted(skipped), sep="\n  ")
if failed != set(expected):
    sys.exit(f"expected exactly {sorted(expected)} to fail")
if skipped:
    sys.exit(f"expected no test to skip, {len(skipped)} did")
