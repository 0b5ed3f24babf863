"""The test suite's own tolerances.

A ``pytest.approx(expected, rel=r)`` with no ``abs=`` keeps approx's
default absolute tolerance of 1e-12, which swamps any relative one at or
below 1e-12 for an expected value near 1 or below: such a check says less
than it reads. Every call that tight states its ``abs=``.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent


def _offenders(tree):
    """Line numbers of approx calls with rel <= 1e-12 (or a rel that is
    not a literal number) and no abs keyword."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if name != "approx" or "rel" not in keywords or "abs" in keywords:
            continue
        try:
            rel = ast.literal_eval(keywords["rel"])
        except ValueError:
            rel = 0.0
        if rel <= 1e-12:
            lines.append(node.lineno)
    return lines


def test_the_audit_sees_a_tight_rel_without_abs():
    tree = ast.parse("pytest.approx(1.0, rel=1e-13)\n"
                     "approx(2.0, rel=tol)\n"
                     "pytest.approx(1.0, rel=1e-13, abs=0)\n"
                     "pytest.approx(1.0, rel=1e-9)\n")
    assert _offenders(tree) == [1, 2]


def test_tight_relative_approx_states_its_absolute_tolerance():
    found = [f"{path.name}:{line}"
             for path in sorted(TESTS.glob("*.py"))
             for line in _offenders(ast.parse(path.read_text(), str(path)))]
    assert not found, found
