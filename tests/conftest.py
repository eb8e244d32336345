"""The acceptance report: one line per criterion, shown in the terminal summary."""

import pytest

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion_report():
    """Record one pass/fail line per acceptance criterion, then assert."""

    def _report(num, title, ok, detail=""):
        line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}  {detail}"
        acceptance_lines.append(line)
        print(line)
        assert ok, line

    return _report
