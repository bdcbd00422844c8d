import re

import pytest

import conftest

pytest.importorskip("resource")


class Reporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


def test_terminal_summary_reports_peak_rss_to_the_step_summary(tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    summary.write_text("src/ lines: 1\n")
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    reporter = Reporter()
    conftest.pytest_terminal_summary(reporter)
    assert len(reporter.lines) == 1
    assert re.fullmatch(r"peak RSS of this pytest run: \d+ MB \(ru_maxrss\)", reporter.lines[0])
    assert summary.read_text() == f"src/ lines: 1\n{reporter.lines[0]}\n"


def test_unwritable_step_summary_does_not_fail_the_run(tmp_path, monkeypatch):
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(tmp_path / "missing" / "summary.md"))
    reporter = Reporter()
    conftest.pytest_terminal_summary(reporter)
    assert reporter.lines[1].startswith("could not append to GITHUB_STEP_SUMMARY")
