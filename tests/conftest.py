"""Shared test plumbing: a pass/fail line per acceptance criterion.

Acceptance tests call ``record_criterion`` with their outcome; the summary
lines are printed after the run so a green/red status per criterion is
visible even when pytest captures stdout. Hypothesis keeps its files in a
temporary directory for the session, so a run leaves no ``.hypothesis/``.
"""

import shutil
import tempfile

_CRITERION_RESULTS = []
_HYPOTHESIS_HOME = []


def pytest_configure(config):
    # Hypothesis caches constants it reads from the code under test even
    # with database=None; point its storage away from the working tree.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    _HYPOTHESIS_HOME.append(tempfile.mkdtemp(prefix="hypothesis-"))
    set_hypothesis_home_dir(_HYPOTHESIS_HOME[-1])


def pytest_unconfigure(config):
    for path in _HYPOTHESIS_HOME:
        shutil.rmtree(path, ignore_errors=True)


def record_criterion(name, passed, detail=""):
    _CRITERION_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERION_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
