"""Per-criterion pass/fail reporting for the acceptance suite."""

import re
import threading

import pytest

CRITERIA = {
    1: "case-study golden bags, frequencies, and scores",
    2: "XOR learnability within 200 epochs",
    3: "word-score separation on the synthetic corpus",
    4: "logistic discrimination: clause scores vs TF-IDF",
    5: "TF-IDF brute-force oracle equivalence",
    6: "contextual score ordering for planted collocations",
    7: "determinism and randomized property suite",
    8: "real-dataset loaders and full profile (smoke only)",
}


@pytest.fixture(autouse=True)
def no_worker_thread_left():
    """Fail a test that leaves a ``tmnovelty-*`` worker thread of its own alive."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.name.startswith("tmnovelty-")]
    if leaked:
        pytest.fail(f"worker thread(s) left alive: {', '.join(sorted(leaked))}")


_NODE_RE = re.compile(r"test_acceptance\.py::.*test_c(\d+)")
_outcomes: dict[int, list[tuple[str, str]]] = {}


def pytest_runtest_logreport(report):
    match = _NODE_RE.search(report.nodeid)
    if not match:
        return
    criterion = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        outcome = report.outcome
        if hasattr(report, "wasxfail") and report.skipped:
            outcome = "xfailed"
        _outcomes.setdefault(criterion, []).append((report.nodeid, outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for criterion in sorted(_outcomes):
        entries = _outcomes[criterion]
        outcomes = {outcome for _, outcome in entries}
        if "failed" in outcomes or "error" in outcomes:
            status = "FAIL"
        elif outcomes <= {"skipped"}:
            status = "SKIP"
        else:
            status = "PASS"
        note = ""
        if "xfailed" in outcomes and status == "PASS":
            note = " (one documented golden-value discrepancy, see xfail)"
        if "skipped" in outcomes and status == "PASS":
            note += " (smoke part skipped: dataset not available)"
        terminalreporter.write_line(
            f"  criterion {criterion} [{CRITERIA[criterion]}]: {status}{note}"
        )
