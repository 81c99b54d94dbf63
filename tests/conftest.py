"""Suite-wide fixtures: deterministic hypothesis profile and the
acceptance-criteria reporter (one pass/fail line per criterion at the
end of the run)."""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

# the shared oracles check with `assert`; rewritten like the test modules,
# those checks still run under `python -O`
pytest.register_assert_rewrite("support")

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_CRITERIA: dict[float, tuple[str, str]] = {}


@contextmanager
def criterion(number: float, description: str, budget: float | None = None):
    """Record a pass/fail line for one acceptance criterion.  The body
    holds the checks; any escaping exception marks the criterion failed
    (and still propagates so pytest reports it).  A budget in seconds is
    enforced as part of the criterion."""
    begin = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - begin
        if budget is not None and elapsed > budget:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    except BaseException as exc:
        elapsed = time.perf_counter() - begin
        _CRITERIA[number] = ("FAIL", f"{description} [{elapsed:.2f}s] ({exc!r:.120})")
        raise
    else:
        _CRITERIA[number] = ("PASS", f"{description} [{elapsed:.2f}s]")


@pytest.fixture
def record_criterion():
    return criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_CRITERIA):
        status, text = _CRITERIA[key]
        label = f"{key:g}"
        terminalreporter.write_line(f"criterion {label:>4}: {status} - {text}")
