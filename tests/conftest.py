"""Shared fixtures and a per-criterion summary for the acceptance suite."""

import numpy as np
import pytest

from deep_euler.ode import builtin_problems

_acceptance_results = []

# Session fixtures that train a network; nearly all of the suite's wall time.
_TRAINING_FIXTURES = {"example1_corrector", "lotka_volterra_corrector", "kepler_corrector"}


@pytest.fixture
def problems():
    return builtin_problems()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_collection_modifyitems(items):
    for item in items:
        if _TRAINING_FIXTURES.intersection(item.fixturenames):
            item.add_marker(pytest.mark.slow)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append(
            (report.nodeid.split("::")[-1], report.outcome, report.duration)
        )


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome, duration in _acceptance_results:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}  [{duration:.2f}s]")
