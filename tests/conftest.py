"""Shared fixtures and reporting hooks for the test suite."""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, Phase, settings

from urnsa import ReplacementMatrix

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# scripts/mutations.py loads this one (--hypothesis-profile=ledger): a
# mutation only needs to know that a property fails, not its smallest
# failing example, so the ledger skips the shrink phase and its explain
settings.register_profile(
    "ledger",
    settings.get_profile("suite"),
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
settings.load_profile("suite")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-minute Monte Carlo acceptance criteria"
    )


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


# session scope keeps the frozen matrices usable inside @given tests
@pytest.fixture(scope="session")
def toy_matrix() -> ReplacementMatrix:
    """Root-n CLT regime with predicted variance 1/252."""
    return ReplacementMatrix(4, 5, 3, 2)


@pytest.fixture(scope="session")
def critical_matrix() -> ReplacementMatrix:
    """Critical log-scaled CLT regime with predicted variance 1/16."""
    return ReplacementMatrix(3, 1, 1, 3)


@pytest.fixture(scope="session")
def power_law_matrix() -> ReplacementMatrix:
    """Almost-sure power-law regime with exponent 2/5."""
    return ReplacementMatrix(3, 0, 2, 5)
