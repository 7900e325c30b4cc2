"""Shared pytest configuration for the test suite."""

import pytest
from hypothesis import HealthCheck, settings

# Simulation-backed property tests do nontrivial work per example; wall
# clock deadlines only add flakiness on loaded CI machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# The chaos soak job's budget (CI: ``--hypothesis-profile=soak``).  A
# property that sizes itself from the profile in force — see
# tests/test_chaos_conformance.py — draws twenty times tier-1's fault
# schedules under it; nothing else in the suite changes.
settings.register_profile(
    "soak", parent=settings.get_profile("repro"), max_examples=2000)


def pytest_collection_modifyitems(config, items):
    """The ``claims`` soak runs every cheap experiment ten times over:
    its items are skipped unless ``-m`` names the marker."""
    if "claims" in config.getoption("markexpr"):
        return
    skip = pytest.mark.skip(reason="claims soak: select with -m claims")
    for item in items:
        if "claims" in item.keywords:
            item.add_marker(skip)
