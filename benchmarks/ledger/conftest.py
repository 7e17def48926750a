"""Pytest wiring for the ledger's own harness tests."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def bench_json():
    """Override ``benchmarks/conftest.py``'s autouse fixture with a no-op.

    The ledger's tests are unit tests of the harness, not benches: they
    must not leave ``benchmarks/results/BENCH_<test-name>.json`` behind.
    """
    yield {}
