"""Shared test data."""

import pytest


@pytest.fixture
def mp_work_grid():
    """72 (p, x) points for M_p's named integral, x^p underflowing at 16."""
    return [
        (p, x)
        for p in (0.05, 0.2, 0.5, 2.0, 3.0, 7.0, 20.0, 60.0, 200.0)
        for x in (0.9, 0.5, 0.1, 1e-3, 1e-10, 1e-30, 1e-100, 1e-300)
    ]
