"""Fixtures every test module shares."""

import pytest

from wallcrystal import adapted_sequence


@pytest.fixture(autouse=True)
def fresh_sequences():
    """Drop the interned sequences before each test, with the tables and
    wall-to-form maps they keep, so that no earlier test's map answers
    for a wall layer a test has patched, and counts of builds start at
    zero."""
    adapted_sequence._interned.cache_clear()
