import pytest

from oppaccess import dp


@pytest.fixture(autouse=True)
def empty_tables():
    """Start every test from empty process tables, so it reads and counts only its own."""
    dp._TABLES.clear()
