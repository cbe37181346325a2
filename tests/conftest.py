import pytest

from oppaccess import sim


@pytest.fixture(autouse=True)
def empty_path_slot():
    """Start every test from an empty slot of hidden paths, so it counts its own draws."""
    sim._PATHS.clear()
