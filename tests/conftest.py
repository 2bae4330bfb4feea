"""Suite-wide settings.  Hypothesis draws its examples from a fixed seed
(``derandomize=True``) and keeps no example database (``database=None``),
so which examples a run tries depends on the tree alone."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tree", derandomize=True, database=None)
settings.load_profile("tree")


@pytest.fixture
def child_env():
    """The environment of a child Python that imports ``nes`` from this
    checkout's ``src``: pytest puts ``src`` on its own path only, and the
    package need not be installed."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
