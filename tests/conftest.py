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


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Report a ``RecursionError`` as a one-line failure.  Its traceback
    would hold a thousand frames whose locals are deep records, and
    pytest's search for a repeated frame compares those locals with
    ``==``, each comparison a walk: that took minutes.  The failure is
    raised after the ``except`` block, so it carries no chained error."""
    try:
        return (yield)
    except RecursionError as error:
        message = f"RecursionError: {error}"
    pytest.fail(message, pytrace=False)
