"""Fixtures shared by the tests of the sharded paths and of the BLAS
thread count."""

import multiprocessing

import pytest

from anchorstat import sharding


@pytest.fixture
def fork_start():
    """Workers forked from this process, so they see its monkeypatches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is not available")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(count)``: every sharded run from then on, in `mc`, the
    battery, the distance curves and the CSV reader and writer, takes
    ``count`` as the usable CPUs."""

    def pin(count):
        monkeypatch.setattr(sharding, "usable_cpus", lambda: count)

    return pin


@pytest.fixture
def blas():
    """numpy's OpenBLAS set to two threads for the test, then reset; the
    fixture's value reads the current count."""
    found = sharding._openblas()
    if found is None:
        pytest.skip("no OpenBLAS thread functions found in numpy")
    get, set_ = found
    before = get()
    set_(2)
    yield get
    set_(before)
