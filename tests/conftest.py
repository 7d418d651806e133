import multiprocessing
import threading

import pytest

import braggstack as bs


@pytest.fixture(scope="session")
def geom():
    """Reference geometry: 810/780 nm, Bragg-matched, k_B T = 0.4 hbar U0."""
    return bs.bragg_matched_geometry()


@pytest.fixture(scope="session")
def cfg():
    """Default three-line response."""
    return bs.default_config()


@pytest.fixture(scope="session")
def cfg1():
    """Single unit-strength line at zero offset."""
    return bs.single_line_config()


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process or a thread it started (a
    sweep helper) alive: the library starts no process, and a sweep's
    helper threads end before it returns."""
    before = set(threading.enumerate())
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"test left child processes running: {leaked}"
    threads = [t for t in threading.enumerate() if t not in before]
    assert not threads, f"test left threads running: {threads}"
