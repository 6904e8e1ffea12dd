"""Shared test setup."""

import gc
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches constants read from the source tree under its home
# directory, ./.hypothesis by default, while pytest collects; point it at a
# directory that goes away with the session.
_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()


@pytest.fixture(autouse=True)
def _collector_state_is_kept():
    # The package pauses the cyclic collector while it builds partition
    # shapes; a pause that leaks past a test fails that test here, and the
    # state is put back so the tests after it start as they should.
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"the test left the cyclic collector {'off' if enabled else 'on'}")
