"""Shared test setup."""

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
