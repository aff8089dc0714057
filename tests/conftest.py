"""A wall-clock limit on every test, so a walk that runs away fails the suite
instead of hanging it."""
import faulthandler
import os
import sys

import pytest

# Above the suite's longest subprocess timeout, 120 s, so that timeout reports
# first; the slowest test takes a few seconds.
TEST_LIMIT_S = 180

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # faulthandler writes to a file descriptor, and while a test runs pytest
    # points fd 2 at its capture file, which is lost when the process exits.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    # past the limit: print every thread's stack, then end the run with exit 1
    faulthandler.dump_traceback_later(TEST_LIMIT_S, exit=True, file=item.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
