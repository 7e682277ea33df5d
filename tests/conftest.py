"""A time limit on every test, fixtures included.

A wrong row multiple never clears a row, so ``Matrix._eliminate``'s
``while v:`` loop would spin forever and the suite hang instead of fail.
Each test's setup, call and teardown run under a faulthandler alarm: past
LIMIT seconds it dumps every thread's traceback to the terminal and exits
the process with a nonzero status.  Module-scoped fixtures are set up
inside the first test that uses them, so they are inside the limit too.
LIMIT sits above the suite's own 120 s subprocess timeouts; the slowest
test takes about a second.
"""

import faulthandler
import os
import sys

import pytest

LIMIT = 180  # seconds per test, setup and teardown included

# A copy of the terminal's stderr, taken while output is not captured: a
# test's stderr goes to a capture file, which an exit on timeout never shows.
_stderr = None


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
