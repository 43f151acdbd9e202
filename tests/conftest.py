"""Shared fixtures of the test suite.

``time_limit`` gives every test ``TEST_TIME_LIMIT`` seconds of wall time.
A test that runs past it fails with ``TimeoutError``, and the run goes on
with the next test, so a stalled width search costs one test instead of
the whole run.  The limit needs ``SIGALRM``; where it is missing (Windows)
tests run unlimited.  ``faulthandler_timeout`` in pyproject.toml still
prints every thread's stack at 60 s, before the limit fires.
"""

import signal

import pytest

TEST_TIME_LIMIT = 120  # seconds; the slowest test takes a few


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TEST_TIME_LIMIT} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
