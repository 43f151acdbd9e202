import signal

import pytest

from conftest import TEST_TIME_LIMIT

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


def test_time_limit_is_armed():
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= TEST_TIME_LIMIT


def test_expiry_raises_timeout_error():
    with pytest.raises(TimeoutError, match="limit"):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
