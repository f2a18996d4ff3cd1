import contextlib
import signal

import pytest

from nilseq.automaton import (
    baum_sweet,
    constant,
    from_prohibited_patterns,
    powers_acceptor,
    thue_morse,
)


@pytest.fixture(scope="session")
def tm():
    return thue_morse()


@pytest.fixture(scope="session")
def powers2():
    return powers_acceptor(2)


@pytest.fixture(scope="session")
def bs():
    return baum_sweet()


@pytest.fixture(scope="session")
def eleven_free():
    return from_prohibited_patterns(2, [(1, 1)])


@pytest.fixture(scope="session")
def const0():
    return constant(2, 0)


@pytest.fixture(scope="session")
def const1():
    return constant(2, 1)


def digit_sum(n: int, base: int = 2) -> int:
    s = 0
    while n:
        s += n % base
        n //= base
    return s


class WallClockExceeded(BaseException):
    """Not an Exception, so no handler in the code under test swallows it."""


@pytest.fixture
def wall_clock_limit():
    """Context manager: the body is interrupted once `seconds` have passed."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise WallClockExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
