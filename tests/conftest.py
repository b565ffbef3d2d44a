import pytest

from facegcn import parallel


@pytest.fixture
def fresh_workers():
    """Workers forked inside the test, so that they run its patches; ended after it."""
    parallel._stop_workers()
    yield
    parallel._stop_workers()
