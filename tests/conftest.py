import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Every helper thread the library starts (named ``qls-...``) is joined
    before the call that started it returns or raises."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("qls-")]
    assert not left, f"threads still alive after the test: {left}"
