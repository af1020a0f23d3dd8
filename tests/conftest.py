import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a multiprocessing child or a non-daemon thread behind, and stop the child."""
    threads_before = set(threading.enumerate())
    yield
    multiprocessing = sys.modules.get("multiprocessing")  # imported here only if the test's code did
    left = multiprocessing.active_children() if multiprocessing else []
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
    threads = [t for t in threading.enumerate() if t not in threads_before and not t.daemon]
    assert not threads, f"threads left running: {threads}"


@pytest.fixture
def lane():
    """A one-thread executor, as train_epoch opens when a core is free."""
    executor = ThreadPoolExecutor(1, thread_name_prefix="test-lane")
    yield executor
    executor.shutdown()
