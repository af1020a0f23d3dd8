import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import active_children, process

import pytest

MAX_CHILDREN = 2  # training's worker and evaluate's forks never run together, and each is one child on 2 cores


@pytest.fixture(autouse=True)
def no_child_process_left_running(monkeypatch):
    """Fail a test that leaves a multiprocessing child or a non-daemon thread behind, and stop the child.

    Also fail one during which more than MAX_CHILDREN children were alive at once: the count is
    taken after every start, the only time it grows.
    """
    threads_before = set(threading.enumerate())
    alive = []
    start = process.BaseProcess.start

    def counted_start(self):
        start(self)
        alive.append(len(active_children()))

    monkeypatch.setattr(process.BaseProcess, "start", counted_start)
    yield
    left = active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
    assert max(alive, default=0) <= MAX_CHILDREN, f"{max(alive)} child processes were alive at once"
    threads = [t for t in threading.enumerate() if t not in threads_before and not t.daemon]
    assert not threads, f"threads left running: {threads}"


@pytest.fixture
def lane():
    """A one-thread executor, as train_epoch opens for a model of LANE_MIN_PARAMS or more when a core is free."""
    executor = ThreadPoolExecutor(1, thread_name_prefix="test-lane")
    yield executor
    executor.shutdown()
