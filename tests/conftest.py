import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a multiprocessing child behind, and stop the child."""
    yield
    multiprocessing = sys.modules.get("multiprocessing")  # imported here only if the test's code did
    left = multiprocessing.active_children() if multiprocessing else []
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
