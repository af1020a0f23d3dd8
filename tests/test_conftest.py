"""The suite's own guard: at most two child processes alive at once, and none left behind."""

import shutil
import subprocess
import sys
from pathlib import Path

CHILDREN_TEST = '''
import multiprocessing
import pytest


@pytest.mark.parametrize("count", [2, 3])
def test_children(count):
    ctx = multiprocessing.get_context("fork")
    gate = ctx.Event()
    children = [ctx.Process(target=gate.wait) for _ in range(count)]
    for child in children:
        child.start()
    gate.set()
    for child in children:
        child.join()
'''


def test_a_test_with_three_children_alive_at_once_fails(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_children.py").write_text(CHILDREN_TEST)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    # the guard fails the test in its teardown, which pytest reports as an error after the pass
    assert "2 passed, 1 error" in out.stdout, out.stdout
    assert "ERROR test_children.py::test_children[3]" in out.stdout
    assert "AssertionError: 3 child processes were alive at once" in out.stdout
