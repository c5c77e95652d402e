import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

from butterflyseq import partitions  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_solved_store():
    """Each test starts and ends with an empty store (partitions.solved_prefix:
    the pentagonal tables q, p and theta and the verify sides, one dict), so
    a table built by a monkeypatched kernel never answers a later test, and
    tests that count kernel calls do not depend on the order they run in.
    A test that patches a kernel after the store holds a table it builds
    must empty the store itself, or the patched kernel is never called."""
    partitions._SOLVED.clear()
    yield
    partitions._SOLVED.clear()
