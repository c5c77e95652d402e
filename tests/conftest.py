import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

from butterflyseq import partitions  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_solved_store():
    """Each test starts and ends with no stored pentagonal table, so a table
    solved by a monkeypatched kernel never answers a later test, and tests
    that count kernel calls do not depend on the order they run in."""
    partitions._SOLVED.clear()
    yield
    partitions._SOLVED.clear()
