import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from momentangle import CyclicParams, from_cyclic  # noqa: E402


@pytest.fixture(scope="session")
def c84_ring():
    return from_cyclic(CyclicParams(8, 4))


@pytest.fixture(scope="session")
def pentagon_ring():
    return from_cyclic(CyclicParams(5, 2))
