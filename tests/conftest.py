import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def pools_made(monkeypatch):
    """Process counts of every ``multiprocessing.Pool`` constructed."""
    made = []
    real_pool = multiprocessing.Pool

    def counting_pool(processes=None, *args, **kwargs):
        made.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return made
