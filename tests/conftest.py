import pytest

import eesampler.analysis


class RecordingPool:
    """In-process stand-in for ``ProcessPoolExecutor`` that records ``max_workers``."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the replication pool of ``mse_harness`` with ``RecordingPool``
    (no process is started); returns the list of pool sizes asked for."""
    sizes = []
    monkeypatch.setattr(
        eesampler.analysis, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(sizes, max_workers),
    )
    return sizes
