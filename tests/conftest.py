import tracemalloc

import pytest


def _allocation_peak(fn) -> int:
    """Peak bytes allocated while fn() runs, over what was allocated before
    it: numpy reports its allocations to tracemalloc, so the peak counts
    every array fn allocates, its result included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def allocation_peak():
    return _allocation_peak
