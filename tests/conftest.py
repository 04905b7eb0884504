import concurrent.futures
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


def _thread_scratch() -> dict:
    """The calling thread's frame scratch arrays by name (rxchain.scratch),
    those it has allocated: run_frame's received samples (`rx`) and the
    receiver's dumped symbols and decisions (`symbols`, `decided`)."""
    from mslink import rxchain

    return dict(vars(rxchain._SCRATCH))


def _in_fresh_thread(fn, *args, **kwargs):
    """fn(*args, **kwargs) run in a new thread, whose frame scratch is its
    own and newly allocated."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args, **kwargs).result()


@pytest.fixture
def thread_scratch():
    return _thread_scratch


@pytest.fixture
def in_fresh_thread():
    return _in_fresh_thread
