"""Session set-up shared by `tests/` and `perfbench/`."""

import gc


def pytest_collection_finish(session):
    """Move what importing pytest, hypothesis, networkx and every test
    module leaves out of the cyclic collector's reach.  Those objects live
    for the whole run, so each full collection would rescan them (tens of
    thousands of objects, 10-25 ms a pass on a 2-vCPU VM) at whatever point
    of a test it lands; frozen, a full collection scans only what the tests
    themselves make."""
    gc.collect()
    gc.freeze()
