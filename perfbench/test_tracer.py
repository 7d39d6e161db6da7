"""Checks of the span bookkeeping in tracer.py.

    python3 -m pytest perfbench/test_tracer.py
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from tracer import NAME, PARENT, SID, THREAD, Tracer, self_times


def _span(sid, parent, t0, t1):
    return [sid, 0, t0, t1, parent, 0, 0.0, 0]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = np.array(
        [
            _span(0, -1, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 2.0, 5.0),  # overlaps sibling 1 (another thread)
            _span(3, 0, 8.0, 12.0),  # runs past the parent's end
            _span(4, 2, 2.5, 3.5),
        ]
    )
    own = self_times(spans)
    assert np.allclose(own, [10.0 - 4.0 - 2.0, 2.0, 3.0 - 1.0, 4.0, 1.0])


def test_pool_worker_spans_take_the_open_main_thread_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def outer(items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, items))

    assert tracer.wrap("outer", outer)([1, 2, 3]) == [2, 3, 4]
    spans = np.array(sorted(tracer._spans), dtype=float)
    names = np.array(tracer._names)[spans[:, NAME].astype(int)]
    (root,) = spans[names == "outer"]
    leaves = spans[names == "leaf"]
    assert len(leaves) == 3
    assert (leaves[:, PARENT] == root[SID]).all()
    assert (leaves[:, THREAD] != root[THREAD]).all()
