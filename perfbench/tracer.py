"""Spans around the public functions of each momentangle module.

The functions are replaced as module attributes, so calls made from ``cli``
and calls between functions of one module (which look the name up in the
module's globals) are both seen.  Each span is kept in memory as
``[op_id, name, start, end, parent]``, in thread CPU seconds; ``parent`` is
the index of the enclosing span, or -1.  Work counts are taken at the same boundaries.
"""

import time

from momentangle import cli, complexes, hilton, manifold, syzygy

clock = time.thread_time  # the clock worker.py times ops with


def _pairs(counts, args, ret):
    n = len(args[0].generators)
    counts["syzygy.pairs"] = counts.get("syzygy.pairs", 0) + n * (n - 1) // 2


def _spheres(counts, args, ret):
    counts["hilton.spheres"] = counts.get("hilton.spheres", 0) + sum(ret.entries.values())


def _summands(counts, args, ret):
    counts["manifold.summands"] = (
        counts.get("manifold.summands", 0) + sum(mult for mult, _ in ret.summands)
    )


# (module, attribute, layer, work counter)
TRACED = [
    (cli, "main", "cli", None),
    (cli, "enumerate_faces", "gale", None),
    (complexes, "from_cyclic", "complexes", None),
    (complexes, "from_polygon", "complexes", None),
    (complexes, "parse_complex", "complexes", None),
    (complexes, "face_ring", "complexes", None),
    (complexes, "minimal_nonfaces", "complexes", None),
    (hilton, "borel_model", "hilton", None),
    (hilton, "mixed_wedge_spectrum", "hilton", _spheres),
    (hilton, "wedge_spectrum", "hilton", _spheres),
    (syzygy, "min_relation_degree", "syzygy", _pairs),
    (manifold, "parse_connected_sum", "manifold", _summands),
    (manifold, "connected_sum_homology", "manifold", None),
    (manifold, "rational_homotopy_rank", "manifold", None),
    (manifold, "hurewicz_window", "manifold", None),
    (manifold, "poincare_check", "manifold", None),
    (manifold, "euler_characteristic", "manifold", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op_id = -1
        self._stack = []

    def install(self):
        """Wrap every listed function that the package still defines."""
        for module, attr, layer, counter in TRACED:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", counter))

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [self.op_id, name, start, end, parent]
            if counter is not None:
                counter(self.counts, args, ret)
            return ret

        return traced
