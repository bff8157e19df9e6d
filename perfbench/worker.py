"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python3 -S -s perfbench/worker.py SRC_DIR < job.json``

The worker times ``import momentangle`` up to a built CLI parser (set-up), then
runs the job's ops in order, each one an in-process ``cli.main([..., "--json"])``
call with stdout captured in memory.  Every timed interval is bracketed by the
reference kernel below, so that ``run.py`` can divide each time by the host
speed measured around it.  With ``"trace": true`` the listed public functions
are wrapped as module attributes and their spans are returned too.

Times are the thread's CPU time, so that a worker preempted by another
process on the host is not charged for the wait; the program is
single-threaded and does no I/O while an op runs, so on an idle host CPU time
equals wall time.  Each op's wall time is recorded as well.

Only ``gc``, ``sys`` and ``time`` are imported before set-up is timed, so that
the set-up figure includes every module the package itself pulls in.
"""

import gc
import sys
import time

cpu = time.thread_time
perf = time.perf_counter

# The reference kernel: fixed set/tuple/int work that uses no momentangle
# code.  Its CPU time is the host-speed yardstick every op is divided by.  It
# has two parts, so that it slows down on a loaded host much as both kinds of
# op do: subset tests over small sets (the face layer) and a recursive
# enumeration with big-integer quotients of factorials (the spectrum layer).
_KERNEL_FACETS = [frozenset(range(i, i + 6)) for i in range(24)]
_FACTORIALS = [1]
for _i in range(1, 40):
    _FACTORIALS.append(_FACTORIALS[-1] * _i)


def _subset_work():
    acc = 0
    seen = set()
    for a in range(2, 24):
        for b in range(a + 1, 25):
            for c in range(b + 1, 26):
                s = {a, b, c}
                hits = 0
                for f in _KERNEL_FACETS:
                    if s <= f:
                        hits += 1
                t = (a, b, c, hits)
                seen.add(t[1:] + t[:1])
                acc = (acc * 31 + hits * a + b * c) % 1000003
    return acc + len(seen)


def _multinomial_work():
    vec = [0] * 7
    acc = 0

    def descend(idx, budget):
        nonlocal acc
        if idx == len(vec):
            m = _FACTORIALS[sum(vec) + 30]
            for a in vec:
                m //= _FACTORIALS[a]
            acc = (acc + m) % 1000003
            return
        a = 0
        while 2 * a <= budget:
            vec[idx] = a
            descend(idx + 1, budget - 2 * a)
            a += 1
        vec[idx] = 0

    descend(0, 12)
    return acc


def kernel():
    return _subset_work() + _multinomial_work()


def timed_kernel():
    gc.collect()
    c = cpu()
    kernel()
    return cpu() - c


def main():
    src = sys.argv[1]
    k0 = timed_kernel()
    c0 = cpu()
    sys.path.insert(0, src)
    import momentangle
    from momentangle import cli

    build = getattr(cli, "_build_parser", None)
    if build is not None:
        build()
    setup = cpu() - c0
    k1 = timed_kernel()

    import contextlib
    import io
    import json
    import os
    import resource

    where = os.path.realpath(momentangle.__file__)
    if os.path.commonpath([where, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"momentangle was imported from {where}, not from {src}")

    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []
    k_prev = timed_kernel()
    for op_id, argv in enumerate(job["ops"]):
        buf = io.StringIO()
        err = io.StringIO()
        exc = None
        if tracer is not None:
            tracer.op_id = op_id
        c = cpu()
        t = perf()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv) + ["--json"])
        except Exception as e:  # an op that raises is a failed op, not a crash
            rc, exc = None, f"{type(e).__name__}: {e}"
        wall = perf() - t
        ocpu = cpu() - c
        k_next = timed_kernel()
        ops.append({
            "wall": wall,
            "cpu": ocpu,
            "k": [k_prev, k_next],
            "rc": rc,
            "out": buf.getvalue(),
            "err": err.getvalue()[-400:],
            "exc": exc,
        })
        k_prev = k_next

    result = {
        "setup": setup,
        "setup_k": [k0, k1],
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
