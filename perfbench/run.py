"""Host-normalised benchmark of the momentangle CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload face_ladder --seed 1 --seconds 30 --trace 0

Each pass runs every op of the workload in a fresh worker process
(``worker.py``), one worker at a time.  Every op, and the worker's set-up, is
bracketed by a fixed pure-Python reference kernel; an op's time is the median
over passes of (op CPU time / mean of the two kernel CPU times around it), and
times are reported in seconds at a nominal host speed, ``KERNEL_NOMINAL_S``
per kernel.  This cancels the slow phases of a shared host, which a median
over passes alone cannot.  Set-up is also timed in ``SETUP_WORKERS`` extra
workers that run no ops, before the measuring time starts, and ``setup_s`` is
the median over all workers.

Every op's JSON report is checked against ``expected.json`` (see
``check.py``).  The last line of stdout is the result object; the line before
it is a record of the run (seed, host speed, per-op medians).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one traced pass (spans around each module's public
functions, see ``tracer.py``; it ends with ``workloads.TOUCH_OPS``) and the
one-shot probes, and prints the per-layer metrics; the spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import check  # noqa: E402

# One kernel run at the nominal host speed.  Normalised figures are reported
# as multiples of this, so that they read as seconds on an unloaded host.
KERNEL_NOMINAL_S = 0.004
MIN_PASSES = 3
SETUP_WORKERS = 20
RUN_LIMIT_S = 170  # every run, traced ones included, ends within this
LAYERS = ("complexes", "gale", "hilton", "syzygy", "manifold", "cli")


class BenchError(Exception):
    pass


def _worker(root: Path, job: dict, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-s", str(HERE / "worker.py"), str(root / "src")],
            input=json.dumps(job), capture_output=True, text=True, cwd=root, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a worker did not finish before the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _norm(seconds: float, kernels) -> float:
    return seconds / statistics.fmean(kernels)


class Tally:
    """Checks every op's output and counts attempts, failures and defects."""

    def __init__(self, facts: dict):
        self.facts = facts
        self.attempted = self.failed = self.defects = 0
        self.errors: list[str] = []

    def check_pass(self, ops: list[dict], result: dict) -> list:
        outcomes = []
        for op, res in zip(ops, result["ops"]):
            outcome = check(op, res, self.facts)
            self.attempted += 1
            if outcome.error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op['name']}: {outcome.error}")
            elif outcome.mcgavran_defect:
                self.defects += 1
            outcomes.append(outcome)
        return outcomes

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed - self.defects) / self.attempted


def _layer_metrics(result, outcomes, n_workload_ops: int, untraced_norm: float) -> dict:
    spans = result["spans"]
    kmean = [statistics.fmean(r["k"]) for r in result["ops"]]
    child = [0.0] * len(spans)
    for op_id, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (op_id, name, start, end, parent) in enumerate(spans):
        own = (end - start - child[i]) / kmean[op_id] * KERNEL_NOMINAL_S
        layer = name.split(".")[0]
        busy[layer] = busy.get(layer, 0.0) + own
        busy[name] = busy.get(name, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        calls[name] = calls.get(name, 0) + 1
    total = sum(busy.get(layer, 0.0) for layer in LAYERS)
    counts = result["counts"]
    generators = sum(o.generators for o in outcomes)
    spheres = counts.get("hilton.spheres", 0)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        m[f"{layer}.share"] = (busy.get(layer, 0.0) / total, "ratio")
    m.update({
        "complexes.calls": (calls.get("complexes", 0), "count"),
        "complexes.minimal_nonfaces.busy_s": (busy.get("complexes.minimal_nonfaces", 0.0), "s"),
        "complexes.generators": (generators, "count"),
        "complexes.us_per_generator": (busy.get("complexes", 0.0) / generators * 1e6, "us"),
        "gale.calls": (calls.get("gale", 0), "count"),
        "gale.faces": (sum(o.faces for o in outcomes), "count"),
        "hilton.calls": (calls.get("hilton", 0), "count"),
        "hilton.mixed_wedge_spectrum.calls": (calls.get("hilton.mixed_wedge_spectrum", 0), "count"),
        "hilton.spheres": (spheres, "count"),
        "hilton.us_per_sphere": (busy.get("hilton", 0.0) / spheres * 1e6, "us"),
        "syzygy.pairs": (counts.get("syzygy.pairs", 0), "count"),
        "manifold.summands": (counts.get("manifold.summands", 0), "count"),
        "cli.bytes_out": (sum(o.bytes_out for o in outcomes), "bytes"),
        "trace.overhead_ratio": (
            sum(_norm(r["cpu"], r["k"]) for r in result["ops"][:n_workload_ops])
            / untraced_norm, "ratio"),
    })
    return m


def _write_inputs(ops, facts, files_dir: Path) -> None:
    """Write the file complexes the ops read, before any timing starts."""
    files_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.get("source", "").startswith("file"):
            name = op["source"].split()[1]
            (files_dir / f"{name}.txt").write_text(facts["files"][name])


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    begun = time.monotonic()
    deadline = begun + RUN_LIMIT_S
    facts = json.loads((HERE / "expected.json").read_text())
    out_dir = root / ".perfbench_out"
    files_dir = out_dir / f"files-{workload}-{seed}"
    ops = workloads.build(workload, seed, str(files_dir.relative_to(root)))
    _write_inputs(ops, facts, files_dir)
    job = {"ops": [op["argv"] for op in ops]}
    tally = Tally(facts)

    setups = [_worker(root, {"ops": []}, deadline) for _ in range(SETUP_WORKERS)]
    start = time.monotonic()
    passes = []
    while True:
        t = time.monotonic()
        result = _worker(root, job, deadline)
        tally.check_pass(ops, result)
        passes.append(result)
        now = time.monotonic()
        # Stop when one more pass like this one would overrun the measuring time.
        if len(passes) >= MIN_PASSES and (now - start) + (now - t) > seconds:
            break

    per_op = {
        op["name"]: statistics.median(_norm(p["ops"][i]["cpu"], p["ops"][i]["k"])
                                      for p in passes)
        for i, op in enumerate(ops)
    }
    k25, k50, k75 = statistics.quantiles(
        [k for p in passes for r in p["ops"] for k in r["k"]], n=4)
    layer = {
        "wall.pass_s": (statistics.median(sum(r["wall"] for r in p["ops"]) for p in passes), "s"),
        "host.kernel_ms": (k50 * 1e3, "ms"),
        "host.kernel_ms.p25": (k25 * 1e3, "ms"),
        "host.kernel_ms.p75": (k75 * 1e3, "ms"),
        "repeat_share": (workloads.repeat_share(ops), "ratio"),
    }
    record = {
        "workload": workload, "seed": seed, "passes": len(passes), "ops_per_pass": len(ops),
        "kernel_nominal_s": KERNEL_NOMINAL_S, "python": sys.version.split()[0],
        "ops": {f"op.{workload}.{name}.p50_s": v * KERNEL_NOMINAL_S
                for name, v in sorted(per_op.items())},
    }
    samples_file = out_dir / f"samples-{workload}-{seed}.json"
    samples_file.write_text(json.dumps({
        "ops": [op["name"] for op in ops],
        "passes": [{"setup": p["setup"], "setup_k": p["setup_k"],
                    "ops": [{k: r[k] for k in ("cpu", "wall", "k")} for r in p["ops"]]}
                   for p in passes],
    }))
    record["samples_file"] = str(samples_file.relative_to(root))

    if trace:
        traced_ops = ops + workloads.touch_ops()
        traced = _worker(root, {"ops": [op["argv"] for op in traced_ops], "trace": True},
                         deadline)
        outcomes = tally.check_pass(traced_ops, traced)
        layer.update(_layer_metrics(traced, outcomes, len(ops), sum(per_op.values())))
        probes = workloads.probe_ops()
        probed = _worker(root, {"ops": [op["argv"] for op in probes]}, deadline)
        tally.check_pass(probes, probed)
        for op, r in zip(probes, probed["ops"]):
            layer[op["name"]] = (_norm(r["cpu"], r["k"]) * KERNEL_NOMINAL_S, "s")
        spans_file = out_dir / f"spans-{workload}-{seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["op_id", "name", "start", "end", "parent"],
            "ops": [op["name"] for op in traced_ops],
            "spans": traced["spans"],
        }))
        record["spans_file"] = str(spans_file.relative_to(root))

    e2e = {
        "setup_s": (statistics.median(_norm(p["setup"], p["setup_k"])
                                      for p in setups + passes) * KERNEL_NOMINAL_S, "s"),
        "pass_s": (sum(per_op.values()) * KERNEL_NOMINAL_S, "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "ok_ratio": (tally.ok_ratio, "ratio"),
    }
    layer["failed_ratio"] = (1 - tally.ok_ratio, "ratio")
    record.update({
        "e2e": {k: v for k, (v, _) in e2e.items()},
        "mcgavran_not_equivalent": tally.defects,
        "errors": tally.errors,
        "run_s": time.monotonic() - begun,
    })
    chosen = layer if trace else e2e
    return {
        "record": record,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "momentangle" / "__init__.py").is_file():
        print("error: run from the repository root; src/momentangle is missing",
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
