"""Compare the CLI's output in two source trees, call by call.

Usage, from anywhere:

    python3 scripts/byte_sweep.py --parent ../parent --change .

One fixed call set runs in one subprocess per tree; each subprocess imports
`momentangle` from its own tree's `src` and calls `cli.main` in-process for
every argv, recording stdout, stderr and the exit code (a `SystemExit`, as
from `--help`, counts as the exit code).  The set covers `ideal`, `syzmin`,
`wedge` (no ceiling, `--ceiling 13`, `--ceiling -1`) and `verdict` (four
candidate specs, no `--q` and `--q` 2/4/6/9) on polygons 3..12, every C(n,d)
with n <= 10 and 1 <= d <= n, the file sources of `perfbench/expected.json`,
six edge-case files, a missing file and a bad source; `counterexample`, six
`homology` specs, `faces` for n <= 9 (plain, `--count`, `--max-card 2`,
`--max-card 99`), and help and argument errors; every call plain, `--json`
and `--quiet`.  The files go to one temporary directory shared by both
trees, so paths in the output agree; nothing is written under `perfbench/`.

Prints the number of calls and each argv whose stdout, stderr or exit code
differs, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPECS = ["16*S5xS7 # 15*S6xS6", "16*S5xS7", "5*S3xS4", "2*S3xS3"]
HOMOLOGY_SPECS = [
    "16*S5xS7 # 15*S6xS6", "15 * S6xS6 # 16*S5xS7", "S3xS3", "S1000000000000xS2",
    "0*S3xS3", "16*S5yS7",
]
EDGE_FILES = {
    "simplex": "vertices 3\nfacets\n1 2 3\n",
    "redundant": "vertices 5\nnonfaces\n1 3\n1 3 4\n3 1\n1 4\n2 4\n2 5\n3 5\n2 4 5\n",
    "rp2": "vertices 6\nfacets\n1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 2 6\n"
           "2 3 5\n2 4 5\n2 4 6\n3 4 6\n3 5 6\n",
    "ghost": "vertices 4\nfacets\n1 2\n2 3\n",
    "singleton": "vertices 4\nnonfaces\n1\n2 3\n",
    "bad_token": "# comment only\nvertices 4\nfacets\n1 x\n",
}
MISC_CALLS = [
    ["counterexample"],
    ["--help"],
    ["verdict", "--help"],
    [],
    ["frobnicate"],
    ["ideal", "cyclic", "8", "4", "--bogus"],
    ["verdict", "polygon", "5"],
    ["faces", "x", "3"],
]

# Runs in the subprocess: argv lists on stdin, one [code, out, err] each on stdout.
WORKER = """
import contextlib, io, json, sys
from momentangle import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def write_sources(workdir: Path) -> list[list[str]]:
    """Every complex source of the sweep, as CLI tokens; file sources are
    written into `workdir`."""
    sources = [["polygon", str(m)] for m in range(3, 13)]
    sources += [["cyclic", str(n), str(d)] for n in range(1, 11) for d in range(1, n + 1)]
    files = json.loads((ROOT / "perfbench" / "expected.json").read_text())["files"]
    for name, text in [*sorted(files.items()), *EDGE_FILES.items()]:
        path = workdir / f"{name}.txt"
        path.write_text(text)
        sources.append(["file", str(path)])
    sources.append(["file", str(workdir / "missing.txt")])
    sources.append(["torus", "3"])
    return sources


def call_set(workdir: Path) -> list[list[str]]:
    base = []
    for src in write_sources(workdir):
        base += [["ideal", *src], ["syzmin", *src], ["wedge", *src]]
        base += [["wedge", *src, "--ceiling", c] for c in ("13", "-1")]
        for spec in SPECS:
            base.append(["verdict", *src, "--vs", spec])
            base += [["verdict", *src, "--vs", spec, "--q", q] for q in ("2", "4", "6", "9")]
    base += [["homology", spec] for spec in HOMOLOGY_SPECS]
    for n in range(1, 10):
        for d in range(1, n + 1):
            faces = ["faces", str(n), str(d)]
            base += [faces, [*faces, "--count"]]
            base += [[*faces, "--max-card", c] for c in ("2", "99")]
    base += MISC_CALLS
    return [argv + mode for argv in base for mode in ([], ["--json"], ["--quiet"])]


def sweep(tree: Path, calls, workdir: Path) -> list:
    """[code, stdout, stderr] of every call, run in one subprocess that
    imports `momentangle` from `tree/src`."""
    tree = tree.resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-c", WORKER], input=json.dumps(calls), cwd=workdir,
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: the sweep exited {proc.returncode}\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout)
    if not Path(record["module"]).resolve().is_relative_to(tree / "src"):
        sys.exit(f"{tree}: imported momentangle from {record['module']}, not its own src")
    return record["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the reference tree")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calls = call_set(workdir)
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(
                lambda tree: sweep(tree, calls, workdir), (args.parent, args.change)
            )
    differing = [argv for argv, a, b in zip(calls, parent, change) if a != b]
    print(f"{len(calls)} calls, {len(differing)} differ")
    for argv in differing:
        print(f"differs: {shlex.join(argv)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
