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
eleven edge-case files (three of them larger facet lists: the edges of the
30-gon, every 3-subset of 1..9, and the RP^2 facets listed twice with some
of their edges; one a nonfaces list of 699 pairs and 699 triples through
vertex 1 whose sizes alternate in sorted order; one the edges 1 2 and 3 4
beside the 455 triples of 5..19, whose first relation bound, 3 vertices, no
pair meets), a missing file and a bad
source; `counterexample`, six `homology` specs, `faces` for n <= 9 (plain,
`--count`, `--max-card 2`, `--max-card 99`), help, and the argument grammar: missing, invalid and
unrecognized arguments, `--opt=value`, options before positionals, `--`,
a repeated option, negative values (`--q -0`, `faces -1 3`, `--ceiling
-1`), `--json` before the subcommand and the abbreviated names `--v` and
`--ceil`, and `wedge --ceiling 1450`, one past the Witt bound, on `polygon
4` and on `cyclic 5 4`, which has no relation, and `verdict cyclic 8 4`
against the headline spec with `--q -1` and with `--q 12`, its top
class, and `verdict cyclic 12 5` against its own ranks, which runs the
general route over all three fields; every call plain, `--json` and `--quiet`.  Larger rings add `ideal`
and `syzmin`, with `--json` only:
every `face_ladder` rung of `perfbench/workloads.py`, the probe rings
C(16,6), C(20,4) and C(14,8), the rings C(19,9) and C(21,8) just inside the
subset limit, C(20,10), C(22,11), C(24,12) and C(23,11), which are
refused, C(73,4) and C(188,4), on either side of the even-d generator-count
guard, C(1451,3), just past it for d = 3, the odd-d rings C(43,5), C(44,5),
C(185,3) and C(186,3), on either side of C(n, d) = 2**20, and polygons
13..30; and `ideal cyclic 1001 1000 --json`, `syzmin cyclic 999 998
--json`, `ideal cyclic 1000 998 --json` and `ideal cyclic 999 997 --json`,
refused inputs whose facets would hold about 500 pairs each.  The files go
to one temporary directory shared by both trees, so paths in the output
agree; nothing is written under `perfbench/`.  An exception that escapes `cli.main` counts as exit code 1
with its traceback on stderr, as the interpreter would print it.

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
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FACE_LADDER_IDEALS  # noqa: E402

LARGE_RINGS = [
    *FACE_LADDER_IDEALS, (16, 6), (20, 4), (14, 8),
    (19, 9), (21, 8), (20, 10), (22, 11), (24, 12), (73, 4), (188, 4),
    (43, 5), (44, 5), (185, 3), (186, 3), (1451, 3), (23, 11),
]

SPECS = ["16*S5xS7 # 15*S6xS6", "16*S5xS7", "5*S3xS4", "2*S3xS3"]
HOMOLOGY_SPECS = [
    "16*S5xS7 # 15*S6xS6", "15 * S6xS6 # 16*S5xS7", "S3xS3", "S1000000000000xS2",
    "0*S3xS3", "16*S5yS7",
]
RP2_FACETS = "1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 2 6\n2 3 5\n2 4 5\n2 4 6\n3 4 6\n3 5 6\n"
EDGE_FILES = {
    "simplex": "vertices 3\nfacets\n1 2 3\n",
    "redundant": "vertices 5\nnonfaces\n1 3\n1 3 4\n3 1\n1 4\n2 4\n2 5\n3 5\n2 4 5\n",
    "rp2": "vertices 6\nfacets\n" + RP2_FACETS,
    "ghost": "vertices 4\nfacets\n1 2\n2 3\n",
    "singleton": "vertices 4\nnonfaces\n1\n2 3\n",
    "bad_token": "# comment only\nvertices 4\nfacets\n1 x\n",
    "gon30_edges": "vertices 30\nfacets\n"
                   + "".join(f"{i} {i % 30 + 1}\n" for i in range(1, 31)),
    "triples9": "vertices 9\nfacets\n"
                + "".join(f"{a} {b} {c}\n" for a, b, c in combinations(range(1, 10), 3)),
    "rp2_repeated": "vertices 6\nfacets\n" + 2 * RP2_FACETS + "2 1\n6 4\n5\n",
    "alternating": "vertices 2099\nnonfaces\n"
                   + "".join(f"1 {3 * j}\n1 {3 * j + 1} {3 * j + 2}\n" for j in range(1, 700)),
    "edges_triples": "vertices 19\nnonfaces\n1 2\n3 4\n"
                     + "".join(f"{a} {b} {c}\n" for a, b, c in combinations(range(5, 20), 3)),
}
DEEP_CALLS = [
    ["ideal", "cyclic", "1001", "1000", "--json"],
    ["syzmin", "cyclic", "999", "998", "--json"],
    ["ideal", "cyclic", "1000", "998", "--json"],
    ["ideal", "cyclic", "999", "997", "--json"],
]
MISC_CALLS = [
    ["counterexample"],
    ["--help"],
    ["verdict", "--help"],
    [],
    ["frobnicate"],
    ["ideal", "cyclic", "8", "4", "--bogus"],
    ["verdict", "polygon", "5"],
    ["faces", "x", "3"],
    # the argument grammar: errors, then accepted forms, then abbreviated names
    ["ideal"],
    ["faces", "8"],
    ["verdict", "cyclic", "8", "4", "--vs"],
    ["homology", "a", "b"],
    ["homology", "-1*S3xS3"],
    ["--q", "x"],
    ["verdict", "polygon", "5", "--vs=5*S3xS4"],
    ["verdict", "cyclic", "8", "4", "--vs", SPECS[0], "--q=4"],
    ["verdict", "cyclic", "8", "4", "--vs", SPECS[0], "--q", "-0"],
    ["verdict", "--vs", "5*S3xS4", "polygon", "5"],
    ["ideal", "--", "cyclic", "8", "4"],
    ["verdict", "polygon", "5", "--vs", "S3xS3", "--vs", "5*S3xS4"],
    ["faces", "-1", "3"],
    ["wedge", "polygon", "4", "--ceiling", "-1"],
    ["--json", "ideal", "polygon", "5"],
    ["verdict", "polygon", "5", "--v", "5*S3xS4"],
    ["wedge", "polygon", "4", "--ceil", "9"],
    ["wedge", "polygon", "4", "--ceiling", "1450"],
    ["wedge", "cyclic", "5", "4", "--ceiling", "1450"],
    # a negative degree, and C(8,4)'s top class
    ["verdict", "cyclic", "8", "4", "--vs", SPECS[0], "--q", "-1"],
    ["verdict", "cyclic", "8", "4", "--vs", SPECS[0], "--q", "12"],
    # the general route run over all three fields
    ["verdict", "cyclic", "12", "5", "--vs", "56*S5xS12 # 210*S6xS11 # 357*S7xS10 # 400*S8xS9"],
]

# Runs in the subprocess: argv lists on stdin, one [code, out, err] each on stdout.
WORKER = """
import contextlib, io, json, sys, traceback
from momentangle import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
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
    calls = [argv + mode for argv in base for mode in ([], ["--json"], ["--quiet"])]
    for n, d in LARGE_RINGS:
        calls += [[cmd, "cyclic", str(n), str(d), "--json"] for cmd in ("ideal", "syzmin")]
    for m in range(13, 31):
        calls += [[cmd, "polygon", str(m), "--json"] for cmd in ("ideal", "syzmin")]
    return calls + DEEP_CALLS


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
