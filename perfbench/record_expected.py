"""Record ``expected.json``: the facts the benchmark checks every op against.

Usage, from the repository root: ``python3 perfbench/record_expected.py``

Each fact is computed by a route that shares no code with the report field it
checks, and the program's own answer is compared with it before anything is
written; any disagreement aborts the recording.

- ideal generators: Gale's criterion (``gale.is_face``) called directly for
  cyclic polytopes, non-adjacent pairs for polygons, and a subset search on
  bitmasks for file complexes;
- face counts: subsets of the facets given by Gale's evenness condition;
- wedge spectra: the generalised Witt formula on the generator-degree
  histogram, and Hall-basis enumeration (``tests/oracles.py``) where cheap;
- homology: ``tests/oracles.connected_sum_ranks_peeling``.

The pool of file complexes is drawn here, from a fixed seed, and stored with
its facts; a run's seed picks which pool members it uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import namedtuple
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from momentangle import cli  # noqa: E402
from momentangle.gale import CyclicParams, is_face  # noqa: E402
from tests import oracles  # noqa: E402

import workloads as wl  # noqa: E402
from check import generators_digest  # noqa: E402

HALL_LIMIT = 3000  # enumerate Hall bases only up to this many basic products


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


# ---------------------------------------------------------------------------
# independent routes
# ---------------------------------------------------------------------------

def cyclic_generators(n: int, d: int) -> list[tuple[int, ...]]:
    p = CyclicParams(n, d)
    out = []
    for k in range(2, d + 2):
        for s in combinations(range(1, n + 1), k):
            if not is_face(s, p) and all(is_face(s[:i] + s[i + 1:], p) for i in range(k)):
                out.append(s)
    return sorted(out)


def polygon_generators(m: int) -> list[tuple[int, ...]]:
    return [(i, j) for i, j in combinations(range(1, m + 1), 2)
            if j - i not in (1, m - 1)]


def _masks(subsets):
    return [sum(1 << (v - 1) for v in s) for s in subsets]


def file_generators(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Minimal non-faces of a file complex by a subset search on bitmasks."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    m, kind = int(lines[0][1]), lines[1][0]
    sets = _masks(tuple(int(t) for t in ln) for ln in lines[2:])
    if kind == "facets":
        def face(x):
            return any(x & f == x for f in sets)
    else:
        def face(x):
            return not any(x & nf == nf for nf in sets)
    out = []
    for k in range(2, m + 1):
        for s in combinations(range(1, m + 1), k):
            x = sum(1 << (v - 1) for v in s)
            if not face(x) and all(face(x & ~(1 << (v - 1))) for v in s):
                out.append(s)
    return m, sorted(out)


def evenness_face_counts(n: int, d: int) -> dict[str, int]:
    """Face counts of C(n, d) from the facets given by Gale's evenness
    condition: between any two non-members lie an even number of members."""
    def evenness(S):
        outside = [v for v in range(1, n + 1) if v not in S]
        return all(sum(1 for s in S if i < s < j) % 2 == 0
                   for i, j in combinations(outside, 2))

    faces = set()
    for facet in combinations(range(1, n + 1), d):
        if evenness(set(facet)):
            for k in range(1, d + 1):
                faces.update(combinations(facet, k))
    counts = {str(k): 0 for k in range(1, d + 1)}
    for f in faces:
        counts[str(len(f))] += 1
    return counts


def witt_spectrum(dims, ceiling: int) -> dict[str, int]:
    """Basic products on generator spheres S^dims by sphere dimension, from
    the generalised Witt formula: with a(t) = sum t^(dim-1) and
    c = t a'/(1 - a), the count in degree N is (1/N) sum_{e|N} mu(N/e) c_e."""
    top = ceiling - 1
    a = [0] * (top + 1)
    for dim in dims:
        if dim - 1 <= top:
            a[dim - 1] += 1
    # b = 1/(1 - a), then c = t a' * b
    b = [1] + [0] * top
    for n in range(1, top + 1):
        b[n] = sum(a[j] * b[n - j] for j in range(1, n + 1))
    c = [0] * (top + 1)
    for n in range(1, top + 1):
        c[n] = sum(j * a[j] * b[n - j] for j in range(1, n + 1))
    out = {}
    for N in range(1, top + 1):
        total = sum(_mobius(N // e) * c[e] for e in range(1, N + 1) if N % e == 0)
        if total % N:
            raise ArithmeticError(f"Witt sum {total} not divisible by {N}")
        if total:
            out[str(N + 1)] = total // N
    return out


def hall_is_cheap(dims, ceiling: int) -> bool:
    max_weight = (ceiling - 1) // (min(dims) - 1)
    return sum(len(dims) ** w // w for w in range(1, max_weight + 1)) <= HALL_LIMIT


_Product = namedtuple("_Product", "m n")
_Spec = namedtuple("_Spec", "summands")


def spec_facts(text: str) -> dict:
    parts = wl.parse_spec(text)
    spec = _Spec(tuple((mult, _Product(a, b)) for mult, a, b in parts))
    ranks = oracles.connected_sum_ranks_peeling(spec)
    top = parts[0][1] + parts[0][2]
    return {
        "top": top,
        "ranks": {str(k): v for k, v in sorted(ranks.items())},
        "poincare": all(ranks.get(k, 0) == ranks.get(top - k, 0) for k in range(top + 1)),
        "euler": sum((-1) ** k * v for k, v in ranks.items()),
    }


def ideal_facts(m: int, gens) -> dict:
    hist: dict[str, int] = {}
    for g in gens:
        hist[str(2 * len(g))] = hist.get(str(2 * len(g)), 0) + 1
    return {
        "m": m,
        "size": len(gens),
        "digest": generators_digest(gens),
        "histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
    }


# ---------------------------------------------------------------------------
# the file pool
# ---------------------------------------------------------------------------

def draw_file_pool() -> dict[str, str]:
    rng = random.Random("perfbench file pool")
    pool = {}
    for name in wl.FILE_POOL_FACETS:
        while True:
            m = rng.choice([8, 9, 10])
            facets = {tuple(sorted(rng.sample(range(1, m + 1), rng.choice([3, 4]))))
                      for _ in range(rng.randint(5, 9))}
            if set().union(*facets) == set(range(1, m + 1)):
                break
        pool[name] = f"vertices {m}\nfacets\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in sorted(facets))
    for name in wl.FILE_POOL_NONFACES:
        while True:
            m = rng.choice([8, 9, 10])
            nonfaces = {tuple(sorted(rng.sample(range(1, m + 1), rng.choice([2, 3]))))
                        for _ in range(rng.randint(5, 9))}
            if len(file_generators(f"vertices {m}\nnonfaces\n" + "".join(
                    " ".join(map(str, s)) + "\n" for s in nonfaces))[1]) >= 2:
                break
        pool[name] = f"vertices {m}\nnonfaces\n" + "".join(
            " ".join(map(str, s)) + "\n" for s in sorted(nonfaces))
    return pool


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def run_cli(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv) + ["--json"])
    if rc == 1:
        raise SystemExit(f"{' '.join(argv)} failed")
    return rc, json.loads(buf.getvalue())


def main() -> None:
    pool = draw_file_pool()
    files_dir = HERE / ".." / ".perfbench_out" / "record"
    files_dir.mkdir(parents=True, exist_ok=True)
    for name, text in pool.items():
        (files_dir / f"{name}.txt").write_text(text)

    sources: dict[str, list] = {}
    for n, d in (wl.FACE_LADDER_IDEALS + wl.VERDICT_CYCLIC
                 + [(16, 6), (20, 4), (14, 8), (12, 4)]):
        sources[f"cyclic {n} {d}"] = [n, cyclic_generators(n, d)]
    for src, _ in wl.WEDGE_CEILINGS:
        kind, *rest = src.split()
        if kind == "cyclic":
            sources[src] = [int(rest[0]), cyclic_generators(int(rest[0]), int(rest[1]))]
    for m in set(wl.VERDICT_POLYGONS) | {4, 5, 6, 7, 8}:
        sources[f"polygon {m}"] = [m, polygon_generators(m)]
    for name, text in pool.items():
        sources[f"file {name}"] = list(file_generators(text))

    facts = {"files": pool, "sources": {}, "faces": {}, "spectra": {}, "specs": {}}
    for src, (m, gens) in sorted(sources.items()):
        facts["sources"][src] = want = ideal_facts(m, gens)
        argv = wl._source_argv(src, str(files_dir))
        _, got = run_cli(["ideal", *argv])
        if ideal_facts(got["ideal"]["m"], got["ideal"]["generators"]) != want:
            raise SystemExit(f"ideal of {src} disagrees with the independent route")
        print(f"ideal {src}: {want['size']} generators", flush=True)

    touch_counts = [tuple(map(int, op["faces"].split()))
                    for op in wl.touch_ops() if "faces" in op]
    for n, d in wl.FACE_LADDER_COUNTS + touch_counts:
        want = evenness_face_counts(n, d)
        _, got = run_cli(["faces", str(n), str(d), "--count"])
        if got["counts"] != want:
            raise SystemExit(f"face counts of C({n},{d}) disagree: {got['counts']} vs {want}")
        facts["faces"][f"{n} {d}"] = want

    wedges = wl.WEDGE_CEILINGS + [("cyclic 12 4", 13)]
    for src, ceiling in wedges:
        dims = [2 * len(g) - 1 for g in sources[src][1]]
        want = witt_spectrum(dims, ceiling)
        if hall_is_cheap(dims, ceiling):
            hall = {str(k): v for k, v in oracles.hall_sphere_spectrum(dims, ceiling).items()}
            if hall != want:
                raise SystemExit(f"Witt and Hall disagree on {src} @{ceiling}")
            print(f"spectrum {src} @{ceiling}: Hall basis agrees", flush=True)
        _, got = run_cli(["wedge", *src.split(), "--ceiling", str(ceiling)])
        if got["wedge"]["spectrum"] != want:
            raise SystemExit(f"spectrum of {src} @{ceiling} disagrees: "
                             f"{got['wedge']['spectrum']} vs {want}")
        facts["spectra"][f"{src} @{ceiling}"] = want

    bases = [wl.HEADLINE] + [wl.mcgavran_spec(m) for m in wl.VERDICT_POLYGONS]
    specs = sorted(set(bases) | {p for b in bases for p in wl.perturbations(b)})
    for spec in specs:
        want = spec_facts(spec)
        _, got = run_cli(["homology", spec])
        mfd = got["manifold"]
        if {k: mfd[k] for k in want} != want:
            raise SystemExit(f"homology of {spec} disagrees: {mfd} vs {want}")
        facts["specs"][spec] = want
    print(f"{len(specs)} specs agree with the peeling oracle", flush=True)

    # Every verdict op that any seed can draw must run without an error.
    verdict_sources = ([f"polygon {m}" for m in wl.VERDICT_POLYGONS]
                       + [f"cyclic {n} {d}" for n, d in wl.VERDICT_CYCLIC]
                       + [f"file {name}" for name in pool])
    for src in verdict_sources:
        base = (wl.mcgavran_spec(int(src.split()[1])) if src.startswith("polygon")
                else wl.HEADLINE)
        for spec in {base, wl.HEADLINE, *wl.perturbations(base)}:
            run_cli(["verdict", *wl._source_argv(src, str(files_dir)), "--vs", spec])

    (HERE / "expected.json").write_text(json.dumps(facts, indent=1, sort_keys=True) + "\n")
    print("wrote", HERE / "expected.json")


if __name__ == "__main__":
    main()
