"""The benchmark's workloads: which CLI ops one pass runs, built from a seed.

Each op is a dict with the CLI argv (``--json`` is appended by the worker), a
``name`` that is stable across seeds, and the keys the checker uses to find
its facts in ``expected.json``:

- ``source``: the complex source, e.g. ``"cyclic 12 4"`` or ``"file f07"``;
- ``spec``: the candidate connected sum (``verdict``, ``homology``);
- ``ceiling``: the explicit spectrum ceiling (``wedge``);
- ``faces``: ``"N D"`` for ``faces N D --count``;
- ``mcgavran``: the candidate is McGavran's connected sum for a polygon, so
  a ``NOT_EQUIVALENT`` verdict is wrong (Buchstaber-Panov, Toric Topology,
  section 4.6).
"""

from __future__ import annotations

import random
from math import comb

HEADLINE = "16*S5xS7 # 15*S6xS6"

FACE_LADDER_IDEALS = [(12, 4), (16, 4), (17, 4), (11, 5), (13, 5), (12, 6),
                      (13, 6), (12, 7), (12, 8), (13, 8)]
FACE_LADDER_COUNTS = [(16, 6), (14, 8), (30, 4)]

# (source, ceiling): wide, then deep, then mixed-degree face rings.
WEDGE_CEILINGS = [
    ("polygon 8", 11), ("cyclic 10 4", 13), ("cyclic 9 4", 17), ("polygon 7", 15),
    ("polygon 4", 41), ("polygon 5", 35), ("polygon 6", 19), ("cyclic 8 4", 25),
    ("cyclic 9 3", 13), ("cyclic 9 5", 15), ("cyclic 10 7", 21), ("cyclic 12 3", 7),
]

VERDICT_POLYGONS = list(range(4, 13))
# C(n, d) with n <= 10 and d <= n - 2 (d = n - 1 is a simplex boundary with a
# single ideal generator, which has no relation degree).
VERDICT_CYCLIC = [(n, d) for n in range(5, 11) for d in range(3, n - 1)]
FILE_POOL_FACETS = [f"f{i:02d}" for i in range(12)]
FILE_POOL_NONFACES = [f"n{i:02d}" for i in range(12)]
FILES_PER_KIND = 4

# Two tiny ops that end every traced pass, so that every layer is called, and
# its busy time measured, on every workload: `faces` is the only op that calls
# gale, and a polygon verdict calls every other layer.  They add about 1 % to
# the smallest traced pass.
TOUCH_OPS = [
    ("touch_faces_C7_3", ["faces", "7", "3", "--count"], {"faces": "7 3"}),
    ("touch_verdict_P4", ["verdict", "polygon", "4", "--vs", "1*S3xS3"],
     {"source": "polygon 4", "spec": "1*S3xS3"}),
]

# Large ladder cases run once in the traced run only (single samples).
PROBES = {
    "probe.ideal_C16_6_s": "ideal cyclic 16 6",
    "probe.ideal_C20_4_s": "ideal cyclic 20 4",
    "probe.ideal_C14_8_s": "ideal cyclic 14 8",
    "probe.wedge_C12_4_c13_s": "wedge cyclic 12 4 --ceiling 13",
}


def format_spec(parts) -> str:
    """Canonical text of a connected sum given (mult, a, b) triples, merged and
    sorted the way the CLI normalises specs."""
    merged: dict[tuple[int, int], int] = {}
    for mult, a, b in parts:
        key = (min(a, b), max(a, b))
        merged[key] = merged.get(key, 0) + mult
    return " # ".join(f"{k}*S{a}xS{b}" for (a, b), k in sorted(merged.items()))


def parse_spec(text: str) -> list[tuple[int, int, int]]:
    parts = []
    for part in text.split(" # "):
        mult, prod = part.split("*")
        a, b = prod[1:].split("xS")
        parts.append((int(mult), int(a), int(b)))
    return parts


def mcgavran_spec(m: int) -> str:
    """Z_K for the m-gon: # over k = 3..m-1 of (k-2) C(m-2, k-1) S^k x S^(m+2-k)."""
    return format_spec(
        ((k - 2) * comb(m - 2, k - 1), k, m + 2 - k) for k in range(3, m)
    )


def perturbations(spec: str) -> list[str]:
    """Specs one step away from `spec`: one multiplicity up or down, or one
    summand's factors moved to S^(a-1) x S^(b+1)."""
    parts = parse_spec(spec)
    out = []
    for i, (mult, a, b) in enumerate(parts):
        rest = parts[:i] + parts[i + 1:]
        out.append(format_spec(rest + [(mult + 1, a, b)]))
        if mult > 1:
            out.append(format_spec(rest + [(mult - 1, a, b)]))
        elif rest:
            out.append(format_spec(rest))
        if a > 2:
            out.append(format_spec(rest + [(mult, a - 1, b + 1)]))
    return sorted(set(out) - {spec})


def _op(name, argv, **keys):
    return {"name": name, "argv": argv, **keys}


def _source_argv(source: str, files_dir: str) -> list[str]:
    kind, *rest = source.split()
    if kind == "file":
        return ["file", f"{files_dir}/{rest[0]}.txt"]
    return [kind, *rest]


def _source_label(source: str) -> str:
    kind, *rest = source.split()
    if kind == "cyclic":
        return "C" + "_".join(rest)
    if kind == "polygon":
        return "P" + rest[0]
    return rest[0]


def face_ladder(rng: random.Random, files_dir: str) -> list[dict]:
    ops = [
        _op(f"ideal_C{n}_{d}", ["ideal", "cyclic", str(n), str(d)],
            source=f"cyclic {n} {d}")
        for n, d in FACE_LADDER_IDEALS
    ]
    ops += [
        _op(f"faces_C{n}_{d}", ["faces", str(n), str(d), "--count"], faces=f"{n} {d}")
        for n, d in FACE_LADDER_COUNTS
    ]
    rng.shuffle(ops)
    return ops


def wedge_ceiling(rng: random.Random, files_dir: str) -> list[dict]:
    ops = [
        _op(f"wedge_{_source_label(src)}_c{c}",
            ["wedge", *src.split(), "--ceiling", str(c)], source=src, ceiling=c)
        for src, c in WEDGE_CEILINGS
    ]
    rng.shuffle(ops)
    return ops


def verdict_sources(rng: random.Random) -> list[str]:
    """Every source of one verdict_batch pass: all polygons and small cyclic
    polytopes, plus a seeded draw from the pool of file complexes."""
    return (
        [f"polygon {m}" for m in VERDICT_POLYGONS]
        + [f"cyclic {n} {d}" for n, d in VERDICT_CYCLIC]
        + [f"file {f}" for f in sorted(rng.sample(FILE_POOL_FACETS, FILES_PER_KIND))]
        + [f"file {f}" for f in sorted(rng.sample(FILE_POOL_NONFACES, FILES_PER_KIND))]
    )


def verdict_batch(rng: random.Random, files_dir: str) -> list[dict]:
    ops = []
    sources = verdict_sources(rng)
    file_slot = 0
    for src in sources:
        label = _source_label(src)
        if src.startswith("file"):
            file_slot += 1
            label = f"file{file_slot}"
        argv = _source_argv(src, files_dir)
        if src.startswith("polygon"):
            base = mcgavran_spec(int(src.split()[1]))
            ops.append(_op(f"verdict_{label}_mcgavran", ["verdict", *argv, "--vs", base],
                           source=src, spec=base, mcgavran=True))
        else:
            base = HEADLINE
        perturbed = rng.choice(perturbations(base))
        ops.append(_op(f"verdict_{label}_headline", ["verdict", *argv, "--vs", HEADLINE],
                       source=src, spec=HEADLINE))
        ops.append(_op(f"verdict_{label}_perturbed", ["verdict", *argv, "--vs", perturbed],
                       source=src, spec=perturbed))
        ops.append(_op(f"homology_{label}_perturbed", ["homology", perturbed],
                       spec=perturbed))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "face_ladder": face_ladder,
    "wedge_ceiling": wedge_ceiling,
    "verdict_batch": verdict_batch,
}


def build(workload: str, seed: int, files_dir: str) -> list[dict]:
    """The ops of one pass of `workload` for `seed`, in run order."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), files_dir)


def touch_ops() -> list[dict]:
    return [_op(name, argv, **keys) for name, argv, keys in TOUCH_OPS]


def probe_ops() -> list[dict]:
    ops = []
    for name, text in PROBES.items():
        argv = text.split()
        op = _op(name, argv, source=" ".join(argv[1:4]))
        if "--ceiling" in argv:
            op["ceiling"] = int(argv[-1])
        ops.append(op)
    return ops


def repeat_share(ops: list[dict]) -> float:
    """Share of ops with an input (complex source or candidate spec) that an
    earlier op of the same pass already used."""
    seen = set()
    repeats = 0
    for op in ops:
        inputs = {("source", op.get("source")), ("spec", op.get("spec"))} - {
            ("source", None), ("spec", None)}
        if inputs & seen:
            repeats += 1
        seen |= inputs
    return repeats / len(ops)
