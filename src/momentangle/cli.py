"""Command-line pipeline: complex -> face ring -> minimal relation degree ->
wedge model, compared degree by degree against a candidate connected sum of
sphere products.  Text or JSON reports; exit code 0 means NOT_EQUIVALENT was
established, 2 means INCONCLUSIVE, 1 means error."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path

from . import complexes, hilton, manifold, syzygy
from .complexes import FaceRingPresentation, Monomial
from .gale import CyclicParams, enumerate_faces, f_vector

__all__ = ["VerdictReport", "CliError", "build_verdict_report", "main", "run"]

COUNTEREXAMPLE_SOURCE = ("cyclic", "8", "4")
COUNTEREXAMPLE_MANIFOLD = "16*S5xS7 # 15*S6xS6"
# Face rings kept for repeated sources across the in-process calls of one
# interpreter (a benchmark pass, a test session).
SOURCE_CACHE_SIZE = 64


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for INCONCLUSIVE
        raise CliError(message)


@dataclass(frozen=True)
class VerdictReport:
    """Everything one comparison run established, in emission order."""

    input: dict
    ideal: dict
    rmin: dict
    wedge: dict
    manifold: dict
    comparison: dict
    verdict: str


# ---------------------------------------------------------------------------
# source resolution and report blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=SOURCE_CACHE_SIZE)
def _face_ring(kind: str, key) -> FaceRingPresentation:
    """The face ring of a source, keyed by its CyclicParams, its polygon size
    or its file's text, so an edited file is never served stale.  Face rings
    are frozen, so every caller may share one; a failed build is not kept."""
    if kind == "cyclic":
        return complexes.from_cyclic(key)
    if kind == "polygon":
        return complexes.from_polygon(key)
    return complexes.parse_complex(key)


def _resolve_source(tokens) -> tuple[FaceRingPresentation, dict]:
    """The face ring of a source given as CLI tokens, and its JSON descriptor."""
    usage = "source must be 'cyclic N D', 'polygon M', or 'file PATH'"
    kind = tokens[0] if tokens else None
    try:
        if kind == "cyclic" and len(tokens) == 3:
            p = CyclicParams(int(tokens[1]), int(tokens[2]))
            descriptor = {"kind": "cyclic", "n": p.n, "d": p.d}
            F = _face_ring(kind, p)
        elif kind == "polygon" and len(tokens) == 2:
            m = int(tokens[1])
            F, descriptor = _face_ring(kind, m), {"kind": "polygon", "m": m}
        elif kind == "file" and len(tokens) == 2:
            path = tokens[1]
            F = _face_ring(kind, Path(path).read_text())
            descriptor = {"kind": "file", "path": path}
        else:
            raise CliError(usage)
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from exc
    return F, descriptor


def _ideal_block(F: FaceRingPresentation) -> dict:
    return {
        "m": F.m,
        "size": len(F.generators),
        "generators": [list(g.support) for g in F.generators],
        "degree_histogram": {str(d): c for d, c in F.degree_histogram().items()},
    }


def _witness_block(F: FaceRingPresentation, rel: syzygy.RelationAmongRelations) -> dict:
    return {
        "i": rel.i,
        "j": rel.j,
        "generator_i": list(F.generators[rel.i].support),
        "generator_j": list(F.generators[rel.j].support),
        "multiplier_i": list(rel.multiplier_i.support),
        "multiplier_j": list(rel.multiplier_j.support),
        "degree": rel.degree,
    }


def _wedge_block(shown: hilton.SphereSpectrum, q_max: int, m: int) -> dict:
    return {
        "spectrum": {str(k): v for k, v in sorted(shown.entries.items())},
        "ceiling": shown.ceiling,
        "q_max": q_max,
        "pi2_rank": m,
    }


def _manifold_block(spec: manifold.ConnectedSumSpec, g: manifold.GradedRanks) -> dict:
    return {
        "spec": manifold.format_connected_sum(spec),
        "top": g.top,
        "ranks": {str(k): v for k, v in sorted(g.ranks.items())},
        "poincare": manifold.poincare_check(g),
        "euler": manifold.euler_characteristic(g),
    }


def build_verdict_report(source_tokens, manifold_text: str, q: int | None = None,
                         extra_notes: tuple[str, ...] = ()) -> VerdictReport:
    F, descriptor = _resolve_source(source_tokens)
    if F.is_trivial:
        raise CliError("the ideal is empty (full simplex): nothing to compare")
    rmin_degree, witness = syzygy.min_relation_degree(F)
    wedge = hilton.borel_model(F, rmin_degree)
    spec = manifold.parse_connected_sum(manifold_text)
    g = manifold.connected_sum_homology(spec)
    hur_max = manifold.hurewicz_window(g)

    q_low, q_high = 3, min(wedge.ceiling, hur_max)
    notes = [
        f"wedge model valid for 3 <= q <= {wedge.ceiling}",
        f"homology determines homotopy ranks for q <= {hur_max}",
        *extra_notes,
    ]
    if q is not None:
        if not q_low <= q <= q_high:
            raise CliError(
                f"q={q} outside the joint validity window: the wedge model needs "
                f"3 <= q <= {wedge.ceiling}, the homology side needs q <= {hur_max}"
            )
        degrees = [q]
    elif q_high < q_low:
        degrees = []
        notes.append("no admissible comparison degrees: joint window is empty")
    else:
        degrees = list(range(q_low, q_high + 1))

    table = [
        {"q": d, "wedge_rank": wedge.entries.get(d, 0), "manifold_rank": g.rank(d)}
        for d in degrees
    ]
    first_diff = next(
        (row["q"] for row in table if row["wedge_rank"] != row["manifold_rank"]), None
    )
    verdict = "NOT_EQUIVALENT" if first_diff is not None else "INCONCLUSIVE"
    comparison = {
        "window_low": q_low,
        "window_high": q_high,
        "table": table,
        "first_difference": first_diff,
        "notes": notes,
    }
    return VerdictReport(
        input={"source": descriptor, "manifold": manifold.format_connected_sum(spec)},
        ideal=_ideal_block(F),
        rmin={"degree": rmin_degree, "witness": _witness_block(F, witness)},
        wedge=_wedge_block(wedge, wedge.ceiling, F.m),
        manifold=_manifold_block(spec, g),
        comparison=comparison,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _witness_text(witness: dict) -> str:
    gi, gj, mi, mj = (
        str(Monomial(tuple(witness[key])))
        for key in ("generator_i", "generator_j", "multiplier_i", "multiplier_j")
    )
    return f"({gi}) * {mi} == ({gj}) * {mj}"


def _print_generators(supports, per_row: int = 4) -> None:
    gens = [str(Monomial(tuple(s))) for s in supports]
    for i in range(0, len(gens), per_row):
        print("  " + "  ".join(gens[i : i + per_row]))


def _describe_source(descriptor: dict) -> str:
    kind = descriptor["kind"]
    if kind == "cyclic":
        return f"cyclic polytope C({descriptor['n']},{descriptor['d']})"
    if kind == "polygon":
        return f"dual of the {descriptor['m']}-gon"
    return f"complex from {descriptor['path']}"


def _print_report(report: VerdictReport, quiet: bool) -> None:
    comparison = report.comparison
    if not quiet:
        print(f"input complex: {_describe_source(report.input['source'])}")
        print(f"candidate manifold: {report.input['manifold']}")
        print()
        ideal = report.ideal
        print(f"face ring: {ideal['m']} variables, |I| = {ideal['size']} generators")
        _print_generators(ideal["generators"])
        print(f"minimal relation degree: {report.rmin['degree']}")
        print(f"  witness: {_witness_text(report.rmin['witness'])}")
        wedge = report.wedge
        print(
            f"wedge model: spheres {wedge['spectrum']}, "
            f"valid window 3 <= q <= {wedge['q_max']}, degree-2 rank {wedge['pi2_rank']}"
        )
        print()
        mfd = report.manifold
        ranks = "  ".join(f"{k}:{v}" for k, v in mfd["ranks"].items())
        print(f"manifold homology ranks: {ranks}")
        print(
            f"  Poincare symmetric: {'yes' if mfd['poincare'] else 'no'}   "
            f"Euler characteristic: {mfd['euler']}"
        )
        print()
        for note in comparison["notes"]:
            print(f"note: {note}")
        if comparison["table"]:
            print()
            print("  q   wedge side   manifold side")
            for row in comparison["table"]:
                marker = "   <-- differs" if row["wedge_rank"] != row["manifold_rank"] else ""
                print(
                    f"  {row['q']:<3} {row['wedge_rank']:<12} "
                    f"{row['manifold_rank']:<13}{marker}"
                )
        print()
    if comparison["first_difference"] is not None:
        q = comparison["first_difference"]
        row = next(r for r in comparison["table"] if r["q"] == q)
        print(
            f"verdict: NOT_EQUIVALENT (rational homotopy ranks differ in degree {q}: "
            f"{row['wedge_rank']} vs {row['manifold_rank']})"
        )
    else:
        print(
            "verdict: INCONCLUSIVE (ranks agree at every admissible degree; "
            "agreement does not establish equivalence)"
        )


def _finish_report(report: VerdictReport, args) -> int:
    """Emit the report as JSON or text; the exit code carries the verdict."""
    if args.json:
        _emit_json(vars(report))
    else:
        _print_report(report, quiet=args.quiet)
    return 0 if report.verdict == "NOT_EQUIVALENT" else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_faces(args) -> int:
    p = CyclicParams(args.n, args.d)
    max_card = args.max_card if args.max_card is not None else p.d
    if not 0 <= max_card <= p.d:
        raise ValueError(f"max_card must lie in 0..{p.d}, got {max_card}")
    faces = [] if args.count else enumerate_faces(p, max_card)
    counts = {str(k): f for k, f in enumerate(f_vector(p)[:max_card], start=1)}
    if args.json:
        payload = {
            "input": {"kind": "cyclic", "n": p.n, "d": p.d, "max_card": max_card},
            "counts": counts,
        }
        if not args.count:
            payload["faces"] = [list(face) for face in faces]
        _emit_json(payload)
        return 0
    if not args.quiet:
        print(f"faces of C({p.n},{p.d}) with at most {max_card} vertices")
    for k, c in counts.items():
        print(f"cardinality {k}: {c}")
    if not args.quiet:
        for face in faces:
            print(" ".join(map(str, face)))
    return 0


def cmd_ideal(args) -> int:
    F, descriptor = _resolve_source(args.source)
    if args.json:
        _emit_json({"input": {"source": descriptor}, "ideal": _ideal_block(F)})
        return 0
    print(
        f"face ring of {_describe_source(descriptor)}: "
        f"{F.m} variables, |I| = {len(F.generators)}"
    )
    if F.is_trivial:
        print("  (empty ideal: the complex is a full simplex)")
        return 0
    if not args.quiet:
        hist = ", ".join(f"degree {d}: {c}" for d, c in F.degree_histogram().items())
        print(f"degree histogram: {hist}")
        _print_generators(g.support for g in F.generators)
    return 0


def cmd_syzmin(args) -> int:
    F, descriptor = _resolve_source(args.source)
    degree, witness = syzygy.min_relation_degree(F)
    if args.json:
        _emit_json(
            {
                "input": {"source": descriptor},
                "ideal": _ideal_block(F),
                "rmin": {"degree": degree, "witness": _witness_block(F, witness)},
            }
        )
        return 0
    print(f"minimal relation degree for {_describe_source(descriptor)}: {degree}")
    if not args.quiet:
        print(f"  witness: {_witness_text(_witness_block(F, witness))}")
    return 0


def cmd_wedge(args) -> int:
    F, descriptor = _resolve_source(args.source)
    rmin_degree, _ = syzygy.min_relation_degree(F)
    shown = hilton.borel_model(F, rmin_degree)
    q_max = shown.ceiling
    if args.ceiling is not None:
        dims = [g.degree - 1 for g in F.generators]
        shown = hilton.wedge_spectrum(dims, args.ceiling)
    notes = []
    if shown.ceiling > q_max:
        notes.append(f"entries above q_max={q_max} lie outside the validated window")
    if args.json:
        _emit_json(
            {
                "input": {"source": descriptor},
                "ideal": _ideal_block(F),
                "rmin": {"degree": rmin_degree},
                "wedge": {**_wedge_block(shown, q_max, F.m), "notes": notes},
            }
        )
        return 0
    print(f"wedge model for {_describe_source(descriptor)}")
    print(f"  sphere spectrum (ceiling {shown.ceiling}): "
          + (", ".join(f"S^{k} x{v}" for k, v in sorted(shown.entries.items())) or "(none)"))
    print(f"  valid window: 3 <= q <= {q_max}; degree-2 rank: {F.m}")
    for note in notes:
        print(f"  note: {note}")
    return 0


def cmd_homology(args) -> int:
    spec = manifold.parse_connected_sum(args.spec)
    g = manifold.connected_sum_homology(spec)
    block = _manifold_block(spec, g)
    if args.json:
        _emit_json({"manifold": block})
        return 0
    print(f"homology ranks of {block['spec']} (top dimension {block['top']})")
    for k, v in block["ranks"].items():
        print(f"  degree {k}: {v}")
    print(f"Poincare symmetric: {'yes' if block['poincare'] else 'no'}")
    print(f"Euler characteristic: {block['euler']}")
    return 0


def cmd_verdict(args) -> int:
    report = build_verdict_report(args.source, args.vs, q=args.q)
    return _finish_report(report, args)


def cmd_counterexample(args) -> int:
    report = build_verdict_report(
        COUNTEREXAMPLE_SOURCE,
        COUNTEREXAMPLE_MANIFOLD,
        extra_notes=(
            "cyclic parameters normalized to n=8 vertices in dimension d=4",
        ),
    )
    return _finish_report(report, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    shared = _Parser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a machine-readable JSON report")
    shared.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="print only the headline result")

    parser = _Parser(
        prog="momentangle",
        description=(
            "Face rings of cyclic polytopes, minimal relation degrees, wedge "
            "models of moment-angle complexes, and rational-homotopy "
            "comparisons against connected sums of sphere products."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--quiet", action="store_true", help="headline output only")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    src_help = "'cyclic N D', 'polygon M', or 'file PATH'"

    p = sub.add_parser("faces", parents=[shared], help="enumerate faces of C(n,d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--max-card", type=int, default=None,
                   help="largest face cardinality to list (default d)")
    p.add_argument("--count", action="store_true", help="print counts only")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("ideal", parents=[shared],
                       help="minimal non-face generators of the face ring")
    p.add_argument("source", nargs="+", help=src_help)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("syzmin", parents=[shared],
                       help="minimal relation-among-relations degree")
    p.add_argument("source", nargs="+", help=src_help)
    p.set_defaults(func=cmd_syzmin)

    p = sub.add_parser("wedge", parents=[shared],
                       help="sphere spectrum of the wedge model")
    p.add_argument("source", nargs="+", help=src_help)
    p.add_argument("--ceiling", type=int, default=None,
                   help="truncation ceiling for the displayed spectrum")
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("homology", parents=[shared],
                       help="graded homology ranks of a connected sum")
    p.add_argument("spec", help="e.g. '16*S5xS7 # 15*S6xS6'")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verdict", parents=[shared],
                       help="compare wedge-side and manifold-side homotopy ranks")
    p.add_argument("source", nargs="+", help=src_help)
    p.add_argument("--vs", required=True, metavar="SPEC",
                   help="candidate connected sum, e.g. '16*S5xS7 # 15*S6xS6'")
    p.add_argument("--q", type=int, default=None,
                   help="compare a single degree instead of scanning")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("counterexample", parents=[shared],
                       help="run the full C(8,4) pipeline with all artifacts")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
