"""Command-line pipeline: complex -> face ring -> minimal relation degree ->
wedge model, compared degree by degree against a candidate connected sum of
sphere products.  Each subcommand builds one report, the dict that `--json`
prints; its text is a view of that dict.  Exit code 0 means NOT_EQUIVALENT
was established (or no verdict was asked for), 2 means INCONCLUSIVE, 1 means
error."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, lru_cache
from pathlib import Path

from . import complexes, hilton, manifold, syzygy
from .complexes import FaceRingPresentation, Monomial
from .gale import CyclicParams, enumerate_faces, f_vector

__all__ = ["CliError", "build_verdict_report", "main", "run"]

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
                         extra_notes: tuple[str, ...] = ()) -> dict:
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
    return {
        "input": {"source": descriptor, "manifold": manifold.format_connected_sum(spec)},
        "ideal": _ideal_block(F),
        "rmin": {"degree": rmin_degree, "witness": _witness_block(F, witness)},
        "wedge": _wedge_block(wedge, wedge.ceiling, F.m),
        "manifold": _manifold_block(spec, g),
        "comparison": comparison,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# text views: each reads only its subcommand's report and yields lines
# ---------------------------------------------------------------------------

def _witness_text(witness: dict) -> str:
    gi, gj, mi, mj = (
        str(Monomial(tuple(witness[key])))
        for key in ("generator_i", "generator_j", "multiplier_i", "multiplier_j")
    )
    return f"({gi}) * {mi} == ({gj}) * {mj}"


def _generator_rows(supports, per_row: int = 4):
    gens = [str(Monomial(tuple(s))) for s in supports]
    for i in range(0, len(gens), per_row):
        yield "  " + "  ".join(gens[i : i + per_row])


def _describe_source(descriptor: dict) -> str:
    kind = descriptor["kind"]
    if kind == "cyclic":
        return f"cyclic polytope C({descriptor['n']},{descriptor['d']})"
    if kind == "polygon":
        return f"dual of the {descriptor['m']}-gon"
    return f"complex from {descriptor['path']}"


def text_faces(report: dict, quiet: bool):
    inp = report["input"]
    if not quiet:
        yield f"faces of C({inp['n']},{inp['d']}) with at most {inp['max_card']} vertices"
    for k, c in report["counts"].items():
        yield f"cardinality {k}: {c}"
    if not quiet:
        for face in report.get("faces", ()):
            yield " ".join(map(str, face))


def text_ideal(report: dict, quiet: bool):
    ideal = report["ideal"]
    yield (
        f"face ring of {_describe_source(report['input']['source'])}: "
        f"{ideal['m']} variables, |I| = {ideal['size']}"
    )
    if not ideal["size"]:
        yield "  (empty ideal: the complex is a full simplex)"
    elif not quiet:
        hist = ", ".join(f"degree {d}: {c}" for d, c in ideal["degree_histogram"].items())
        yield f"degree histogram: {hist}"
        yield from _generator_rows(ideal["generators"])


def text_syzmin(report: dict, quiet: bool):
    rmin = report["rmin"]
    source = _describe_source(report["input"]["source"])
    yield f"minimal relation degree for {source}: {rmin['degree']}"
    if not quiet:
        yield f"  witness: {_witness_text(rmin['witness'])}"


def text_wedge(report: dict, quiet: bool):
    wedge = report["wedge"]
    yield f"wedge model for {_describe_source(report['input']['source'])}"
    spheres = ", ".join(f"S^{k} x{v}" for k, v in wedge["spectrum"].items())
    yield f"  sphere spectrum (ceiling {wedge['ceiling']}): {spheres or '(none)'}"
    yield f"  valid window: 3 <= q <= {wedge['q_max']}; degree-2 rank: {wedge['pi2_rank']}"
    for note in wedge["notes"]:
        yield f"  note: {note}"


def text_homology(report: dict, quiet: bool):
    block = report["manifold"]
    yield f"homology ranks of {block['spec']} (top dimension {block['top']})"
    for k, v in block["ranks"].items():
        yield f"  degree {k}: {v}"
    yield f"Poincare symmetric: {'yes' if block['poincare'] else 'no'}"
    yield f"Euler characteristic: {block['euler']}"


def text_verdict(report: dict, quiet: bool):
    comparison = report["comparison"]
    if not quiet:
        yield f"input complex: {_describe_source(report['input']['source'])}"
        yield f"candidate manifold: {report['input']['manifold']}"
        yield ""
        ideal = report["ideal"]
        yield f"face ring: {ideal['m']} variables, |I| = {ideal['size']} generators"
        yield from _generator_rows(ideal["generators"])
        yield f"minimal relation degree: {report['rmin']['degree']}"
        yield f"  witness: {_witness_text(report['rmin']['witness'])}"
        wedge = report["wedge"]
        yield (
            f"wedge model: spheres {wedge['spectrum']}, "
            f"valid window 3 <= q <= {wedge['q_max']}, degree-2 rank {wedge['pi2_rank']}"
        )
        yield ""
        mfd = report["manifold"]
        ranks = "  ".join(f"{k}:{v}" for k, v in mfd["ranks"].items())
        yield f"manifold homology ranks: {ranks}"
        yield (
            f"  Poincare symmetric: {'yes' if mfd['poincare'] else 'no'}   "
            f"Euler characteristic: {mfd['euler']}"
        )
        yield ""
        for note in comparison["notes"]:
            yield f"note: {note}"
        if comparison["table"]:
            yield ""
            yield "  q   wedge side   manifold side"
            for row in comparison["table"]:
                marker = "   <-- differs" if row["wedge_rank"] != row["manifold_rank"] else ""
                yield (
                    f"  {row['q']:<3} {row['wedge_rank']:<12} "
                    f"{row['manifold_rank']:<13}{marker}"
                )
        yield ""
    if comparison["first_difference"] is not None:
        q = comparison["first_difference"]
        row = next(r for r in comparison["table"] if r["q"] == q)
        yield (
            f"verdict: NOT_EQUIVALENT (rational homotopy ranks differ in degree {q}: "
            f"{row['wedge_rank']} vs {row['manifold_rank']})"
        )
    else:
        yield (
            "verdict: INCONCLUSIVE (ranks agree at every admissible degree; "
            "agreement does not establish equivalence)"
        )


# ---------------------------------------------------------------------------
# subcommands: each returns its report
# ---------------------------------------------------------------------------

def cmd_faces(args) -> dict:
    p = CyclicParams(args.n, args.d)
    max_card = args.max_card if args.max_card is not None else p.d
    if not 0 <= max_card <= p.d:
        raise ValueError(f"max_card must lie in 0..{p.d}, got {max_card}")
    report = {
        "input": {"kind": "cyclic", "n": p.n, "d": p.d, "max_card": max_card},
        "counts": {str(k): f for k, f in enumerate(f_vector(p)[:max_card], start=1)},
    }
    if not args.count:
        report["faces"] = [list(face) for face in enumerate_faces(p, max_card)]
    return report


def cmd_ideal(args) -> dict:
    F, descriptor = _resolve_source(args.source)
    return {"input": {"source": descriptor}, "ideal": _ideal_block(F)}


def cmd_syzmin(args) -> dict:
    F, descriptor = _resolve_source(args.source)
    degree, witness = syzygy.min_relation_degree(F)
    return {
        "input": {"source": descriptor},
        "ideal": _ideal_block(F),
        "rmin": {"degree": degree, "witness": _witness_block(F, witness)},
    }


def cmd_wedge(args) -> dict:
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
    return {
        "input": {"source": descriptor},
        "ideal": _ideal_block(F),
        "rmin": {"degree": rmin_degree},
        "wedge": {**_wedge_block(shown, q_max, F.m), "notes": notes},
    }


def cmd_homology(args) -> dict:
    spec = manifold.parse_connected_sum(args.spec)
    return {"manifold": _manifold_block(spec, manifold.connected_sum_homology(spec))}


def cmd_verdict(args) -> dict:
    return build_verdict_report(args.source, args.vs, q=args.q)


def cmd_counterexample(args) -> dict:
    return build_verdict_report(
        COUNTEREXAMPLE_SOURCE,
        COUNTEREXAMPLE_MANIFOLD,
        extra_notes=(
            "cyclic parameters normalized to n=8 vertices in dimension d=4",
        ),
    )


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
    p.set_defaults(func=cmd_faces, text=text_faces)

    p = sub.add_parser("ideal", parents=[shared],
                       help="minimal non-face generators of the face ring")
    p.add_argument("source", nargs="+", help=src_help)
    p.set_defaults(func=cmd_ideal, text=text_ideal)

    p = sub.add_parser("syzmin", parents=[shared],
                       help="minimal relation-among-relations degree")
    p.add_argument("source", nargs="+", help=src_help)
    p.set_defaults(func=cmd_syzmin, text=text_syzmin)

    p = sub.add_parser("wedge", parents=[shared],
                       help="sphere spectrum of the wedge model")
    p.add_argument("source", nargs="+", help=src_help)
    p.add_argument("--ceiling", type=int, default=None,
                   help="truncation ceiling for the displayed spectrum")
    p.set_defaults(func=cmd_wedge, text=text_wedge)

    p = sub.add_parser("homology", parents=[shared],
                       help="graded homology ranks of a connected sum")
    p.add_argument("spec", help="e.g. '16*S5xS7 # 15*S6xS6'")
    p.set_defaults(func=cmd_homology, text=text_homology)

    p = sub.add_parser("verdict", parents=[shared],
                       help="compare wedge-side and manifold-side homotopy ranks")
    p.add_argument("source", nargs="+", help=src_help)
    p.add_argument("--vs", required=True, metavar="SPEC",
                   help="candidate connected sum, e.g. '16*S5xS7 # 15*S6xS6'")
    p.add_argument("--q", type=int, default=None,
                   help="compare a single degree instead of scanning")
    p.set_defaults(func=cmd_verdict, text=text_verdict)

    p = sub.add_parser("counterexample", parents=[shared],
                       help="run the full C(8,4) pipeline with all artifacts")
    p.set_defaults(func=cmd_counterexample, text=text_verdict)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its report as JSON or as its text view.

    The report is built, and its text rendered, before anything is printed,
    so a failing command prints only its error line."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
        if args.json:
            out = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            out = "".join(f"{line}\n" for line in args.text(report, args.quiet))
        sys.stdout.write(out)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if report.get("verdict") == "INCONCLUSIVE" else 0


def run() -> None:
    sys.exit(main())
