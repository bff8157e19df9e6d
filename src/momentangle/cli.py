"""Command-line pipeline: complex -> face ring -> homology of the
moment-angle complex Z_K by Hochster's formula, compared degree by degree and
field by field against a candidate connected sum of sphere products.  Each
subcommand builds one report, the dict that `--json` prints; its text is a
view of that dict.  Exit code 0 means NOT_EQUIVALENT was established (or no
verdict was asked for), 2 means INCONCLUSIVE, 1 means error.

Every shell call pays for start-up, so importing this module loads, besides
the package, only `itertools`, `math` and the C accelerators `_functools`,
`_json` and `_operator` of the standard library, and no pure-Python module
beyond those the interpreter starts with: no `argparse`, `re`, `json`,
`dataclasses`, `collections`, `functools`, `operator` or `__future__`
(annotations are not deferred, so each is evaluated when its function is
defined).  One table,
`COMMANDS`, declares the subcommands, their arguments and their help; it
and the parser's view of it are built at import, so a call only reads them.
The parser reads an argv as argparse did and words its errors as argparse
did, but takes no abbreviated option names."""

import sys
from _functools import _lru_cache_wrapper
from _json import encode_basestring_ascii
from itertools import chain

from . import complexes, hilton, hochster, manifold, syzygy
from .complexes import FaceRingPresentation
from .gale import CyclicParams, Record, enumerate_faces, f_vector

__all__ = ["build_verdict_report", "main", "run"]

COUNTEREXAMPLE_SOURCE = ("cyclic", "8", "4")
COUNTEREXAMPLE_MANIFOLD = "16*S5xS7 # 15*S6xS6"
FIELD_NAMES = tuple(f"GF({p})" for p in hochster.FIELDS)
COUNTEREXAMPLE_NOTES = (
    "Z_K and the candidate have the same homology over every field: both are "
    "formal 4-connected closed 12-manifolds with isomorphic rational cohomology "
    "rings, so they are rationally homotopy equivalent and no rank comparison "
    "separates them",
)
# Face rings, their relation and wedge facts, their
# generator rows as the report writer renders them, and parsed candidates
# kept for repeated inputs across the in-process calls of one interpreter (a
# benchmark pass, a test session).
SOURCE_CACHE_SIZE = 64


class _CacheInfo(Record):
    """A cache's counts, as `functools.lru_cache`'s `cache_info()` gives them."""

    __slots__ = ()

    def __new__(cls, hits: int, misses: int, maxsize: int, currsize: int):
        return super().__new__(cls, (hits, misses, maxsize, currsize))


def _source_cache(function):
    """`function` kept as `functools.lru_cache(maxsize=SOURCE_CACHE_SIZE)`
    keeps it, by the C object that lru_cache itself returns, so a hit costs
    what it costs there, without importing `functools`.  A call that raises
    is not kept; `cache_info()` and `cache_clear()` are lru_cache's."""
    wrapper = _lru_cache_wrapper(function, SOURCE_CACHE_SIZE, False, _CacheInfo)
    for name in ("__module__", "__name__", "__qualname__", "__doc__", "__annotations__"):
        setattr(wrapper, name, getattr(function, name))
    wrapper.__wrapped__ = function
    return wrapper


# ---------------------------------------------------------------------------
# source resolution and report blocks
# ---------------------------------------------------------------------------

@_source_cache
def _face_ring(key) -> FaceRingPresentation:
    """The face ring of a source, keyed by its CyclicParams (a polygon's
    included) or its file's text, so an edited file is never served stale.
    Face rings are frozen, so every caller may share one; a failed build is
    not kept."""
    if isinstance(key, CyclicParams):
        return complexes.from_cyclic(key)
    return complexes.parse_complex(key)


def _integer(token: str, usage: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{usage}; {token!r} is not an integer") from None


def _resolve_source(tokens) -> tuple[FaceRingPresentation, dict]:
    """The face ring of a source given as CLI tokens, and its JSON
    descriptor; `polygon M` is C(M, 2)."""
    usage = "source must be 'cyclic N D', 'polygon M', or 'file PATH'"
    kind = tokens[0] if tokens else None
    if kind == "cyclic" and len(tokens) == 3:
        p = CyclicParams(_integer(tokens[1], usage), _integer(tokens[2], usage))
        return _face_ring(p), {"kind": "cyclic", "n": p.n, "d": p.d}
    if kind == "polygon" and len(tokens) == 2:
        m = _integer(tokens[1], usage)
        return _face_ring(CyclicParams(m, 2)), {"kind": "polygon", "m": m}
    if kind == "file" and len(tokens) == 2:
        path = tokens[1]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(str(exc)) from exc
        return _face_ring(text), {"kind": "file", "path": path}
    raise ValueError(usage)


@_source_cache
def _relation(F: FaceRingPresentation) -> tuple[int, tuple[int, int]]:
    """The minimal relation degree of a face ring and the generator pair that
    reaches it, computed once per ring."""
    return syzygy.min_relation_degree(F)


@_source_cache
def _spectrum(F: FaceRingPresentation, ceiling: int) -> tuple[tuple[int, int], ...]:
    """The sphere spectrum of a face ring's wedge model up to `ceiling`, as
    sorted (dimension, multiplicity) pairs, computed once per ring and
    ceiling.  Each ideal generator of degree 2s gives a sphere S^(2s - 1),
    so the wedge's histogram is the ring's, each degree less one."""
    shown = hilton.wedge_spectrum({degree - 1: n for degree, n in F.histogram}, ceiling)
    return tuple(sorted(shown.entries.items()))


class _Candidate(Record):
    """What a report reads of a candidate connected sum: its canonical text,
    top dimension, sorted (degree, rank) pairs, Poincare check and Euler
    characteristic.  A record, not a dataclass: building a dataclass costs
    about 1 ms of every process's start."""

    __slots__ = ()

    def __new__(cls, spec: str, top: int, ranks: tuple, poincare: bool, euler: int):
        return super().__new__(cls, (spec, top, ranks, poincare, euler))


@_source_cache
def _candidate(text: str) -> _Candidate:
    """The candidate given as a `--vs` or `homology` text, computed once per text."""
    spec = manifold.parse_connected_sum(text)
    g = manifold.connected_sum_homology(spec)
    return _Candidate(
        spec=manifold.format_connected_sum(spec),
        top=g.top,
        ranks=tuple(sorted(g.ranks.items())),
        poincare=manifold.poincare_check(g),
        euler=manifold.euler_characteristic(g),
    )


def _ideal_block(F: FaceRingPresentation) -> dict:
    return {
        "m": F.m,
        "size": len(F.generators),
        "generators": F.generators,
        "degree_histogram": {str(d): c for d, c in F.histogram},
    }


def _witness_block(F: FaceRingPresentation, degree: int, pair: tuple[int, int]) -> dict:
    """The relation g_i * multiplier_i == g_j * multiplier_j of degree
    `degree`; each multiplier is the other generator's vertices less its own."""
    i, j = pair
    gi, gj = F.generators[i], F.generators[j]
    return {
        "i": i,
        "j": j,
        "generator_i": list(gi),
        "generator_j": list(gj),
        "multiplier_i": [v for v in gj if v not in gi],
        "multiplier_j": [v for v in gi if v not in gj],
        "degree": degree,
    }


def _wedge_block(F: FaceRingPresentation, ceiling: int | None = None) -> dict:
    """The wedge model's spectrum up to `ceiling`, by default q_max, the top
    of the window that reports print: rmin - 2 for rmin the minimal relation
    degree (the degree-2 rank they print is `F.m`).  The multiplicities are
    not exact up to q_max: the square has S^5 at q = 5 <= 6, while
    pi_5(S^3 x S^3) (x) Q = 0.  The exact range is q <= rmin - 4 (ROADMAP
    item 3)."""
    q_max = _relation(F)[0] - 2
    if ceiling is None:
        ceiling = q_max
    return {
        "spectrum": {str(k): v for k, v in _spectrum(F, ceiling)},
        "ceiling": ceiling,
        "q_max": q_max,
        "pi2_rank": F.m,
    }


def _manifold_block(c: _Candidate) -> dict:
    return {
        "spec": c.spec,
        "top": c.top,
        "ranks": {str(k): v for k, v in c.ranks},
        "poincare": c.poincare,
        "euler": c.euler,
    }


def _difference(field: str, zk: dict, candidate: dict, degrees) -> dict | None:
    """The first of `degrees` where Z_K's ranks and the candidate's differ,
    as a report's difference over the field named `field`; None if they agree."""
    q = next((q for q in degrees if zk.get(q, 0) != candidate.get(q, 0)), None)
    if q is None:
        return None
    return {"field": field, "degree": q, "zk_rank": zk.get(q, 0),
            "manifold_rank": candidate.get(q, 0)}


def _homology_block(F: FaceRingPresentation, c: _Candidate, q: int | None) -> dict:
    """Z_K's homology against the candidate's: degrees in ascending order,
    the bottom read first, then, only if it agrees, the full ranks field by
    field from `hochster.field_ranks`.  The first (field, degree) that
    differs is the difference; a candidate is torsion-free, so any one
    field's difference rules out a homotopy equivalence.  With `q`, degree
    q alone, any q >= 0: from the bottom read up to its top 2j0 - 1, above
    it from the full ranks."""
    if q is not None and q < 0:
        raise ValueError(f"q={q} is not a degree: homology starts in degree 0")
    top, bottom = hochster.bottom_ranks(F)
    candidate = dict(c.ranks)
    if q is None:
        low = range(top + 1)
    else:
        low = (q,) if q <= top else ()
    # The bottom read holds over every field, so a difference there is GF(2)'s.
    difference = _difference(FIELD_NAMES[0], bottom, candidate, low)
    if difference is not None:
        fields = [FIELD_NAMES[0]]
    elif q is not None and q <= top:
        fields = list(FIELD_NAMES)
    else:
        fields = []
        for name, (_, zk) in zip(FIELD_NAMES, hochster.field_ranks(F)):
            degrees = sorted(zk.keys() | candidate.keys()) if q is None else (q,)
            difference = _difference(name, zk, candidate, degrees)
            fields.append(name)
            if difference is not None:
                break
    return {"fields": fields, "difference": difference, "q": q}


def build_verdict_report(source, vs: str, q: int | None = None) -> dict:
    F, descriptor = _resolve_source(source)
    if F.is_trivial:
        raise ValueError("the ideal is empty (full simplex): nothing to compare")
    # The verdict does not read the wedge block, so a ring with no wedge
    # model (one generator, or a relation scan refused) gets none.
    try:
        wedge = _wedge_block(F)
    except ValueError:
        wedge = None
    c = _candidate(vs)
    homology = _homology_block(F, c, q)
    return {
        "input": {"source": descriptor, "manifold": c.spec},
        "ideal": _ideal_block(F),
        "wedge": wedge,
        "manifold": _manifold_block(c),
        "homology": homology,
        "verdict": "INCONCLUSIVE" if homology["difference"] is None else "NOT_EQUIVALENT",
    }


# ---------------------------------------------------------------------------
# text views: each reads only its subcommand's report and yields lines
# ---------------------------------------------------------------------------

def _monomial(support) -> str:
    """The text of a squarefree monomial: v1*v3*v5 for the support 1, 3, 5."""
    return "*".join(f"v{i}" for i in support)


def _witness_text(witness: dict) -> str:
    gi, gj, mi, mj = (
        _monomial(witness[key])
        for key in ("generator_i", "generator_j", "multiplier_i", "multiplier_j")
    )
    return f"({gi}) * {mi} == ({gj}) * {mj}"


def _generator_rows(supports):
    gens = [_monomial(s) for s in supports]
    for i in range(0, len(gens), 4):
        yield "  " + "  ".join(gens[i : i + 4])


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
    if not quiet:
        yield f"input complex: {_describe_source(report['input']['source'])}"
        yield f"candidate manifold: {report['input']['manifold']}"
        yield ""
        ideal = report["ideal"]
        yield f"face ring: {ideal['m']} variables, |I| = {ideal['size']} generators"
        yield from _generator_rows(ideal["generators"])
        yield ""
        mfd = report["manifold"]
        ranks = "  ".join(f"{k}:{v}" for k, v in mfd["ranks"].items())
        yield f"manifold homology ranks: {ranks}"
        yield (
            f"  Poincare symmetric: {'yes' if mfd['poincare'] else 'no'}   "
            f"Euler characteristic: {mfd['euler']}"
        )
        yield ""
        for note in report.get("notes", ()):
            yield f"note: {note}"
            yield ""
    homology = report["homology"]
    diff = homology["difference"]
    if diff is not None:
        yield (
            f"verdict: NOT_EQUIVALENT (homology ranks differ over {diff['field']} "
            f"in degree {diff['degree']}: Z_K {diff['zk_rank']}, "
            f"candidate {diff['manifold_rank']})"
        )
    else:
        where = "" if homology["q"] is None else f" in degree {homology['q']}"
        yield (
            f"verdict: INCONCLUSIVE (homology ranks agree{where} over "
            f"{', '.join(homology['fields'])}; agreement does not establish equivalence)"
        )


# ---------------------------------------------------------------------------
# subcommands: each returns its report
# ---------------------------------------------------------------------------

def _check_printable(count: int, what: str) -> None:
    """Refuse a count with more decimal digits than this Python writes as
    text (`sys.get_int_max_str_digits()`; 0, or no such function, means no
    limit), naming both digit counts.  The count is never written: its bit
    length times log10(2), rounded up, bounds its digits, so a count far
    below the limit costs one multiplication; otherwise its digits are
    counted from that product rounded down, up to the first power of ten
    above the count."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    bits = count.bit_length()
    if limit and bits * 30103 // 100000 >= limit:
        digits = (bits - 1) * 30102999566 // 10**11 + 1
        while count >= 10**digits:
            digits += 1
        if digits > limit:
            raise ValueError(
                f"{what} would need {digits} digits, above the limit of {limit} "
                "digits that this Python writes for an integer"
            )


def cmd_faces(n: int, d: int, max_card: int | None = None, count: bool = False) -> dict:
    p = CyclicParams(n, d)
    if max_card is None:
        max_card = p.d
    if not 0 <= max_card <= p.d:
        raise ValueError(f"max_card must lie in 0..{p.d}, got {max_card}")
    counts = f_vector(p)[:max_card]
    report = {
        "input": {"kind": "cyclic", "n": p.n, "d": p.d, "max_card": max_card},
        "counts": {str(k): f for k, f in enumerate(counts, start=1)},
    }
    if not count:
        report["faces"] = [list(face) for face in enumerate_faces(p, max_card)]
    _check_printable(max(counts, default=0), f"the face counts of C({p.n},{p.d})")
    return report


def cmd_ideal(source) -> dict:
    F, descriptor = _resolve_source(source)
    return {"input": {"source": descriptor}, "ideal": _ideal_block(F)}


def cmd_syzmin(source) -> dict:
    F, descriptor = _resolve_source(source)
    degree, pair = _relation(F)
    return {
        "input": {"source": descriptor},
        "ideal": _ideal_block(F),
        "rmin": {"degree": degree, "witness": _witness_block(F, degree, pair)},
    }


def cmd_wedge(source, ceiling: int | None = None) -> dict:
    F, descriptor = _resolve_source(source)
    wedge = _wedge_block(F, ceiling)
    q_max = wedge["q_max"]
    wedge["notes"] = []
    if wedge["ceiling"] > q_max:
        wedge["notes"].append(f"entries above q_max={q_max} lie outside the validated window")
    return {
        "input": {"source": descriptor},
        "ideal": _ideal_block(F),
        "rmin": {"degree": q_max + 2},
        "wedge": wedge,
    }


def cmd_homology(spec: str) -> dict:
    return {"manifold": _manifold_block(_candidate(spec))}


def cmd_counterexample() -> dict:
    report = build_verdict_report(COUNTEREXAMPLE_SOURCE, COUNTEREXAMPLE_MANIFOLD)
    report["notes"] = list(COUNTEREXAMPLE_NOTES)
    return report


# ---------------------------------------------------------------------------
# JSON report writer
# ---------------------------------------------------------------------------

# A report's leaves by exact type, each to its text: `bool` is a subclass of
# `int`, and an `IntEnum` member is an `int` that no report holds.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value) -> str:
    """`value` as JSON, byte for byte what the `json` module's `dumps` prints
    with `sort_keys=True, indent=2`, without the pure-Python encoder that an
    indent makes it use.  Reports are integer-only: dicts with `str` keys,
    lists and tuples, `str`, `int`, `bool` and `None`; any other type raises
    `TypeError`.  The text is written in one pass into one list of pieces,
    joined once."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    out = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value, indent: str, emit) -> None:
    """Emit the pieces of a dict, list or tuple whose first line `indent`
    (a newline and spaces) indents.  A leaf item is written inside the loop,
    through `_LEAVES`; only a container item recurses.  A nonempty tuple of
    nonempty tuples of exact ints, a face ring's generators, is one piece,
    from `_rows`."""
    kind = type(value)
    inner = indent + "  "
    get = _LEAVES.get
    if kind is dict:
        if not value:
            emit("{}")
            return
        sep, comma = "{" + inner, "," + inner
        # A key that is not a str raises TypeError in sorted() or the encoder.
        for key in sorted(value):
            item = value[key]
            write = get(type(item))
            if write is None:
                emit(f"{sep}{encode_basestring_ascii(key)}: ")
                _write(item, inner, emit)
            else:
                emit(f"{sep}{encode_basestring_ascii(key)}: {write(item)}")
            sep = comma
        emit(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            emit("[]")
            return
        # Types are checked before `_rows`' cache is read: ((True, 2),) and
        # ((1.0, 2),) are keys equal to ((1, 2),), but not rows of ints.
        if (kind is tuple and {*map(type, value)} == {tuple} and all(value)
                and {*map(type, chain.from_iterable(value))} == {int}):
            emit(_rows(value, indent))
            return
        sep, comma = "[" + inner, "," + inner
        for item in value:
            write = get(type(item))
            if write is None:
                emit(sep)
                _write(item, inner, emit)
            else:
                emit(sep + write(item))
            sep = comma
        emit(indent + "]")
    else:
        raise TypeError(f"{kind.__name__} value {value!r} is not allowed in a report")


@_source_cache
def _rows(rows: tuple[tuple[int, ...], ...], indent: str) -> str:
    """`_json`'s text of a nonempty tuple of nonempty tuples of exact ints at
    `indent`, once per tuple and indent among the `SOURCE_CACHE_SIZE` most
    recent, as `_face_ring` builds a repeated source's ring once.  The rows'
    `%d` templates, one per row length, are joined into one format, and
    one `%` writes every int of every row through it; `%d` writes an exact
    int as `int.__repr__` does."""
    inner = indent + "  "
    head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
    template = {n: head + sep.join(["%d"] * n) + tail for n in set(map(len, rows))}
    body = ("," + inner).join(map(template.__getitem__, map(len, rows)))
    return f"[{inner}{body % tuple(chain.from_iterable(rows))}{indent}]"


# ---------------------------------------------------------------------------
# command table and dispatcher
# ---------------------------------------------------------------------------

DESCRIPTION = """Face rings of cyclic polytopes, minimal relation degrees, wedge models, and
homology of moment-angle complexes compared field by field against connected sums."""
_SOURCE = ("source ...", list, "'cyclic N D', 'polygon M', or 'file PATH'")
_FLAGS = (("[--json]", bool, "emit a machine-readable JSON report"),
          ("[--quiet]", bool, "print only the headline result"))
# name: (help, report builder, text view, arguments), each argument (usage token,
# type, help).  "--name" is an option, optional if bracketed, a flag if its type is bool;
# other names are positionals, a list taking every value.  All take the _FLAGS.
COMMANDS = {
    "faces": ("enumerate faces of C(n,d)", cmd_faces, text_faces, (
        ("n", int, "number of vertices"), ("d", int, "dimension"),
        ("[--max-card K]", int, "largest face cardinality to list (default d)"),
        ("[--count]", bool, "print counts only"))),
    "ideal": ("minimal non-face generators of the face ring", cmd_ideal, text_ideal, (_SOURCE,)),
    "syzmin": ("minimal relation-among-relations degree", cmd_syzmin, text_syzmin, (_SOURCE,)),
    "wedge": ("sphere spectrum of the wedge model", cmd_wedge, text_wedge, (
        _SOURCE, ("[--ceiling C]", int, "truncation ceiling for the displayed spectrum"))),
    "homology": ("graded homology ranks of a connected sum", cmd_homology, text_homology,
                 (("spec", str, "e.g. '16*S5xS7 # 15*S6xS6'"),)),
    "verdict": ("compare Z_K's homology with a connected sum's, field by field",
                build_verdict_report, text_verdict, (
        _SOURCE, ("--vs SPEC", str, "candidate, e.g. '16*S5xS7 # 15*S6xS6'"),
        ("[--q Q]", int, "compare degree Q alone"))),
    "counterexample": ("run the full C(8,4) pipeline with all artifacts", cmd_counterexample,
                       text_verdict, ()),
}


def _spec(arguments) -> tuple[dict, list]:
    """The options by name and the positionals in order of an argument list
    and the _FLAGS, each (name, dest, type, required)."""
    entries = [(name, name.lstrip("-").replace("-", "_"), kind, token[0] != "[")
               for token, kind, _ in arguments + _FLAGS for name in token.strip("[]").split()[:1]]
    return {e[0]: e for e in entries if e[0][0] == "-"}, [e for e in entries if e[0][0] != "-"]


# Built at import with the table, so that a call only reads them.
_SPECS = {None: _spec(())} | {name: _spec(entry[3]) for name, entry in COMMANDS.items()}
_CHOICES = ", ".join(map(repr, COMMANDS))


def _help(command) -> str:
    """The --help text of a subcommand, or of the program (command None)."""
    if command is None:
        usage, about = "COMMAND ...", DESCRIPTION
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        about, _, _, arguments = COMMANDS[command]
        usage = " ".join([command, *(token for token, _, _ in arguments)])
        rows = [(token.strip("[]"), text) for token, _, text in arguments]
    rows += [(token.strip("[]"), text) for token, _, text in _FLAGS]
    lines = [f"usage: momentangle {usage} [--json] [--quiet]", "", about, ""]
    return "".join(f"{line}\n" for line in lines + [f"  {a:<16}{b}" for a, b in rows])


def _is_value(arg: str) -> bool:
    """Whether argparse reads `arg` as a value, not an option name: it does
    not start with "-", or is "-" alone, a negative number or holds a space."""
    head, dot, tail = arg[1:].partition(".")
    number = tail.isdecimal() and (head.isdecimal() or not head) if dot else head.isdecimal()
    return arg[:1] != "-" or arg == "-" or number or " " in arg


def _parse(argv) -> tuple[str | None, dict]:
    """(command, keyword arguments) read from argv as argparse read it, with
    its error text, but with no abbreviated option names; at -h or --help,
    (the command so far, {"help": True})."""
    command, raw, pending, extras, ended = None, {}, [], [], False
    options, positionals = _SPECS[None]
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")  # no option name holds "="
        option = options.get(name)
        if arg == "--" and not ended:
            ended = True
        elif ended or not option and _is_value(arg):
            if command is None and arg not in COMMANDS:
                raise ValueError(f"argument command: invalid choice: {arg!r} (choose from {_CHOICES})")
            if command is None:
                command, (options, positionals) = arg, _SPECS[arg]
            elif len(pending) < len(positionals) or positionals and positionals[0][2] is list:
                pending.append(arg)
            else:
                extras.append(arg)
        elif arg in ("-h", "--help"):
            return command, {"help": True}
        elif not option:
            extras.append(arg)
        elif option[2] is bool:
            if eq:
                raise ValueError(f"argument {option[0]}: ignored explicit argument {value!r}")
            raw[option[1]] = True
        else:
            value = value if eq else next(args, "--")
            if not eq and not _is_value(value):
                raise ValueError(f"argument {option[0]}: expected one argument")
            raw[option[1]] = value
    if command is None:
        raise ValueError("the following arguments are required: command")
    for (_, dest, kind, _), arg in zip(positionals, pending):
        raw[dest] = pending if kind is list else arg
    values, missing = {}, []
    for name, dest, kind, required in [*positionals, *options.values()]:
        if dest in raw:
            try:
                values[dest] = kind(raw[dest])
            except ValueError:
                raise ValueError(f"argument {name}: invalid int value: {raw[dest]!r}") from None
        elif required:
            missing.append(name)
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv=None) -> int:
    """Run one subcommand and print its report as JSON or as its text view,
    or print the help that -h or --help asks for.

    The report is built, and its text rendered, before anything is printed,
    so a failing command prints only its error line."""
    try:
        command, values = _parse(sys.argv[1:] if argv is None else argv)
        if "help" in values:
            sys.stdout.write(_help(command))
            return 0
        as_json, quiet = values.pop("json", False), values.pop("quiet", False)
        _, build, text, _ = COMMANDS[command]
        report = build(**values)
        if as_json:
            out = _json(report) + "\n"
        else:
            out = "".join(f"{line}\n" for line in text(report, quiet))
        sys.stdout.write(out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if report.get("verdict") == "INCONCLUSIVE" else 0


def run() -> None:
    sys.exit(main())
