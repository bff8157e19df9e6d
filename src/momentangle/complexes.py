"""Simplicial complexes, carried by their Stanley-Reisner presentations.

A complex on vertex set 1..m is its minimal non-faces, and those are exactly
the generators of its Stanley-Reisner ideal: the face ring is the polynomial
ring on degree-2 variables v_1..v_m modulo the squarefree monomials on the
minimal non-faces.  So one type, `FaceRingPresentation`, stands for both the
complex and its face ring, and carries each generator once, as the strictly
increasing tuple of its vertices, with a vertex bitmask derived from it.
Facet lists are an input format: cyclic, polygon and file facets all go
through one pass on vertex bitmasks that builds the downward closure with an
extension mask per face and reads the generators off those masks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, islice
from math import comb
from operator import or_

from .gale import CyclicParams, as_subset, check_subset_count

__all__ = [
    "FaceRingPresentation",
    "from_facets",
    "from_nonfaces",
    "from_cyclic",
    "from_polygon",
    "parse_complex",
]


@dataclass(frozen=True)
class FaceRingPresentation:
    """A complex on 1..m: variables v_1..v_m plus one ideal generator per
    minimal non-face.

    A generator is the squarefree monomial on a strictly increasing, nonempty
    vertex tuple; its degree is twice its length, since |v_i| = 2.
    Generators are lexicographically sorted and pairwise incomparable under
    divisibility.  An empty generator list (full simplex) is legal but
    flagged via `is_trivial`; downstream relation/wedge machinery refuses it.
    Every vertex must be a face (no ghost vertices); the factory functions
    enforce this.
    """

    m: int
    generators: tuple[tuple[int, ...], ...] = field(default=())
    # One vertex bitmask per generator (bit v-1 for vertex v), derived here.
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Support checks come first: a vertex below 1 has no bitmask.
        for g in self.generators:
            if not g:
                raise ValueError("squarefree monomials here have nonempty support")
            if list(g) != sorted(set(g)):
                raise ValueError(f"support must be strictly increasing, got {g}")
            if g[0] < 1:
                raise ValueError(f"variable indices start at 1, got {g}")
        if self.m < 1:
            raise ValueError(f"vertex count must be positive, got {self.m}")
        gens = self.generators
        if list(gens) != sorted(gens):
            raise ValueError("generators must be lexicographically sorted")
        masks = tuple(map(_mask, gens))
        object.__setattr__(self, "masks", masks)
        pair = min(map(sorted, _comparable_pairs(masks)), default=None)
        if pair is not None:
            i, j = pair
            raise ValueError(f"generators must be incomparable: {gens[i]} vs {gens[j]}")
        if reduce(or_, masks, 0).bit_length() > self.m:
            raise ValueError("generator mentions a variable beyond v_m")

    def is_face(self, members) -> bool:
        """Membership test; validates that members lie in 1..m.

        The empty set is always a face.
        """
        x = _mask(as_subset(members, self.m))
        return not any(x & g == g for g in self.masks)

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def degree_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(2 * len(g) for g in self.generators).items()))


def _mask(members) -> int:
    """The bitmask of a vertex collection: bit v-1 stands for vertex v."""
    return sum(1 << (v - 1) for v in members)


def _comparable_pairs(masks):
    """Yield index pairs (i, j) with masks[i] contained in masks[j]: each
    repeated mask with its first copy (i < j), found through a dict, and
    every proper containment among first copies.

    A proper containment needs a strictly smaller popcount, so only a
    smaller-popcount bucket is tested against a larger one: a one-size list
    costs one pass.  The smallest comparable pair in `combinations` order is
    always among those yielded.
    """
    first: dict[int, int] = {}
    by_size: dict[int, list[tuple[int, int]]] = {}
    for j, x in enumerate(masks):
        i = first.setdefault(x, j)
        if i != j:
            yield i, j
        else:
            by_size.setdefault(x.bit_count(), []).append((j, x))
    sizes = sorted(by_size)
    for k, small in enumerate(sizes):
        for big in sizes[k + 1 :]:
            for j, b in by_size[big]:
                for i, a in by_size[small]:
                    if a & b == a:
                        yield i, j


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (bit v-1 stands for vertex v), increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _presentation(m: int, supports) -> FaceRingPresentation:
    return FaceRingPresentation(m, tuple(sorted(supports)))


def from_facets(m: int, facets) -> FaceRingPresentation:
    """Build a complex from its facet list, deriving its minimal non-faces.

    Non-maximal and repeated entries are allowed; every vertex must appear in
    some facet, and the sum of 2**|facet| over the distinct facets may not
    pass the subset limit.
    """
    return _from_facet_masks(m, {_mask(as_subset(f, m)) for f in facets})


def _from_facet_masks(m: int, masks) -> FaceRingPresentation:
    """The complex whose faces lie under the distinct vertex bitmasks `masks`.

    The downward closure is built level by level, from the largest faces
    down, as a map from each face f to its extension mask ext[f]: the union
    of f and the faces one vertex larger than f, so for v outside f bit v-1
    is set iff f | v is a face.  Each face is visited once per vertex it
    contains.  Dropping the largest vertex v of a minimal non-face leaves a
    face f, and the other one-vertex deletions are faces iff v lies in every
    ext[f ^ b], b a vertex of f; so the generators come from a few ANDs per
    face, each exactly once.
    """
    if 0 in masks:
        raise ValueError("facets must be nonempty")
    covered = reduce(or_, masks, 0)
    n_missing = m - covered.bit_count()
    if n_missing > 0:
        missing = (v for v in range(1, m + 1) if not covered >> (v - 1) & 1)
        shown = ", ".join(map(str, islice(missing, 10)))
        more = f", ...] ({n_missing} in all)" if n_missing > 10 else "]"
        raise ValueError(f"ghost vertices (in no facet): [{shown}{more}")
    closure = sum(1 << mask.bit_count() for mask in masks)
    check_subset_count(closure, "the downward closure of the facet list")
    ext = {}
    depth = max((mask.bit_count() for mask in masks), default=0)
    levels = [[] for _ in range(depth + 1)]
    for mask in masks:
        ext[mask] = mask
        levels[mask.bit_count()].append(mask)
    for k in range(len(levels) - 1, 0, -1):
        below = levels[k - 1]
        for g in levels[k]:
            x = g
            while x:
                low = x & -x
                x ^= low
                f = g ^ low
                e = ext.get(f)
                if e is None:
                    ext[f] = g
                    below.append(f)
                else:
                    ext[f] = e | g
    nonfaces = []
    for f, e in ext.items():
        top = f.bit_length()
        new = covered >> top << top & ~e  # covered is every vertex here
        x = f
        while x and new:
            low = x & -x
            x ^= low
            new &= ext[f ^ low]
        while new:
            low = new & -new
            new ^= low
            nonfaces.append(_members(f | low))
    return _presentation(m, nonfaces)


def from_nonfaces(m: int, nonfaces) -> FaceRingPresentation:
    """Build a complex from a non-face list.

    The list is reduced to its minimal elements (the ideal generators).
    Singleton non-faces are rejected: they would delete a vertex.
    """
    nfs = sorted({as_subset(s, m) for s in nonfaces})
    if any(not nf for nf in nfs):
        raise ValueError("the empty set is a face of every complex here")
    if any(len(nf) == 1 for nf in nfs):
        bad = [nf[0] for nf in nfs if len(nf) == 1]
        raise ValueError(f"singleton non-faces would leave ghost vertices: {bad}")
    containers = {j for _, j in _comparable_pairs(list(map(_mask, nfs)))}
    return _presentation(m, (nf for j, nf in enumerate(nfs) if j not in containers))


def _pairings(lo: int, hi: int, k: int) -> list[int]:
    """Bitmasks of the ways to pick k disjoint pairs {i, i+1} inside lo..hi.

    Read lo..hi as a word of k pairs and s = hi - lo + 1 - 2k singles: a
    pairing is the interval less its singles, and the c-th single (from 0)
    at letter t is vertex lo + 2t - c.  Nothing recurses, so any k is built.
    """
    s = hi - lo + 1 - 2 * k
    if s < 0:
        return []
    interval = ((1 << (hi - lo + 1)) - 1) << (lo - 1)
    bits = [1 << v for v in range(lo - 1, hi)]  # bits[j] stands for vertex lo + j
    out = []
    for singles in combinations(range(k + s), s):
        x = interval
        for c, t in enumerate(singles):
            x ^= bits[2 * t - c]
        out.append(x)
    return out


def from_cyclic(p: CyclicParams) -> FaceRingPresentation:
    """Boundary complex of C(n, d) on m = n vertices.

    The facets come straight from Gale's evenness condition: for even d they
    are the unions of d/2 disjoint cyclic pairs {i, i+1}, {n, 1} included;
    for odd d, {1} or {n} plus (d-1)/2 disjoint pairs on the other vertices.
    No candidate search runs; the C(n, d) guard is an input-size limit, and
    admits exactly the inputs whose d-subsets could all be tested.
    """
    n, d = p.n, p.d
    check_subset_count(comb(n, d), f"the facet search of C({n},{d})")
    k, last = d // 2, 1 << (n - 1)
    if d % 2:
        facets = [1 | x for x in _pairings(2, n, k)]
        facets += [last | x for x in _pairings(1, n - 1, k)]
    else:
        facets = _pairings(1, n, k)
        facets += [1 | last | x for x in _pairings(2, n - 1, k - 1)]
    return _from_facet_masks(n, facets)


def from_polygon(m: int) -> FaceRingPresentation:
    """The m-cycle: singletons and consecutive pairs {i, i+1 mod m} are faces.

    Minimal non-faces are the non-adjacent pairs.  Requires m >= 4 so the
    ideal is nonempty.
    """
    if m < 4:
        raise ValueError(f"polygon complexes need m >= 4 vertices, got {m}")
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return from_facets(m, edges)


def parse_complex(text: str) -> FaceRingPresentation:
    """Parse the plain-text complex format.

    Header line `vertices m`, then a line `facets` or `nonfaces`, then one
    subset per line as space-separated integers.  Blank lines and `#`
    comments are ignored.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty complex description")
    head = lines[0].split()
    if len(head) != 2 or head[0].lower() != "vertices":
        raise ValueError(f"expected header 'vertices <m>', got {lines[0]!r}")
    try:
        m = int(head[1])
    except ValueError:
        raise ValueError(f"vertex count must be an integer, got {head[1]!r}") from None
    if len(lines) < 2 or lines[1].lower() not in ("facets", "nonfaces"):
        raise ValueError("expected a 'facets' or 'nonfaces' section after the header")
    kind = lines[1].lower()
    subsets = []
    for ln in lines[2:]:
        try:
            subsets.append(tuple(int(tok) for tok in ln.split()))
        except ValueError:
            raise ValueError(f"bad subset line {ln!r}") from None
    if kind == "facets":
        return from_facets(m, subsets)
    return from_nonfaces(m, subsets)
