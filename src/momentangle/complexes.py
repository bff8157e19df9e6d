"""Simplicial complexes, carried by their Stanley-Reisner presentations.

A complex on vertex set 1..m is its minimal non-faces, and those are exactly
the generators of its Stanley-Reisner ideal: the face ring is the polynomial
ring on degree-2 variables v_1..v_m modulo the squarefree monomials on the
minimal non-faces.  So one type, `FaceRingPresentation`, stands for both the
complex and its face ring.  Facet lists are an input format: `from_facets`
derives the generators from them once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, islice
from math import comb
from operator import or_

from .gale import CyclicParams, as_subset, check_subset_count
from .gale import is_face as _cyclic_is_face

__all__ = [
    "Monomial",
    "FaceRingPresentation",
    "from_facets",
    "from_nonfaces",
    "from_cyclic",
    "from_polygon",
    "parse_complex",
]


@dataclass(frozen=True)
class Monomial:
    """Squarefree monomial in v_1..v_m, recorded by its support; |v_i| = 2."""

    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("squarefree monomials here have nonempty support")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be strictly increasing, got {self.support}")
        if self.support[0] < 1:
            raise ValueError(f"variable indices start at 1, got {self.support}")

    @property
    def degree(self) -> int:
        return 2 * len(self.support)

    def __str__(self) -> str:
        return "*".join(f"v{i}" for i in self.support)


@dataclass(frozen=True)
class FaceRingPresentation:
    """A complex on 1..m: variables v_1..v_m plus one ideal generator per
    minimal non-face.

    Generators are lexicographically sorted and pairwise incomparable under
    divisibility.  An empty generator list (full simplex) is legal but
    flagged via `is_trivial`; downstream relation/wedge machinery refuses it.
    Every vertex must be a face (no ghost vertices); the factory functions
    enforce this.
    """

    m: int
    generators: tuple[Monomial, ...] = field(default=())
    # One vertex bitmask per generator (bit v-1 for vertex v), derived here.
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"vertex count must be positive, got {self.m}")
        supports = [g.support for g in self.generators]
        if supports != sorted(supports):
            raise ValueError("generators must be lexicographically sorted")
        masks = tuple(map(_mask, supports))
        object.__setattr__(self, "masks", masks)
        pair = min(map(sorted, _comparable_pairs(masks)), default=None)
        if pair is not None:
            i, j = pair
            raise ValueError(
                f"generators must be incomparable: {supports[i]} vs {supports[j]}"
            )
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
        return dict(sorted(Counter(g.degree for g in self.generators).items()))


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
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def _presentation(m: int, supports) -> FaceRingPresentation:
    return FaceRingPresentation(m, tuple(Monomial(s) for s in sorted(supports)))


def from_facets(m: int, facets) -> FaceRingPresentation:
    """Build a complex from its facet list, deriving its minimal non-faces.

    Non-maximal and repeated entries are allowed; every vertex must appear in
    some facet.  Dropping the largest vertex of a minimal non-face leaves a
    face, so extending every face by each vertex above its own, and keeping
    the non-faces all of whose other one-vertex deletions are faces, finds
    every generator exactly once.  Faces are vertex bitmasks.
    """
    masks = {_mask(as_subset(f, m)) for f in facets}
    if 0 in masks:
        raise ValueError("facets must be nonempty")
    covered = 0
    for mask in masks:
        covered |= mask
    n_missing = m - covered.bit_count()
    if n_missing > 0:
        missing = (v for v in range(1, m + 1) if not covered >> (v - 1) & 1)
        shown = ", ".join(map(str, islice(missing, 10)))
        more = f", ...] ({n_missing} in all)" if n_missing > 10 else "]"
        raise ValueError(f"ghost vertices (in no facet): [{shown}{more}")
    closure = sum(1 << mask.bit_count() for mask in masks)
    check_subset_count(closure, "the downward closure of the facet list")
    faces = {0}
    for mask in masks:
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    nonfaces = []
    for f in faces:
        bits = [1 << (u - 1) for u in _members(f)]
        for v in range(f.bit_length(), m):
            s = f | 1 << v
            if s not in faces and all(s ^ b in faces for b in bits):
                nonfaces.append(_members(s))
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


def from_cyclic(p: CyclicParams) -> FaceRingPresentation:
    """Boundary complex of C(n, d) on m = n vertices.

    Facets are the d-subsets passing the evenness criterion; faces are then
    exactly the criterion's faces (polytope boundaries are pure and closed
    under subsets).
    """
    check_subset_count(comb(p.n, p.d), f"the facet search of C({p.n},{p.d})")
    facets = [
        c for c in combinations(range(1, p.n + 1), p.d) if _cyclic_is_face(c, p)
    ]
    return from_facets(p.n, facets)


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
