"""Simplicial complexes and their Stanley-Reisner presentations.

A complex on vertex set 1..m is carried by its minimal non-faces, which
determine its membership predicate.  Facet lists are an input format:
`from_facets` derives the minimal non-faces from them once.  The face ring
presentation is the polynomial ring on degree-2 variables v_1..v_m modulo the
squarefree monomial ideal generated by the minimal non-faces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

from .gale import CyclicParams, as_subset, check_subset_count
from .gale import is_face as _cyclic_is_face

__all__ = [
    "Monomial",
    "SimplicialComplex",
    "FaceRingPresentation",
    "from_facets",
    "from_nonfaces",
    "from_cyclic",
    "from_polygon",
    "minimal_nonfaces",
    "face_ring",
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
class SimplicialComplex:
    """Complex on 1..m carried by its minimal non-faces.

    `nonfaces` is the sorted tuple of minimal non-faces, the generators of
    the Stanley-Reisner ideal; facet lists are only an input format, turned
    into generators by `from_facets`.  `source` records where the complex
    came from.  Every vertex must be a face (no ghost vertices); the factory
    functions enforce this.
    """

    m: int
    nonfaces: tuple[tuple[int, ...], ...]
    source: str = "explicit"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"vertex count must be positive, got {self.m}")

    def is_face(self, members) -> bool:
        """Membership test; validates that members lie in 1..m.

        The empty set is always a face.
        """
        s = set(as_subset(members, self.m))
        return all(not set(nf).issubset(s) for nf in self.nonfaces)

    def dim(self) -> int:
        """Dimension = max face cardinality - 1; a subset search, fine for m <= ~20."""
        for k in range(self.m, 0, -1):
            if any(self.is_face(c) for c in combinations(range(1, self.m + 1), k)):
                return k - 1
        return -1


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (bit v-1 stands for vertex v), increasing."""
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def from_facets(m: int, facets, source: str = "facets") -> SimplicialComplex:
    """Build a complex from its facet list, deriving its minimal non-faces.

    Non-maximal and repeated entries are allowed; every vertex must appear in
    some facet.  Dropping the largest vertex of a minimal non-face leaves a
    face, so extending every face by each vertex above its own, and keeping
    the non-faces all of whose other one-vertex deletions are faces, finds
    every generator exactly once.  Faces are vertex bitmasks.
    """
    masks = {sum(1 << (v - 1) for v in as_subset(f, m)) for f in facets}
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
    return SimplicialComplex(m=m, nonfaces=tuple(sorted(nonfaces)), source=source)


def from_nonfaces(m: int, nonfaces, source: str = "nonfaces") -> SimplicialComplex:
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
    minimal = [
        nf for nf in nfs
        if not any(nf != other and set(other).issubset(nf) for other in nfs)
    ]
    return SimplicialComplex(m=m, nonfaces=tuple(sorted(minimal)), source=source)


def from_cyclic(p: CyclicParams) -> SimplicialComplex:
    """Boundary complex of C(n, d) on m = n vertices.

    Facets are the d-subsets passing the evenness criterion; faces are then
    exactly the criterion's faces (polytope boundaries are pure and closed
    under subsets).
    """
    check_subset_count(comb(p.n, p.d), f"the facet search of C({p.n},{p.d})")
    facets = [
        c for c in combinations(range(1, p.n + 1), p.d) if _cyclic_is_face(c, p)
    ]
    return from_facets(p.n, facets, source=f"cyclic({p.n},{p.d})")


def from_polygon(m: int) -> SimplicialComplex:
    """The m-cycle: singletons and consecutive pairs {i, i+1 mod m} are faces.

    Minimal non-faces are the non-adjacent pairs.  Requires m >= 4 so the
    ideal is nonempty.
    """
    if m < 4:
        raise ValueError(f"polygon complexes need m >= 4 vertices, got {m}")
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return from_facets(m, edges, source=f"polygon({m})")


def minimal_nonfaces(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """Minimal non-faces of K (the ideal generators), lexicographically sorted."""
    return list(K.nonfaces)


@dataclass(frozen=True)
class FaceRingPresentation:
    """Variables v_1..v_m plus the minimal-non-face generators of the ideal.

    Generators are lexicographically sorted and pairwise incomparable under
    divisibility.  An empty generator list (full simplex) is legal but
    flagged via `is_trivial`; downstream relation/wedge machinery refuses it.
    """

    m: int
    generators: tuple[Monomial, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"variable count must be positive, got {self.m}")
        supports = [g.support for g in self.generators]
        if supports != sorted(supports):
            raise ValueError("generators must be lexicographically sorted")
        for a, b in combinations(supports, 2):
            if set(a).issubset(b) or set(b).issubset(a):
                raise ValueError(f"generators must be incomparable: {a} vs {b}")
        if supports and supports[-1][-1] > self.m:
            raise ValueError("generator mentions a variable beyond v_m")

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def degree_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(g.degree for g in self.generators).items()))


def face_ring(K: SimplicialComplex) -> FaceRingPresentation:
    """Stanley-Reisner presentation of K: one generator per minimal non-face."""
    gens = tuple(Monomial(s) for s in minimal_nonfaces(K))
    return FaceRingPresentation(m=K.m, generators=gens)


def parse_complex(text: str, source: str = "text") -> SimplicialComplex:
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
        return from_facets(m, subsets, source=source)
    return from_nonfaces(m, subsets, source=source)
