"""Simplicial complexes, carried by their Stanley-Reisner presentations.

A complex on vertex set 1..m is its minimal non-faces, and those are exactly
the generators of its Stanley-Reisner ideal: the face ring is the polynomial
ring on degree-2 variables v_1..v_m modulo the squarefree monomials on the
minimal non-faces.  So one type, `FaceRingPresentation`, stands for both the
complex and its face ring, and carries each generator once, as the strictly
increasing tuple of its vertices, with a vertex bitmask derived from it.

The boundary of C(n, d), polygons C(m, 2) included, has its generators in
closed form by Gale's evenness condition (Ziegler, Lectures on Polytopes, Thm
0.7; proof at `from_cyclic`): 1..n if n = d+1; else, for d = 2k, the
(k+1)-subsets of 1..n with no two cyclically consecutive vertices, and for
d = 2k+1 those of 2..n-1 with no two consecutive plus {1, n} with each such
k-subset of 3..n-2.  Only file facets take the facet walk (`from_facets`).
"""

from _functools import reduce
from _operator import add, and_, eq, itemgetter, le, lshift, lt, ne, or_, rshift
from itertools import chain, combinations, compress, count, groupby, islice, repeat
from math import comb

from .gale import CyclicParams, as_subset, check_subset_count, comb_floor

__all__ = [
    "FaceRingPresentation",
    "from_facets",
    "from_nonfaces",
    "from_cyclic",
    "cyclic_generator_count",
    "even_cyclic_twin",
    "parse_complex",
]


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

    Immutable.  Equality, hash and repr read `m` and `generators` only; three
    attributes are derived from them here: `masks`, one vertex bitmask per
    generator (bit v-1 for vertex v), `histogram`, the (degree, generator
    count) pairs by increasing degree, the one view of generator counts that
    reports, the bottom read and the wedge spectrum take, and `_hash`,
    `hash((m, generators))`, which every cache keyed by a ring reads on each
    lookup.
    """

    __slots__ = ("m", "generators", "masks", "histogram", "_hash")

    def __init__(self, m: int, generators: tuple[tuple[int, ...], ...] = ()) -> None:
        # Support checks come first: a vertex below 1 has no bitmask.  They
        # run by column: `_columns` cuts the generators into runs of one
        # size, and column i of a run holds entry i of each of its supports
        # (a run of empty supports has no column).  So a run is strictly
        # increasing iff each column lies below the next, entry by entry,
        # and its least vertex is its first column's least; each is a C-level
        # pass over a whole column, and only a refusal walks the supports in
        # turn, for the first bad one's message.
        runs, grouped = _columns(generators)
        for run in runs:
            if not (run and min(run[0]) >= 1
                    and all(map(all, map(map, repeat(lt), run, islice(run, 1, None))))):
                _refuse_support(generators)
        if m < 1:
            raise ValueError(f"vertex count must be positive, got {m}")
        # A run's masks OR its columns' bits in, bit v for vertex v, and are
        # shifted down by one in a last pass, back in order if sorted.
        one, bits = repeat(1), []
        for run in runs:
            acc = map(lshift, one, run[0])
            for column in islice(run, 1, None):
                acc = map(or_, acc, map(lshift, one, column))
            bits += acc
        if grouped is not None:
            bits = map(dict(zip(grouped, bits)).__getitem__, generators)
        masks = tuple(map(rshift, bits, one))
        # Strictly sorted generators repeat no support, so with one size they
        # hold no comparable pair.
        strict = all(map(lt, generators, islice(generators, 1, None)))
        if not strict and not all(map(le, generators, islice(generators, 1, None))):
            raise ValueError("generators must be lexicographically sorted")
        if not strict or len(runs) > 1:
            pair = min(map(sorted, _comparable_pairs(generators, masks)), default=None)
            if pair is not None:
                i, j = pair
                raise ValueError(
                    f"generators must be incomparable: {generators[i]} vs {generators[j]}"
                )
        if max(map(max, map(itemgetter(-1), runs)), default=0) > m:
            raise ValueError("generator mentions a variable beyond v_m")
        histogram = tuple(sorted([(2 * len(run), len(run[0])) for run in runs]))
        derived = (m, generators, masks, histogram, hash((m, generators)))
        for name, value in zip(self.__slots__, derived):
            object.__setattr__(self, name, value)

    def _immutable(self, name, *value):
        raise AttributeError(f"FaceRingPresentation is immutable; cannot change {name!r}")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self.m, self.generators) == (other.m, other.generators)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FaceRingPresentation(m={self.m!r}, generators={self.generators!r})"

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return FaceRingPresentation, (self.m, self.generators)

    def is_face(self, members) -> bool:
        """Membership test; validates that members lie in 1..m.

        The empty set is always a face.
        """
        x = _mask(as_subset(members, self.m))
        return not any(x & g == g for g in self.masks)

    @property
    def is_trivial(self) -> bool:
        return not self.generators


def _refuse_support(generators) -> None:
    """Raise for the first support that is empty, not strictly increasing or
    holds a vertex below 1."""
    for g in generators:
        if not g:
            raise ValueError("squarefree monomials here have nonempty support")
        if list(g) != sorted(set(g)):
            raise ValueError(f"support must be strictly increasing, got {g}")
        if g[0] < 1:
            raise ValueError(f"variable indices start at 1, got {g}")


def _columns(generators):
    """The generators' runs of one size, each as its list of columns, and
    None if each size already forms one run of consecutive generators;
    otherwise the runs of the generators stably sorted by size, and that
    sorted list."""
    lengths = [*map(len, generators)]
    starts = [0, *compress(count(1), map(ne, lengths, islice(lengths, 1, None)))]
    if len(starts) == len({*lengths}):
        return [[*zip(*generators[a:b])] for a, b in zip(starts, starts[1:] + [None])], None
    grouped = sorted(generators, key=len)
    return [[*zip(*run)] for _, run in groupby(grouped, len)], grouped


def _mask(members) -> int:
    """The bitmask of a vertex collection: bit v-1 stands for vertex v."""
    return sum(1 << (v - 1) for v in members)


def _comparable_pairs(supports, masks):
    """Yield index pairs (i, j) with supports[i] contained in supports[j],
    `masks` their bitmasks: each repeated support with the copy just before
    it (callers pass sorted supports), and every proper containment among
    first copies.

    A proper containment needs a strictly smaller size, so only a smaller
    size's bucket is matched against a larger one's, in one of two ways.
    When a big support has fewer subsets of the small size than the small
    bucket has supports, one C-level pass looks all those subsets up in a
    set of the small supports (an odd-d cyclic ring's sizes are k+1 and k+2,
    so k+2 lookups per big support), and only a hit is then located.
    Otherwise each big mask is tested against each small one.  The smallest
    comparable pair in `combinations` order is always among those yielded.
    """
    repeats = [*compress(count(1), map(eq, supports, islice(supports, 1, None)))]
    yield from zip(map((1).__rsub__, repeats), repeats)
    lengths = [*map(len, supports)]
    by_length = sorted(range(len(lengths)), key=lengths.__getitem__)
    buckets = [[*bucket] for _, bucket in groupby(by_length, lengths.__getitem__)]
    if repeats:
        copies = set(repeats)
        buckets = [[j for j in bucket if j not in copies] for bucket in buckets]
    for k, low in enumerate(buckets):
        small = lengths[low[0]]
        for high in buckets[k + 1 :]:
            if comb(lengths[high[0]], small) < len(low):
                lows = [*map(supports.__getitem__, low)]
                subs = map(combinations, map(supports.__getitem__, high), repeat(small))
                if {*lows}.isdisjoint(chain.from_iterable(subs)):
                    continue
                index = dict(zip(lows, low))
                for j in high:
                    for sub in combinations(supports[j], small):
                        if sub in index:
                            yield index[sub], j
            else:
                for j in high:
                    b = masks[j]
                    for i in low:
                        if masks[i] & b == masks[i]:
                            yield i, j


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (bit v-1 stands for vertex v), increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def from_facets(m: int, facets) -> FaceRingPresentation:
    """Build a complex from its facet list, deriving its minimal non-faces.

    Non-maximal and repeated entries are allowed; every vertex must appear in
    some facet.  One walk over the submasks of each distinct facet, the
    2**|facet| subsets that the closure guard counts, maps each face f to
    ext[f], the union of the facets containing f: for v outside f, bit v-1
    is set iff f | v is a face.  Dropping the largest vertex v of a minimal
    non-face leaves a face f, and the other one-vertex deletions are faces
    iff v lies in every ext[f ^ b], b a vertex of f; so the generators come
    from a few ANDs per face, each exactly once.  Each face's mask of such v
    is found first, and their bits, one per generator, are counted against
    the subset limit before any generator is built.
    """
    masks = {_mask(as_subset(f, m)) for f in facets}
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
    check_subset_count(closure, "the downward closure of the facet list", "subsets")
    ext = {0: covered}
    for facet in masks:
        f = facet
        while f:
            ext[f] = ext.get(f, 0) | facet
            f = (f - 1) & facet
    news = []
    for f, e in ext.items():
        top = f.bit_length()
        new = covered >> top << top & ~e  # covered is every vertex here
        x = f
        while x and new:
            low = x & -x
            x ^= low
            new &= ext[f ^ low]
        if new:
            news.append((f, new))
    total = sum(new.bit_count() for _, new in news)
    check_subset_count(total, "the minimal non-faces of the facet list", "generators")
    nonfaces = []
    for f, new in news:
        while new:
            low = new & -new
            new ^= low
            nonfaces.append(_members(f | low))
    return FaceRingPresentation(m, tuple(sorted(nonfaces)))


def from_nonfaces(m: int, nonfaces) -> FaceRingPresentation:
    """Build a complex from a non-face list.

    The list is reduced to its minimal elements (the ideal generators).
    Singleton non-faces are rejected: they would delete a vertex.  The
    containment test compares every entry with every larger one, so the
    count of such pairs, 0 for a one-size list, is checked against the
    subset limit first.
    """
    nfs = sorted({as_subset(s, m) for s in nonfaces})
    if any(not nf for nf in nfs):
        raise ValueError("the empty set is a face of every complex here")
    if any(len(nf) == 1 for nf in nfs):
        bad = [nf[0] for nf in nfs if len(nf) == 1]
        raise ValueError(f"singleton non-faces would leave ghost vertices: {bad}")
    same = sum(len([*run]) ** 2 for _, run in groupby(sorted(map(len, nfs))))
    pairs = (len(nfs) ** 2 - same) // 2
    check_subset_count(pairs, "the containment test of the non-face list", "pairs")
    containers = {j for _, j in _comparable_pairs(nfs, list(map(_mask, nfs)))}
    return FaceRingPresentation(m, tuple(nf for j, nf in enumerate(nfs) if j not in containers))


def _independent(lo: int, hi: int, k: int) -> list:
    """The k-subsets of lo..hi with no two consecutive members, in
    lexicographic order, as k columns: column i holds member i of each
    subset, column i of `combinations(range(lo, hi - k + 2), k)` shifted up
    by i, each in one C-level pass.  `zip(*columns)` lists the subsets.
    Columns are read with `itemgetter`: `zip(*subsets)` would keep one
    iterator per subset alive at once, and on C(187,4)'s million subsets
    that sets the cyclic garbage collector off again and again."""
    subsets = [*combinations(range(lo, hi - k + 2), k)]
    return [map(add, map(itemgetter(i), subsets), repeat(i)) for i in range(k)]


def _cyclic_facet_count(n: int, d: int) -> int:
    """f_(d-1) of C(n, d): the facet count of Gale's evenness condition."""
    k = d // 2
    return 2 * comb(n - k - 1, k) if d % 2 else comb(n - k, k) + comb(n - k - 1, k - 1)


def cyclic_generator_count(n: int, d: int) -> int:
    """The generator count of the boundary of C(n, d), as `_cyclic_ring`
    writes its generators: 1 if n = d+1; else for d = 2k, C(n-k-1, k+1)
    without vertex 1 and C(n-k-2, k) with it, and for d = 2k+1, C(n-k-3, k)
    holding 1 and n and C(n-k-2, k+1) inside 2..n-1.  Each binomial is a
    `gale.comb_floor`: from 2**64 on a lower bound, which no built ring has."""
    k = d // 2
    if n == d + 1:
        return 1
    if d % 2:
        return comb_floor(n - k - 3, k) + comb_floor(n - k - 2, k + 1)
    return comb_floor(n - k - 1, k + 1) + comb_floor(n - k - 2, k)


def _cyclic_ring(n: int, d: int) -> FaceRingPresentation:
    """The closed-form generators of C(n, d), those with vertex 1 first: sorted.
    Each is zipped from `_independent`'s columns and the constant columns of
    vertex 1, and of n for odd d."""
    k = d // 2
    if n == d + 1:
        gens = (tuple(range(1, n + 1)),)
    elif d % 2:
        gens = (*zip(repeat(1), *_independent(3, n - 2, k), repeat(n)),
                *zip(*_independent(2, n - 1, k + 1)))
    else:
        gens = (*zip(repeat(1), *_independent(3, n - 1, k)), *zip(*_independent(2, n, k + 1)))
    return FaceRingPresentation(n, gens)


def even_cyclic_twin(F: FaceRingPresentation) -> CyclicParams | None:
    """C(F.m, d) if F is the ring of its boundary for an even d, else None,
    read off F's generators as `_cyclic_ring` writes them, with no ring
    built: the single generator 1..m, m odd, is C(m, m-1); otherwise the
    generators have one size s, d = 2s-2 with m >= d+2, their count is
    `cyclic_generator_count(m, d)`, and none holds two cyclically
    consecutive vertices.  Generators are distinct, so they are then every
    such s-subset, exactly the ring of C(m, d)."""
    if len(F.histogram) != 1:
        return None
    (degree, count), = F.histogram
    m, s = F.m, degree // 2
    if s == m:
        return CyclicParams(m, m - 1) if m % 2 and m > 1 else None
    d = 2 * s - 2
    if d < 2 or m < d + 2 or count != cyclic_generator_count(m, d):
        return None
    # x meets its rotation by one vertex iff it holds two consecutive ones.
    if any(x & (x >> 1 | (x & 1) << (m - 1)) for x in F.masks):
        return None
    return CyclicParams(m, d)


def from_cyclic(p: CyclicParams) -> FaceRingPresentation:
    """Boundary complex of C(n, d) on n vertices, its generators in the
    closed form of the module docstring.  No facet is built, but two guards
    bound the rest: its generator count (`cyclic_generator_count`, n(n-3)/2
    for a polygon), and 2**d per facet for a closure, the only one that
    binds C(n, n-1) and large d.  For odd d the check that generators of two
    sizes are incomparable takes k+2 lookups per larger generator
    (`_comparable_pairs`), so the count bounds the ring's own cost too.

    Why (Ziegler, Lectures on Polytopes, Thm 0.7): for d = 2k, n >= d+2,
    Gale's condition is invariant under rotation, and S (not 1..n) is a face
    iff its cyclic runs, of lengths L, have sum ceil(L/2) = (|S| + #odd
    runs)/2 <= k.  Alternate vertices of the runs are that many with no two
    cyclically consecutive, so every non-face holds such a (k+1)-set, a
    non-face whose k-subsets are all faces.  For d = 2k+1 the complex is the
    link of a vertex put between n and 1 in the boundary of C(n+1, 2k+2).
    """
    n, d = p.n, p.d
    name = f"the {n}-gon" if d == 2 else f"C({n},{d})"
    generators = cyclic_generator_count(n, d)
    check_subset_count(generators, f"the minimal non-faces of {name}", "generators")
    closure = _cyclic_facet_count(n, d) << min(d, 64)  # from d = 64 on, a lower bound
    check_subset_count(closure, "the downward closure of the facet list", "subsets")
    return _cyclic_ring(n, d)


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
