"""Homology ranks of moment-angle complexes by Hochster's formula.

For a complex K on 1..m, over any field F (Buchstaber-Panov, Toric
Topology, Thm 4.5.8),

    H_p(Z_K; F) = sum over J of H~_(p-|J|-1)(K_J; F),

J running over the vertex subsets and K_J the full subcomplex on J (the
empty J gives degree 0).  In the face ring's bigraded Betti numbers
beta_(i,j) = sum over |J| = j of dim H~^(j-i-1)(K_J), degree p collects
every beta_(i,j) with 2j - i = p.

Three routes, cheapest first; `first_difference` alone orders them, and
chooses between the last two field by field in the order of `FIELDS`:
GF(2), GF(10007), GF(3).

- the bottom read (`bottom_ranks`): with j0 the smallest generator size,
  Z_K is (2j0-2)-connected and H_(2j0-1) is free of rank the number of
  size-j0 generators, so the degrees up to 2j0-1 come from the generator
  histogram over every field;
- the even-d closed form (`cyclic_ranks`) for the boundary of C(n, d), d
  even: each H~(K_J) is free and sits in degree d/2-1 alone, so its rank is
  a reduced Euler characteristic and the sum over |J| = j is one binomial
  sum over the h-vector (`gale.h_vector`), the same over every field;
- the general route (`betti_table`): one elimination per subset J that is
  the union of the generators inside it (any other K_J is a cone), over
  GF(p) for a prime p.
"""

from math import comb

from . import complexes
from .gale import CyclicParams, check_subset_count, h_vector

__all__ = ["FIELDS", "bottom_ranks", "cyclic_ranks", "betti_table", "zk_ranks",
           "first_difference"]

FIELDS = (2, 10007, 3)


def bottom_ranks(F) -> tuple[int, dict[int, int]]:
    """(2j0 - 1, the ranks of Z_K in degrees 0..2j0-1), j0 the smallest
    generator size, read off `F.histogram` over every field.

    A subset J with fewer than j0 vertices spans a simplex, and one with
    j0 vertices spans a simplex or, for a generator, the sphere S^(j0-2);
    a larger K_J holds the full (j0-2)-skeleton on J, so it adds nothing
    below degree (j0-2) + (j0+1) + 1 = 2j0.

    >>> from momentangle import CyclicParams, from_cyclic
    >>> bottom_ranks(from_cyclic(CyclicParams(8, 4)))
    (5, {0: 1, 5: 16})
    """
    if not F.histogram:
        raise ValueError("the ideal is empty (full simplex): Z_K is a point")
    degree, count = F.histogram[0]
    return degree - 1, {0: 1, degree - 1: count}


def cyclic_ranks(p: CyclicParams) -> dict[int, int]:
    """The ranks of Z_K for the boundary K of C(n, d), d even, over every
    field: degree 0, then for 0 < j < n

        b_(j+d/2) = (-1)^(d/2) * sum over i of (-1)^i h_i C(n-d, j-i),

    max(0, j-n+d) <= i <= min(j, d), and the top class in degree n + d.

    K is d/2-neighbourly, so K_J holds the full (d/2-1)-skeleton on J, and
    by Alexander duality on the (d-1)-sphere K, H~_i(K_J) is H~^(d-2-i) of
    the full subcomplex on the other vertices.  So for J neither empty nor
    every vertex, H~(K_J) is free and sits in degree d/2-1 alone, where its
    rank is (-1)^(d/2-1) times the reduced Euler characteristic: a face with
    s vertices lies in C(n-s, j-s) sets J of size j, and sum_s f_(s-1) x^s =
    sum_i h_i x^i (1+x)^(d-i) at x = -y/(1+y) turns that f-vector sum into
    this one, whose at most n * (min(d, n-d) + 1) terms are counted first.

    >>> cyclic_ranks(CyclicParams(8, 4))
    {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}
    """
    n, d = p.n, p.d
    if d % 2:
        raise ValueError(f"the closed form needs an even dimension, got d={d}")
    check_subset_count(n * (min(d, n - d) + 1), f"the closed form of C({n},{d})", "terms")
    h, half = h_vector(p), d // 2
    ranks = {0: 1}
    for j in range(1, n):
        terms = range(max(0, j - n + d), min(j, d) + 1)
        total = sum((-h[i] if (half + i) % 2 else h[i]) * comb(n - d, j - i) for i in terms)
        if total:
            ranks[j + half] = total
    ranks[n + d] = 1
    return ranks


def _faces(m: int, gens) -> list[list[int]]:
    """Every face of the complex on 1..m with minimal non-faces `gens` (as
    bitmasks), one list per size, [0] (the empty face) first.  A face f with
    a vertex v above its top one added is a face unless a generator through
    v lies in it."""
    through = [[g for g in gens if g >> v & 1] for v in range(m)]
    layers = [[0]]
    while layers[-1]:
        layers.append([
            x
            for f in layers[-1]
            for v in range(f.bit_length(), m)
            for x in (f | 1 << v,)
            if not any(g & x == g for g in through[v])
        ])
    return layers[:-1]


def _rank_gf2(rows) -> int:
    """Rank over GF(2) of rows given as ints, reduced by XOR on the top bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                break
            row ^= other
    return len(pivots)


def _rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of sparse rows {column: coefficient}, reduced on
    their largest column, as the GF(2) rows are on their top bit."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            other = pivots.get(col)
            if other is None:
                inverse = pow(row[col], -1, p)
                pivots[col] = {k: v * inverse % p for k, v in row.items()}
                break
            factor = row[col]
            for k, v in other.items():
                value = (row.get(k, 0) - factor * v) % p
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def betti_table(F, p: int) -> dict[tuple[int, int], int]:
    """The nonzero bigraded Betti numbers beta_(i,j) of the face ring over
    GF(p), p prime, keyed (i, j), by one elimination per subset J that is
    the union of the generators inside it.

    A vertex of J in no generator inside J is a cone point of K_J, which is
    then acyclic, so only those unions are visited.  The unions take at
    most (generator count) * 2**m steps and the face tests (unions) * (faces
    of K); each count is checked against the subset limit before its work
    starts.  Boundary rows are ints reduced by XOR over GF(2) and sparse
    dicts over an odd prime.

    >>> from momentangle import CyclicParams, from_cyclic
    >>> betti_table(from_cyclic(CyclicParams(5, 2)), 2)
    {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    """
    m, gens = F.m, F.masks
    steps = len(gens) << min(m, 64)  # from m = 64 on, a lower bound
    check_subset_count(steps, "the generator unions of Hochster's formula", "steps")
    unions = {0}
    for g in gens:
        unions |= {u | g for u in unions}
    faces = _faces(m, gens)
    check_subset_count(len(unions) * sum(map(len, faces)), "Hochster's formula", "face tests")
    index = {f: k for layer in faces for k, f in enumerate(layer)}  # f's place in its layer
    rows = {}  # the boundaries ranked: f less its t-th vertex, sign (-1)^t, for |f| >= 2
    for f in (f for layer in faces[2:] for f in layer):
        terms, x = {}, f
        while x:
            low = x & -x
            x ^= low
            terms[index[f ^ low]] = 1 if len(terms) % 2 == 0 else p - 1
        rows[f] = sum(1 << k for k in terms) if p == 2 else terms
    rank = _rank_gf2 if p == 2 else lambda r: _rank_mod(r, p)
    table: dict[tuple[int, int], int] = {}
    for J in unions:
        j = J.bit_count()
        layers = [[0]]  # the faces of K_J by size, the empty face first
        for layer in faces[1 : j + 1]:
            inside = [f for f in layer if f & J == f]
            if not inside:
                break
            layers.append(inside)
        # ranks[s]: the rank of the boundary from the faces with s vertices
        ranks = [0, min(1, len(layers) - 1)]
        ranks += [rank(rows[f] for f in layer) for layer in layers[2:]]
        ranks.append(0)
        for s, layer in enumerate(layers):  # faces with s vertices: H~_(s-1)
            h = len(layer) - ranks[s] - ranks[s + 1]
            if h:
                table[j - s, j] = table.get((j - s, j), 0) + h
    return dict(sorted(table.items()))


def zk_ranks(F, p: int) -> dict[int, int]:
    """The ranks of Z_K over GF(p) by the general route: degree 2j - i
    collects beta_(i,j).

    >>> from momentangle import from_nonfaces
    >>> zk_ranks(from_nonfaces(6, [(1, 2), (3, 4), (5, 6)]), 3)  # (S^3)^3
    {0: 1, 3: 3, 6: 3, 9: 1}
    """
    ranks: dict[int, int] = {}
    for (i, j), b in betti_table(F, p).items():
        ranks[2 * j - i] = ranks.get(2 * j - i, 0) + b
    return dict(sorted(ranks.items()))


def _first(p: int, zk: dict, candidate: dict, degrees):
    """The first (p, degree, zk_rank, candidate_rank) in `degrees` that differs, or None."""
    k = next((k for k in degrees if zk.get(k, 0) != candidate.get(k, 0)), None)
    return None if k is None else (p, k, zk.get(k, 0), candidate.get(k, 0))


def first_difference(F, candidate: dict, q: int | None = None):
    """Z_K's ranks against `candidate`'s ({degree: rank}), in ascending
    degrees (degree q alone with `q`, any q >= 0), as (fields, difference):
    the primes of `FIELDS` compared, in order, and the first (p, degree,
    zk_rank, candidate_rank) that differs, or None.

    The bottom read comes first and holds over every field: a difference
    there is GF(2)'s, and a q <= 2j0 - 1 that agrees agrees over all.  Then
    each field takes the even-d closed form, computed once per call, if
    `complexes.even_cyclic_twin` names F's polytope, whatever its source;
    else `zk_ranks(F, p)`, computed only when field p is reached.

    >>> from momentangle import CyclicParams, from_cyclic
    >>> first_difference(from_cyclic(CyclicParams(5, 2)), {0: 1, 3: 5, 4: 5, 7: 1})
    ([2, 10007, 3], None)
    >>> first_difference(from_cyclic(CyclicParams(8, 4)), {0: 1, 5: 16, 12: 1})
    ([2], (2, 6, 30, 0))
    """
    if q is not None and q < 0:
        raise ValueError(f"q={q} is not a degree: homology starts in degree 0")
    top, bottom = bottom_ranks(F)
    low = range(top + 1) if q is None else (q,) if q <= top else ()
    difference = _first(FIELDS[0], bottom, candidate, low)
    if difference is not None:
        return [FIELDS[0]], difference
    if q is not None and q <= top:
        return list(FIELDS), None
    twin = complexes.even_cyclic_twin(F)
    closed = cyclic_ranks(twin) if twin else None
    fields = []
    for p in FIELDS:
        zk = closed if twin else zk_ranks(F, p)
        degrees = sorted(zk.keys() | candidate.keys()) if q is None else (q,)
        fields.append(p)
        difference = _first(p, zk, candidate, degrees)
        if difference is not None:
            break
    return fields, difference
