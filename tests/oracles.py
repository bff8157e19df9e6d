"""Independent oracle implementations and frozen reference data.

Everything here deliberately avoids the code paths it is used to check:
basic products are enumerated via Hall's inductive construction or counted
exponent vector by exponent vector instead of by the graded Witt formula,
connected-sum homology is peeled one summand at a time via the collapse
cofibration instead of multiplying punctured tables, the minimal relation
degree is found by exhaustive multiset matching instead of the lcm shortcut,
minimal non-faces are found by scanning subsets against the facet list (or
the non-face list) instead of reading per-face extension masks, the facets
of a cyclic polytope are found by testing every d-subset against Gale's
criterion or built as unions of cyclic pairs, and its minimal non-faces are
derived from those facets instead of read off the closed form, Gale's criterion
splits a subset into run objects instead of counting runs in one pass, and
neighborliness tests every q-subset instead of reading the closed-form
f-vector, the f-vector itself is summed from binomials instead of by
Horner's rule, the even-d closed form of Z_K's ranks is an alternating sum
over that f-vector instead of over the h-vector, generator pairs are compared and joined as Python sets
instead of as vertex bitmasks, relation multipliers are set differences
instead of filtered generator tuples, a report's witness is checked by
multiplying it out, and the homology of a moment-angle complex is found by a
dense mod-p elimination for every vertex subset over tuples and sets, with no
bitmask and no pruning, or from the cellular chain complex of (D^2, S^1)^K
instead of by Hochster's formula at all, and the connected-sum grammar is
read by the two regular expressions that `manifold` used before it parsed
with `str` methods, and the Moebius function that the necklace count inverts
with is found by trial division, which `hilton` no longer needs, and the
graded Witt recurrence sums over every smaller degree instead of over the
wedge's sphere dimensions alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product

from momentangle.gale import CyclicParams, as_subset, is_face
from momentangle.manifold import ConnectedSumSpec, SphereProduct

# The 16 minimal non-faces of the boundary complex of C(8,4); independently
# checked by hand against the proper-odd-component criterion.
CYCLIC_8_4_MINIMAL_NONFACES = [
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 4, 6),
    (1, 4, 7), (1, 5, 7), (2, 4, 6), (2, 4, 7),
    (2, 4, 8), (2, 5, 7), (2, 5, 8), (2, 6, 8),
    (3, 5, 7), (3, 5, 8), (3, 6, 8), (4, 6, 8),
]

PENTAGON_MINIMAL_NONFACES = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]

# The 6-vertex real projective plane: H_1(RP^2; Z) = Z/2, so its Z_K has
# 2-torsion in degree 1 + 6 + 1 = 8.
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

# K12: a 2-neighbourly triangulated 4-sphere on 12 vertices, 72 facets, found
# by a seeded triangle-flip search from the boundary of C(12,5).  Its full
# subcomplexes on 1..6 and on 7..12 are 6-vertex real projective planes, so
# its Z_K has 2-torsion.  Flips keep the PL type, not polytopality: whether
# K12 is a polytope boundary is not known.
K12_FACETS = [
    (1, 2, 3, 9, 10), (1, 2, 3, 9, 12), (1, 2, 3, 10, 12), (1, 2, 6, 8, 9),
    (1, 2, 6, 8, 12), (1, 2, 6, 9, 10), (1, 2, 6, 10, 12), (1, 2, 8, 9, 12),
    (1, 3, 4, 9, 10), (1, 3, 4, 9, 11), (1, 3, 4, 10, 12), (1, 3, 4, 11, 12),
    (1, 3, 9, 11, 12), (1, 4, 5, 9, 10), (1, 4, 5, 9, 12), (1, 4, 5, 10, 12),
    (1, 4, 9, 11, 12), (1, 5, 6, 7, 9), (1, 5, 6, 7, 10), (1, 5, 6, 9, 12),
    (1, 5, 6, 10, 12), (1, 5, 7, 9, 10), (1, 6, 7, 9, 10), (1, 6, 8, 9, 12),
    (2, 3, 5, 8, 9), (2, 3, 5, 8, 11), (2, 3, 5, 9, 11), (2, 3, 8, 9, 12),
    (2, 3, 8, 10, 11), (2, 3, 8, 10, 12), (2, 3, 9, 10, 11), (2, 4, 5, 8, 9),
    (2, 4, 5, 8, 11), (2, 4, 5, 9, 11), (2, 4, 6, 7, 8), (2, 4, 6, 7, 11),
    (2, 4, 6, 8, 9), (2, 4, 6, 9, 11), (2, 4, 7, 8, 11), (2, 6, 7, 8, 11),
    (2, 6, 8, 10, 11), (2, 6, 8, 10, 12), (2, 6, 9, 10, 11), (3, 4, 6, 7, 10),
    (3, 4, 6, 7, 11), (3, 4, 6, 9, 10), (3, 4, 6, 9, 11), (3, 4, 7, 10, 12),
    (3, 4, 7, 11, 12), (3, 5, 6, 7, 10), (3, 5, 6, 7, 11), (3, 5, 6, 10, 11),
    (3, 5, 7, 10, 12), (3, 5, 7, 11, 12), (3, 5, 8, 9, 12), (3, 5, 8, 10, 11),
    (3, 5, 8, 10, 12), (3, 5, 9, 11, 12), (3, 6, 9, 10, 11), (4, 5, 7, 8, 9),
    (4, 5, 7, 8, 11), (4, 5, 7, 9, 10), (4, 5, 7, 10, 12), (4, 5, 7, 11, 12),
    (4, 5, 9, 11, 12), (4, 6, 7, 8, 9), (4, 6, 7, 9, 10), (5, 6, 7, 8, 9),
    (5, 6, 7, 8, 11), (5, 6, 8, 9, 12), (5, 6, 8, 10, 11), (5, 6, 8, 10, 12),
]


# ---------------------------------------------------------------------------
# minimal non-faces: exhaustive subset scan against the facet list
# ---------------------------------------------------------------------------

def minimal_nonfaces_bruteforce(m: int, facets) -> list[tuple[int, ...]]:
    """Minimal non-faces of the complex spanned by `facets` on 1..m.

    Scans every subset of cardinality 2 .. max facet size + 1 and tests it,
    and each of its one-vertex deletions, for containment in some facet.
    """
    facet_sets = [set(f) for f in facets]

    def is_face(s) -> bool:
        return any(set(s) <= f for f in facet_sets)

    out = []
    for card in range(2, max(map(len, facet_sets), default=0) + 2):
        for s in combinations(range(1, m + 1), card):
            if not is_face(s) and all(is_face(s[:i] + s[i + 1 :]) for i in range(card)):
                out.append(s)
    return sorted(out)


def cyclic_facets_by_filter(n: int, d: int) -> list[tuple[int, ...]]:
    """Facets of the boundary of C(n, d): the d-subsets of 1..n that pass
    Gale's criterion, in `combinations` order."""
    p = CyclicParams(n, d)
    return [c for c in combinations(range(1, n + 1), d) if is_face(c, p)]


def _pairings(lo: int, hi: int, k: int) -> list[list[int]]:
    """The ways to pick k disjoint pairs {i, i+1} inside lo..hi, as vertex
    lists.

    Read lo..hi as a word of k pairs and s = hi - lo + 1 - 2k singles: a
    pairing is the interval less its singles, and the c-th single (from 0)
    at letter t is vertex lo + 2t - c.  Nothing recurses, so any k is built.
    """
    s = hi - lo + 1 - 2 * k
    if s < 0:
        return []
    out = []
    for singles in combinations(range(k + s), s):
        dropped = {lo + 2 * t - c for c, t in enumerate(singles)}
        out.append([v for v in range(lo, hi + 1) if v not in dropped])
    return out


def cyclic_facets_by_pairings(n: int, d: int) -> list[tuple[int, ...]]:
    """Facets of the boundary of C(n, d) by Gale's evenness condition: for
    even d the unions of d/2 disjoint cyclic pairs {i, i+1}, {n, 1} included;
    for odd d, {1} or {n} plus (d-1)/2 disjoint pairs on the other vertices."""
    k = d // 2
    if d % 2:
        facets = [[1, *x] for x in _pairings(2, n, k)]
        facets += [[*x, n] for x in _pairings(1, n - 1, k)]
    else:
        facets = _pairings(1, n, k)
        facets += [[1, *x, n] for x in _pairings(2, n - 1, k - 1)]
    return [tuple(f) for f in facets]


def minimal_elements_bruteforce(m: int, nonfaces) -> list[tuple[int, ...]]:
    """Minimal elements of a non-face list on 1..m, sorted.

    Scans every subset of 1..m and keeps those that contain a listed set
    while none of their one-vertex deletions does.
    """
    listed = [set(s) for s in nonfaces]

    def covered(s) -> bool:
        return any(t <= set(s) for t in listed)

    out = []
    for card in range(m + 1):
        for s in combinations(range(1, m + 1), card):
            if covered(s) and not any(covered(s[:i] + s[i + 1 :]) for i in range(card)):
                out.append(s)
    return sorted(out)


# ---------------------------------------------------------------------------
# presentation constructor: each refusal, in the order it is made
# ---------------------------------------------------------------------------

def presentation_refusal(m: int, supports) -> str | None:
    """The message with which `FaceRingPresentation(m, supports)` refuses its
    input, or None if it accepts it.

    Each support is checked in turn as a squarefree monomial (nonempty,
    strictly increasing, vertices from 1), then the vertex count, the
    lexicographic order, the first comparable pair in `combinations` order,
    and the range of every vertex.
    """
    for s in supports:
        if not s:
            return "squarefree monomials here have nonempty support"
        if any(a >= b for a, b in zip(s, s[1:])):
            return f"support must be strictly increasing, got {s}"
        if s[0] < 1:
            return f"variable indices start at 1, got {s}"
    if m < 1:
        return f"vertex count must be positive, got {m}"
    if list(supports) != sorted(supports):
        return "generators must be lexicographically sorted"
    pair = first_comparable_pair(supports)
    if pair is not None:
        return f"generators must be incomparable: {pair[0]} vs {pair[1]}"
    if any(s[-1] > m for s in supports):
        return "generator mentions a variable beyond v_m"
    return None


def degree_histogram(supports) -> tuple[tuple[int, int], ...]:
    """The (degree, count) pairs of a generator list by increasing degree,
    degree twice the support size, counted support by support."""
    counts: dict[int, int] = {}
    for s in supports:
        counts[2 * len(s)] = counts.get(2 * len(s), 0) + 1
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# generator-pair scans: every pair, on vertex sets
# ---------------------------------------------------------------------------

def first_comparable_pair(supports):
    """The first pair of supports, in `combinations` order, one of which
    contains the other (equal supports included); None for an antichain."""
    for a, b in combinations(supports, 2):
        if set(a).issubset(b) or set(b).issubset(a):
            return a, b
    return None


def comparable_pairs_by_sets(supports) -> set[tuple[int, int]]:
    """Every index pair (i, j) of a list of distinct supports with
    supports[i] a proper subset of supports[j]."""
    return {
        (i, j)
        for (i, a), (j, b) in permutations(enumerate(supports), 2)
        if set(a) < set(b)
    }


def lcm_quotients(a, b) -> tuple[list[int], list[int]]:
    """The multipliers that take the supports a and b to their lcm: the
    vertices of b missing from a, and the other way round, as set
    differences."""
    return sorted(set(b) - set(a)), sorted(set(a) - set(b))


def relation_holds(rmin: dict) -> bool:
    """Check a report's `rmin` block: its witness, generator_i times
    multiplier_i and generator_j times multiplier_j, is one monomial (the
    same multiset of variables) whose degree is the reported one."""
    w = rmin["witness"]
    left = sorted(w["generator_i"] + w["multiplier_i"])
    right = sorted(w["generator_j"] + w["multiplier_j"])
    return left == right and 2 * len(left) == w["degree"] == rmin["degree"]


def min_relation_pair_by_sets(F) -> tuple[int, int, int]:
    """(degree, i, j) for the first generator pair, in `combinations` order,
    whose support union is smallest; the degree is 2 * |union|."""
    gens = F.generators
    best = None
    for i, j in combinations(range(len(gens)), 2):
        deg = 2 * len(set(gens[i]) | set(gens[j]))
        if best is None or deg < best[0]:
            best = (deg, i, j)
    return best


# ---------------------------------------------------------------------------
# Gale's evenness criterion: maximal runs as objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """A maximal run of consecutive indices inside a vertex subset.

    `proper` means the run contains neither vertex 1 nor vertex n; `odd`
    means the run has an odd number of members.
    """

    run: tuple[int, ...]
    proper: bool
    odd: bool


def components(members, n: int) -> list[Component]:
    """Split a vertex subset into its maximal consecutive runs, in increasing
    order; the runs partition the subset."""
    xs = as_subset(members, n)
    out: list[Component] = []
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[j + 1] == xs[j] + 1:
            j += 1
        run = xs[i : j + 1]
        out.append(
            Component(
                run=run,
                proper=(run[0] != 1 and run[-1] != n),
                odd=(len(run) % 2 == 1),
            )
        )
        i = j + 1
    return out


def is_face_by_components(members, n: int, d: int) -> bool:
    """Gale's criterion for C(n, d): a k-subset is a face iff k <= d and it
    has at most d - k proper odd components."""
    xs = as_subset(members, n)
    proper_odd = sum(1 for c in components(xs, n) if c.proper and c.odd)
    return len(xs) <= d and proper_odd <= d - len(xs)


def is_q_neighborly_bruteforce(n: int, d: int, q: int) -> bool:
    """The definition: every q-subset of 1..n spans a face of C(n, d)."""
    return all(is_face_by_components(c, n, d) for c in combinations(range(1, n + 1), q))


def f_vector_binomial(n: int, d: int) -> tuple[int, ...]:
    """Face counts of the boundary of C(n, d) by the binomial sum
    f_{j-1} = sum_{i<=j} C(d-i, j-i) h_i over the cyclic h-vector
    h_i = C(n-d-1+min(i, d-i), min(i, d-i)), instead of Horner's rule."""
    h = [math.comb(n - d - 1 + min(i, d - i), min(i, d - i)) for i in range(d + 1)]
    return tuple(
        sum(math.comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)
    )


def cyclic_ranks_by_f_vector(n: int, d: int) -> dict[int, int]:
    """Z_K's ranks for the boundary of C(n, d), d even: degree 0, then for
    0 < j < n

        b_(j+d/2) = (-1)^(d/2-1) * sum over s >= 0 of (-1)^(s-1) f_(s-1) C(n-s, j-s)

    with f_(-1) = 1 and f from `f_vector_binomial`, and the top class in
    degree n + d: the reduced Euler characteristics of the K_J, summed face
    by face, instead of the h-vector sum of `hochster.cyclic_ranks`."""
    f = (1, *f_vector_binomial(n, d))  # f[s]: the faces with s vertices
    sign = -1 if d % 4 == 0 else 1  # (-1)^(d/2-1)
    ranks = {0: 1}
    for j in range(1, n):
        total = sum((f[s] if s % 2 else -f[s]) * math.comb(n - s, j - s) for s in range(min(j, d) + 1))
        if total:
            ranks[j + d // 2] = sign * total
    ranks[n + d] = 1
    return ranks


# ---------------------------------------------------------------------------
# Hall basis: basic products of the free nonassociative algebra
# ---------------------------------------------------------------------------

def hall_basic_products(k: int, max_weight: int) -> list[dict]:
    """Enumerate basic products on k generators up to max_weight.

    Hall's construction: generators come first; the serial order refines the
    weight order; [u, v] is basic iff u > v and, when u = [x, y], y <= v.
    Returns one dict per element with keys `weight`, `exps` (exponent vector)
    and `right` (serial of the right factor, None for generators).
    """
    items: list[dict] = []
    for i in range(k):
        exps = tuple(1 if j == i else 0 for j in range(k))
        items.append({"weight": 1, "exps": exps, "right": None, "serial": i})
    by_weight: dict[int, list[int]] = {1: list(range(k))}
    for w in range(2, max_weight + 1):
        created = []
        for wu in range(1, w):
            wv = w - wu
            for u_idx in by_weight.get(wu, []):
                for v_idx in by_weight.get(wv, []):
                    u, v = items[u_idx], items[v_idx]
                    if u["serial"] <= v["serial"]:
                        continue
                    if u["right"] is not None and items[u["right"]]["serial"] > v["serial"]:
                        continue
                    exps = tuple(a + b for a, b in zip(u["exps"], v["exps"]))
                    items.append(
                        {
                            "weight": w,
                            "exps": exps,
                            "right": v_idx,
                            "serial": len(items),
                        }
                    )
                    created.append(len(items) - 1)
        by_weight[w] = created
    return items


def hall_count_by_weight(k: int, max_weight: int) -> dict[int, int]:
    counts: dict[int, int] = {w: 0 for w in range(1, max_weight + 1)}
    for item in hall_basic_products(k, max_weight):
        counts[item["weight"]] += 1
    return counts


def hall_sphere_spectrum(dims, ceiling: int) -> dict[int, int]:
    """Sphere dimensions from basic products on generators S^dims, counted by
    explicit Hall enumeration (the independent route to the wedge spectrum).
    """
    dims = tuple(dims)
    steps = [d - 1 for d in dims]
    max_weight = (ceiling - 1) // min(steps)
    entries: dict[int, int] = {}
    for item in hall_basic_products(len(dims), max_weight):
        dim = sum(a * s for a, s in zip(item["exps"], steps)) + 1
        if dim <= ceiling:
            entries[dim] = entries.get(dim, 0) + 1
    return dict(sorted(entries.items()))


def moebius(n: int) -> int:
    """The Moebius function: 1 at 1, (-1)^k on squarefree n with k prime
    factors, 0 when a square divides n."""
    if n < 1:
        raise ValueError(f"moebius is defined on positive integers, got {n}")
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        p += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def _multinomial(total: int, parts) -> int:
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def _multidegree_count(vec: tuple[int, ...]) -> int:
    """Basic products with exponent vector `vec` (necklace refinement of the
    Witt formula): (1/W) * sum over d | gcd(vec) of mu(d) * (W/d)! / prod (a_i/d)!.
    """
    w = sum(vec)
    g = 0
    for a in vec:
        g = math.gcd(g, a)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += moebius(d) * _multinomial(w // d, [a // d for a in vec if a])
    if total < 0 or total % w:
        raise ArithmeticError(f"necklace sum {total} is not a multiple of {w}")
    return total // w


def necklace_sphere_spectrum(dims, ceiling: int) -> dict[int, int]:
    """Sphere dimensions from basic products on generators S^dims, counted
    exponent vector by exponent vector: a vector a contributes
    `_multidegree_count(a)` spheres of dimension sum(a_i * (dim_i - 1)) + 1.
    The cost is exponential in the generator count.
    """
    steps = [d - 1 for d in dims]
    entries: dict[int, int] = {}
    vec = [0] * len(steps)

    def descend(idx: int, budget: int) -> None:
        if idx == len(steps):
            if any(vec):
                mult = _multidegree_count(tuple(vec))
                if mult:
                    dim = sum(a * s for a, s in zip(vec, steps)) + 1
                    entries[dim] = entries.get(dim, 0) + mult
            return
        a = 0
        while a * steps[idx] <= budget:
            vec[idx] = a
            descend(idx + 1, budget - a * steps[idx])
            a += 1
        vec[idx] = 0

    descend(0, ceiling - 1)
    return dict(sorted(entries.items()))


def witt_spectrum_dense(histogram, ceiling: int) -> dict[int, int]:
    """The graded Witt recurrence summed densely, over every 0 < j < n
    whether a_j is zero or not: c_n = n * a_n + sum a_j * c_(n-j), and
    n * L_n is c_n less d * L_d over the proper divisors d of n.  The
    histogram is {sphere dimension D + 1: a_D}; returns {n + 1: L_n}."""
    a = [0] * ceiling
    for dim, count in histogram.items():
        if dim <= ceiling:
            a[dim - 1] = count
    c = [0] * ceiling
    spheres: dict[int, int] = {}
    for n in range(1, ceiling):
        c[n] = n * a[n] + sum(a[j] * c[n - j] for j in range(1, n))
        total = c[n] - sum(d * spheres.get(d + 1, 0) for d in range(1, n) if n % d == 0)
        if total % n:
            raise ArithmeticError(f"Witt sum {total} is not a multiple of {n}")
        if total:
            spheres[n + 1] = total // n
    return spheres


# ---------------------------------------------------------------------------
# connected sums: literal cofibration peeling
# ---------------------------------------------------------------------------

def _sphere_ranks(n: int) -> dict[int, int]:
    return {0: 1, n: 1}


def _kuenneth(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, ri in a.items():
        for j, rj in b.items():
            out[i + j] = out.get(i + j, 0) + ri * rj
    return out


def connected_sum_ranks_peeling(spec) -> dict[int, int]:
    """Homology ranks of a connected sum, one summand at a time.

    Uses the cofibration (T - U) -> (sum of i copies) -> (sum of i-1 copies):
    in middle degrees the long exact sequence splits rank-wise, so peeling
    adds the punctured summand's ranks to the remaining sum's.
    """
    copies = [t for mult, t in spec.summands for _ in range(mult)]
    D = copies[0].m + copies[0].n
    current = _kuenneth(_sphere_ranks(copies[0].m), _sphere_ranks(copies[0].n))
    for t in copies[1:]:
        punctured = _kuenneth(_sphere_ranks(t.m), _sphere_ranks(t.n))
        punctured.pop(D)
        merged = {0: 1, D: 1}
        for k in range(1, D):
            rank = punctured.get(k, 0) + current.get(k, 0)
            if rank:
                merged[k] = rank
        current = merged
    return dict(sorted(current.items()))


# ---------------------------------------------------------------------------
# relations among relations: exhaustive multiset search
# ---------------------------------------------------------------------------

def _subsets_upto(universe, max_size: int):
    return chain.from_iterable(
        combinations(universe, r) for r in range(max_size + 1)
    )


def min_relation_degree_bruteforce(F, max_multiplier_size: int | None = None) -> int:
    """Minimal relation degree by brute force over squarefree multipliers.

    For every generator pair and every pair of multiplier supports up to the
    bound, test whether both sides become the same monomial (multiset of
    variables).  The bound defaults to the largest generator support plus
    one, which covers every lcm quotient.
    """
    gens = F.generators
    if max_multiplier_size is None:
        max_multiplier_size = max(len(g) for g in gens) + 1
    universe = range(1, F.m + 1)
    multipliers = list(_subsets_upto(universe, max_multiplier_size))
    best = None
    for (i, gi), (j, gj) in combinations(enumerate(gens), 2):
        for a in multipliers:
            left = sorted(gi + a)
            deg = 2 * len(left)
            if best is not None and deg >= best:
                continue
            for b in multipliers:
                if len(b) != len(left) - len(gj):
                    continue
                if sorted(gj + b) == left:
                    best = deg
                    break
    if best is None:
        raise ValueError("no relation found within the multiplier bound")
    return best


# ---------------------------------------------------------------------------
# moment-angle homology: dense elimination per subset, and cellular chains
# ---------------------------------------------------------------------------

def rank_mod_dense(matrix, p: int) -> int:
    """Rank over GF(p) of a list of equal-length integer rows, by
    Gauss-Jordan elimination on a dense copy; inverses by Fermat."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inverse % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _boundary_rank(cells, lower, boundary, p: int) -> int:
    """Rank over GF(p) of the map taking each cell to `boundary(cell)`, a
    list of (lower cell, coefficient)."""
    if not cells or not lower:
        return 0
    column = {cell: k for k, cell in enumerate(lower)}
    matrix = []
    for cell in cells:
        row = [0] * len(lower)
        for face, coefficient in boundary(cell):
            row[column[face]] += coefficient
        matrix.append(row)
    return rank_mod_dense(matrix, p)


def _simplex_boundary(simplex):
    """The faces of a vertex tuple with one vertex dropped, signed (-1)^t."""
    return [(simplex[:t] + simplex[t + 1:], (-1) ** t) for t in range(len(simplex))]


def hochster_table_naive(m: int, nonfaces, p: int) -> dict[tuple[int, int], int]:
    """The nonzero beta_(i,j) = sum over |J| = j of dim H~_(j-i-1)(K_J; GF(p))
    of the complex on 1..m whose non-faces are the sets containing one of
    `nonfaces`, for every subset J: faces as tuples, tested against the
    non-faces as sets, and every boundary matrix reduced densely."""
    nonface_sets = [set(nf) for nf in nonfaces]

    def is_face(s) -> bool:
        return not any(nf <= set(s) for nf in nonface_sets)

    table: dict[tuple[int, int], int] = {}
    for j in range(m + 1):
        for J in combinations(range(1, m + 1), j):
            # faces[k]: the faces of K_J with k vertices, the empty one first
            faces = [[s for s in combinations(J, k) if is_face(s)] for k in range(j + 1)]
            ranks = [0] + [
                _boundary_rank(faces[k], faces[k - 1], _simplex_boundary, p)
                for k in range(1, j + 1)
            ] + [0]
            for k in range(j + 1):  # faces with k vertices carry H~_(k-1)
                h = len(faces[k]) - ranks[k] - ranks[k + 1]
                if h:
                    table[j - k, j] = table.get((j - k, j), 0) + h
    return dict(sorted(table.items()))


def zk_ranks_naive(m: int, nonfaces, p: int) -> dict[int, int]:
    """Ranks of H_*(Z_K; GF(p)) from `hochster_table_naive`, degree 2j - i."""
    ranks: dict[int, int] = {}
    for (i, j), b in hochster_table_naive(m, nonfaces, p).items():
        ranks[2 * j - i] = ranks.get(2 * j - i, 0) + b
    return dict(sorted(ranks.items()))


def zk_ranks_cellular(m: int, nonfaces, p: int) -> dict[int, int]:
    """Ranks of H_*(Z_K; GF(p)) from the cellular chain complex of
    Z_K = (D^2, S^1)^K, for m <= 6.

    D^2 has one cell in each dimension 0, 1, 2, with S^1 the first two and
    d(e2) = e1, d(e1) = 0.  A cell of Z_K is a type vector t in {0, 1, 2}^m
    whose 2-entries span a face of K; its dimension is sum(t), and by the
    product rule d(t) = sum over t_v = 2 of (-1)^(t_1 + ... + t_(v-1)) times t
    with t_v set to 1.
    """
    if m > 6:
        raise ValueError(f"the cellular oracle takes m <= 6, got m={m}")
    nonface_sets = [set(nf) for nf in nonfaces]
    cells: dict[int, list[tuple[int, ...]]] = {}
    for t in product((0, 1, 2), repeat=m):
        disk = {v + 1 for v in range(m) if t[v] == 2}
        if not any(nf <= disk for nf in nonface_sets):
            cells.setdefault(sum(t), []).append(t)

    def boundary(t):
        return [
            (t[:v] + (1,) + t[v + 1:], (-1) ** sum(t[:v])) for v in range(m) if t[v] == 2
        ]

    top = max(cells)
    ranks = [0] + [
        _boundary_rank(cells.get(k, []), cells.get(k - 1, []), boundary, p)
        for k in range(1, top + 1)
    ] + [0]
    out = {}
    for k in range(top + 1):
        h = len(cells.get(k, [])) - ranks[k] - ranks[k + 1]
        if h:
            out[k] = h
    return out


# ---------------------------------------------------------------------------
# the connected-sum grammar, as regular expressions
# ---------------------------------------------------------------------------

_SUMMAND = re.compile(r"^(?:(\d+)\*)?S(\d+)xS(\d+)$", re.IGNORECASE)


def parse_connected_sum_regex(text: str) -> ConnectedSumSpec:
    """`manifold.parse_connected_sum` as it was written with `re`: the
    whitespace (`\\s`) removed, then each `#`-separated part matched whole,
    case-insensitively, against `(\\d+\\*)?S\\d+xS\\d+`."""
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        raise ValueError("empty connected-sum description")
    summands = []
    for part in squeezed.split("#"):
        match = _SUMMAND.match(part)
        if not match:
            raise ValueError(
                f"bad summand {part!r}: expected k*S<m>xS<n>, e.g. 16*S5xS7"
            )
        mult = int(match.group(1)) if match.group(1) else 1
        summands.append((mult, SphereProduct(int(match.group(2)), int(match.group(3)))))
    return ConnectedSumSpec(summands=tuple(summands))
