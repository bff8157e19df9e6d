"""Independent oracle implementations and frozen reference data.

Everything here deliberately avoids the code paths it is used to check:
basic products are enumerated via Hall's inductive construction or counted
exponent vector by exponent vector instead of by the graded Witt formula,
connected-sum homology is peeled one summand at a time via the collapse
cofibration instead of multiplying punctured tables, and the minimal relation
degree is found by exhaustive multiset matching instead of the lcm shortcut.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

from momentangle.hilton import moebius

# The 16 minimal non-faces of the boundary complex of C(8,4); independently
# checked by hand against the proper-odd-component criterion.
CYCLIC_8_4_MINIMAL_NONFACES = [
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 4, 6),
    (1, 4, 7), (1, 5, 7), (2, 4, 6), (2, 4, 7),
    (2, 4, 8), (2, 5, 7), (2, 5, 8), (2, 6, 8),
    (3, 5, 7), (3, 5, 8), (3, 6, 8), (4, 6, 8),
]

PENTAGON_MINIMAL_NONFACES = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


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
    gens = [g.support for g in F.generators]
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
