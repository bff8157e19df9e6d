import copy
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import momentangle
from momentangle import (
    ConnectedSumSpec,
    GradedRanks,
    SphereProduct,
    SphereSpectrum,
    complexes,
)
from momentangle.cli import _monomial
from momentangle.complexes import (
    FaceRingPresentation,
    _comparable_pairs,
    cyclic_generator_count,
    even_cyclic_twin,
    from_cyclic,
    from_facets,
    from_nonfaces,
    parse_complex,
)
from momentangle.gale import CyclicParams, f_vector, h_vector, is_face as cyclic_is_face

from conftest import SRC
from oracles import (
    CYCLIC_8_4_MINIMAL_NONFACES,
    PENTAGON_MINIMAL_NONFACES,
    comparable_pairs_by_sets,
    cyclic_facets_by_filter,
    cyclic_facets_by_pairings,
    degree_histogram,
    first_comparable_pair,
    minimal_elements_bruteforce,
    minimal_nonfaces_bruteforce,
    presentation_refusal,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import FACE_LADDER_IDEALS  # noqa: E402


def supports(F):
    """The generator supports of F: its minimal non-faces, sorted."""
    return list(F.generators)


def all_subsets(m, max_card=None):
    top = m if max_card is None else max_card
    for k in range(top + 1):
        yield from combinations(range(1, m + 1), k)


def random_facet_lists():
    """(m, facets) for small ghost-free complexes on up to 10 vertices, with
    facets of 1 to 6 vertices, so most lists are impure; singletons patch
    uncovered vertices, so non-maximal entries are common, and a drawn facet
    may repeat."""

    def build(args):
        m, raw = args
        facets = [tuple(sorted(f)) for f in raw if f] + [
            (i,) for i in range(1, m + 1)
        ]
        facets = [tuple(v for v in f if v <= m) for f in facets]
        return m, [f for f in facets if f]

    return st.tuples(
        st.integers(3, 10),
        st.lists(st.sets(st.integers(1, 10), min_size=1, max_size=6), max_size=8),
    ).map(build)


@st.composite
def generator_lists(draw):
    """(m, supports): supports of mixed sizes on 1..9, so duplicates, proper
    containments across sizes and variables beyond v_m all occur; sorted
    unless a drawn flag says otherwise.  Half the lists get one more support
    drawn as any tuple of at most five integers in -2..9, so empty, unsorted
    and repeated supports, vertex 0 and negative vertices occur; m runs from
    -1 up."""
    m = draw(st.integers(-1, 9))
    raw = draw(st.lists(st.sets(st.integers(1, 9), min_size=1, max_size=5), max_size=10))
    sups = [tuple(sorted(s)) for s in raw]
    if draw(st.booleans()):
        sups.sort()
    if draw(st.booleans()):
        bad = tuple(draw(st.lists(st.integers(-2, 9), max_size=5)))
        sups.insert(draw(st.integers(0, len(sups))), bad)
    return m, sups


@st.composite
def many_small_supports(draw):
    """(m, supports) like `generator_lists`, but with eight to fifteen
    2-subsets of 1..6 and one to three supports of three or four vertices on
    1..9, so the 2-subsets usually outnumber a larger support's 2-subsets and
    `_comparable_pairs` looks those up (in about four in five sorted lists);
    drawn supports may repeat, and the list is sorted unless a drawn flag
    says otherwise."""
    m = draw(st.integers(4, 9))
    pairs = st.sets(st.integers(1, 6), min_size=2, max_size=2)
    larger = st.sets(st.integers(1, 9), min_size=3, max_size=4)
    raw = draw(st.lists(pairs, min_size=8, max_size=15)) + draw(st.lists(larger, min_size=1, max_size=3))
    sups = [tuple(sorted(s)) for s in raw]
    if draw(st.booleans()):
        sups.sort()
    return m, sups


FLAWS = ("repeat", "unsorted", "zero", "empty", "swap")


@st.composite
def alternating_runs(draw):
    """(m, supports) whose sizes alternate run by run: runs of one to three
    supports, each run's size, 2 to 4, unlike the size before it, so a size
    often forms two runs or more.  Each support's least vertex lies one or
    two above the last one's, so the list is sorted and keeps its runs; its
    other vertices lie within nine above it, so containments occur.  Half
    the lists get one flaw: a support repeated in place or reversed, a 0
    vertex put first in one, an empty support inserted or two neighbours
    swapped; m lies within ten above the last least vertex, so some
    vertices lie beyond v_m."""
    sups, size, low = [], None, 0
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([s for s in (2, 3, 4) if s != size]))
        for _ in range(draw(st.integers(1, 3))):
            low += draw(st.integers(1, 2))
            rest = st.sets(st.integers(low + 1, low + 9), min_size=size - 1, max_size=size - 1)
            sups.append((low, *sorted(draw(rest))))
    flaw = draw(st.sampled_from(FLAWS)) if draw(st.booleans()) else None
    i = draw(st.integers(0, len(sups) - 1))
    if flaw == "repeat":
        sups.insert(i, sups[i])
    elif flaw == "unsorted":
        sups[i] = sups[i][::-1]
    elif flaw == "zero":
        sups[i] = (0, *sups[i][1:])
    elif flaw == "empty":
        sups.insert(i, ())
    elif flaw == "swap" and i + 1 < len(sups):
        sups[i], sups[i + 1] = sups[i + 1], sups[i]
    return draw(st.integers(low + 1, low + 11)), sups


def subset_lookup_fires(sups):
    """Whether `_comparable_pairs` looks subsets up on these sorted supports:
    some size has more distinct supports than a larger size's support has
    subsets of that size."""
    counts = Counter(map(len, set(sups)))
    sizes = sorted(counts)
    return any(comb(big, small) < counts[small]
               for k, small in enumerate(sizes) for big in sizes[k + 1 :])


def masks_of(sups):
    return tuple(sum(1 << (v - 1) for v in s) for s in sups)


def check_presentation(m, sups):
    """The constructor accepts what the oracle accepts, with the masks and
    the size counts of the supports, and refuses the rest with the oracle's
    message."""
    want = presentation_refusal(m, sups)
    if want is None:
        F = FaceRingPresentation(m, tuple(sups))
        assert F.masks == masks_of(sups)
        assert F.histogram == degree_histogram(sups)
    else:
        with pytest.raises(ValueError) as info:
            FaceRingPresentation(m, tuple(sups))
        assert str(info.value) == want


def odd_cyclic_with_a_comparable_extra():
    """Each odd-d ring C(n, d), n <= 14, with one more support: the first
    (k+1)-generator plus its smallest missing vertex, or the first
    (k+2)-generator less its last vertex; only those on which
    `_comparable_pairs` looks subsets up."""
    cases = []
    for d in range(3, 13, 2):
        k = d // 2
        for n in range(d + 2, 15):
            gens = list(from_cyclic(CyclicParams(n, d)).generators)
            small = next(g for g in gens if len(g) == k + 1)
            big = next(g for g in gens if len(g) == k + 2)
            above = tuple(sorted((*small, min(set(range(1, n + 1)) - set(small)))))
            for extra in (above, big[:-1]):
                sups = sorted([*gens, extra])
                if subset_lookup_fires(sups):
                    label = "-".join(map(str, extra))
                    cases.append(pytest.param(n, sups, id=f"C{n}_{d}+{label}"))
    return cases


def nonface_lists():
    """(m, non-faces) with at least two vertices per entry; entries come in
    any order, unsorted, and may repeat or contain one another."""

    def draw(m):
        entry = st.lists(st.integers(1, m), min_size=2, max_size=m, unique=True)
        return st.tuples(st.just(m), st.lists(entry, max_size=8))

    return st.integers(2, 7).flatmap(draw)


class TestMonomial:
    """A generator is the squarefree monomial on its vertex tuple."""

    def test_degree_doubles_support(self):
        assert FaceRingPresentation(5, ((1, 3, 5),)).histogram == ((6, 1),)

    def test_str(self):
        assert _monomial((2, 4, 8)) == "v2*v4*v8"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^squarefree monomials here have nonempty support$"):
            FaceRingPresentation(3, ((),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match=r"^support must be strictly increasing, got \(3, 1\)$"):
            FaceRingPresentation(3, ((3, 1),))


class TestFactories:
    def test_facets_drop_nonmaximal(self):
        K = from_facets(3, [(1, 2), (1,), (3,)])
        assert K == from_facets(3, [(1, 2), (3,)])
        assert supports(K) == [(1, 3), (2, 3)]

    def test_facets_reject_ghosts(self):
        with pytest.raises(ValueError):
            from_facets(3, [(1, 2)])

    def test_ghost_check_is_sized_by_the_input(self):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_facets(10**9, [(1, 2)])
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert len(message.encode()) < 300
        assert message == (
            "ghost vertices (in no facet): "
            "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] (999999998 in all)"
        )
        with pytest.raises(ValueError, match=r"in no facet\): \[3\]$"):
            from_facets(3, [(1, 2)])
        with pytest.raises(ValueError, match=r": \[3, 4, 5, 6, 7, 8, 9, 10, 11, 12\]$"):
            from_facets(12, [(1, 2)])

    def test_facets_refuse_oversized_closure(self):
        with pytest.raises(ValueError, match=f"{2**25} subsets"):
            from_facets(25, [range(1, 26)])

    def test_cyclic_refuses_oversized_facet_search(self):
        # Odd d is guarded by its generator count, as even d is.  C(23,11)
        # has 11,011 generators, so the closure guard refuses it, at once;
        # C(1451,3) has 1,049,075, refused by their count before any is
        # built; C(44,5) is admitted by its 10,621, although C(44, 5) is
        # 1,086,008, above the subset limit.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(23, 11))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            "the downward closure of the facet list would need 25346048 "
            "subsets, above the limit of 1048576"
        )
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(1451, 3))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            "the minimal non-faces of C(1451,3) would need 1049075 generators, "
            "above the limit of 1048576"
        )
        F = from_cyclic(CyclicParams(44, 5))
        assert len(F.generators) == cyclic_generator_count(44, 5) == 10621

    @pytest.mark.parametrize(
        "n,d",
        [(22, 11), (20, 10), (999, 998), (1000, 998), (1001, 1000), (999, 997), (1000, 996)],
    )
    def test_cyclic_refuses_oversized_closure_at_once(self, n, d):
        # Admitted by the generator-count guard; each of the f_(d-1) facets
        # has 2**d subsets, so the closure guard refuses, from the facet count
        # alone: C(1000, 998) has 250,000 facets, and none is built.  It is
        # also the only bound on generator size: C(1000, 996) has 250,000
        # generators of 499 vertices each, 124,750,000 tuple entries.
        assert cyclic_generator_count(n, d) <= 1048576
        p = CyclicParams(n, d)
        closure = f_vector(p)[-1] << d
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(p)
        assert time.perf_counter() - start < 0.05
        # From 2**64 on, the rule words a lower bound, never above the count.
        head = "the downward closure of the facet list would need "
        tail = " subsets, above the limit of 1048576"
        shown = str(info.value).removeprefix(head).removesuffix(tail)
        assert head + shown + tail == str(info.value)
        if closure < 2**64:
            assert shown == str(closure)
        else:
            assert shown.startswith("at least 2^") and 2**64 <= 2 ** int(shown[11:]) <= closure

    @pytest.mark.parametrize(
        "n,d,count",
        [(20, 10, "4100096"), (22, 11, "17891328"),
         (1001, 1000, "at least 2^73"), (1448, 1447, "at least 2^74"),
         (10**9 + 1, 10**9, "at least 2^93"), (3000002, 3000000, "at least 2^105")],
    )
    def test_cyclic_refusal_messages(self, n, d, count):
        # C(n, n-1) is the simplex boundary, n facets of n-1 vertices each;
        # f_vector refuses C(1448, 1447) with a message of its own.  From
        # d = 64 on the closure is worded by the bound facets * 2**64.  The
        # facet count is read in closed form, never off a built h-vector,
        # which for C(10**9+1, 10**9) would hold 10**9 + 1 entries.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(n, d))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            f"the downward closure of the facet list would need {count} subsets, "
            "above the limit of 1048576"
        )

    def test_nonfaces_reject_singletons(self):
        with pytest.raises(ValueError):
            from_nonfaces(3, [(2,)])

    def test_nonfaces_minimalized(self):
        K = from_nonfaces(4, [(1, 2), (1, 2, 3), (3, 4)])
        assert supports(K) == [(1, 2), (3, 4)]

    def test_is_face_validates_range(self):
        K = from_cyclic(CyclicParams(5, 2))
        with pytest.raises(ValueError):
            K.is_face({0, 2})


class TestFromCyclic:
    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 14) for d in range(2, n)]
    )
    def test_facets_match_subset_filter(self, n, d):
        # Equal complexes have equal facets.
        facets = cyclic_facets_by_filter(n, d)
        assert from_cyclic(CyclicParams(n, d)) == from_facets(n, facets)

    @pytest.mark.parametrize(
        "n,d", [*FACE_LADDER_IDEALS, (16, 6), (20, 4), (14, 8), (19, 9), (21, 8)]
    )
    def test_closed_form_matches_pairing_facets(self, n, d):
        # The benchmark's ideal rungs, its probe rings, and two rings just
        # inside the closure guard.
        facets = cyclic_facets_by_pairings(n, d)
        assert from_cyclic(CyclicParams(n, d)) == from_facets(n, facets)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 15) for d in range(2, n)]
    )
    def test_facet_count(self, n, d, monkeypatch):
        # The closure guard's facet count, read off the count it checks:
        # f_(d-1), the sum of the h-vector, times 2**d.
        counts = {}
        monkeypatch.setattr(
            momentangle.complexes, "check_subset_count",
            lambda count, what, unit: counts.setdefault(unit, count),
        )
        from_cyclic(CyclicParams(n, d))
        facets = cyclic_facets_by_filter(n, d)
        assert counts["subsets"] == len(facets) << d
        assert sum(h_vector(CyclicParams(n, d))) == len(facets)
        assert sorted(cyclic_facets_by_pairings(n, d)) == facets

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 15) for d in range(2, n)]
    )
    def test_even_generator_count(self, n, d):
        # Every d, odd ones included: the count guards both parities.
        assert cyclic_generator_count(n, d) == len(from_cyclic(CyclicParams(n, d)).generators)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 15) for d in range(2, n)]
    )
    def test_even_cyclic_twin_finds_even_d(self, n, d):
        p = CyclicParams(n, d)
        assert even_cyclic_twin(from_cyclic(p)) == (p if d % 2 == 0 else None)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 9), st.data())
    def test_even_cyclic_twin_matches_ring_equality(self, m, data):
        # One-size lists drawn near the ring of C(m, 2s-2): its generators
        # with a few taken out and a few s-subsets put in, so that many
        # draws have its generator count without being its ring.
        s = data.draw(st.integers(1, m))
        pool = list(combinations(range(1, m + 1), s))
        ring = {g for g in pool if not any((b - a) % m in (1, m - 1) for a, b in combinations(g, 2))}
        gens = ring - data.draw(st.sets(st.sampled_from(pool), max_size=3))
        gens |= data.draw(st.sets(st.sampled_from(pool), max_size=2))
        if not gens:
            return
        F = FaceRingPresentation(m, tuple(sorted(gens)))
        rings = [CyclicParams(m, d) for d in range(2, m, 2)]
        expected = [p for p in rings if from_cyclic(p) == F]
        assert even_cyclic_twin(F) == (expected[0] if expected else None)

    def test_c73_4_is_admitted_by_its_generator_count(self):
        # C(73,4) = 1088430 would fail a facet-search guard; its 57,086
        # generators pass, and the ring is that of its 2,555 facets, pairs
        # of disjoint cyclic edges.
        pairs = [{i, i % 73 + 1} for i in range(1, 74)]
        facets = {tuple(sorted(a | b)) for a, b in combinations(pairs, 2) if not a & b}
        K = from_cyclic(CyclicParams(73, 4))
        assert len(K.generators) == cyclic_generator_count(73, 4) == 57086
        assert K == from_facets(73, facets)

    def test_c188_4_is_refused_by_its_generator_count(self):
        # C(187,4) has 1,038,037 generators, under the limit; C(188,4) is refused.
        assert cyclic_generator_count(187, 4) == 1038037
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(188, 4))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            "the minimal non-faces of C(188,4) would need 1055056 generators, "
            "above the limit of 1048576"
        )

    def test_c84_triangle_count(self):
        K = from_cyclic(CyclicParams(8, 4))
        triangles = [c for c in combinations(range(1, 9), 3) if K.is_face(c)]
        assert len(triangles) == 40

    def test_simplex_boundary(self):
        K = from_cyclic(CyclicParams(5, 4))
        for s in all_subsets(5):
            assert K.is_face(s) == (len(s) < 5)

    def test_c64_nonface(self):
        assert not from_cyclic(CyclicParams(6, 4)).is_face({1, 3, 5})

    @pytest.mark.parametrize("n,d", [(5, 4), (6, 4), (7, 3), (8, 4), (6, 2)])
    def test_faces_match_criterion(self, n, d):
        p = CyclicParams(n, d)
        K = from_cyclic(p)
        for s in all_subsets(n):
            assert K.is_face(s) == cyclic_is_face(s, p)


class TestFromPolygon:
    def test_pentagon(self):
        assert supports(from_cyclic(CyclicParams(5, 2))) == PENTAGON_MINIMAL_NONFACES

    def test_square(self):
        assert supports(from_cyclic(CyclicParams(4, 2))) == [(1, 3), (2, 4)]

    def test_hexagon_count(self):
        assert len(supports(from_cyclic(CyclicParams(6, 2)))) == 9

    def test_triangle(self):
        # The 3-gon is C(3, 2), the boundary of a triangle: one generator.
        assert supports(from_cyclic(CyclicParams(3, 2))) == [(1, 2, 3)]

    @pytest.mark.parametrize("m", range(3, 61))
    def test_matches_edge_facets(self, m):
        edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
        edge_file = f"vertices {m}\nfacets\n" + "\n".join(f"{i} {j}" for i, j in edges)
        assert from_cyclic(CyclicParams(m, 2)) == from_facets(m, edges)
        assert parse_complex(edge_file) == from_facets(m, edges)

    @pytest.mark.parametrize("m", [2000, 100000])
    def test_refuses_huge_polygon_at_once(self, m):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(m, 2))
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            f"the minimal non-faces of the {m}-gon would need {m * (m - 3) // 2} "
            "generators, above the limit of 1048576"
        )

    def test_largest_admitted_polygon(self):
        # 1449 * 1446 / 2 = 1047627 generators are admitted; one more vertex
        # passes the limit.
        with pytest.raises(ValueError, match="the 1450-gon would need 1049075 generators"):
            from_cyclic(CyclicParams(1450, 2))

    def test_edge_facets_take_the_generator_guard(self):
        # The 1450-gon's edges pass the closure guard (4 subsets per edge);
        # its 1450 * 1447 / 2 minimal non-faces are refused, as by
        # `from_cyclic` on C(1450, 2), before any is built.
        edges = [(i, i + 1) for i in range(1, 1450)] + [(1, 1450)]
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_facets(1450, edges)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "the minimal non-faces of the facet list would need 1049075 generators, "
            "above the limit of 1048576"
        )

    def test_cyclic_dimension_two_takes_polygon_guard(self):
        # C(1449, 2) is admitted, as `polygon 1449` is; C(1450, 2) is refused
        # by the generator count, not by the C(n, 2) facet search.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_cyclic(CyclicParams(1450, 2))
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "the minimal non-faces of the 1450-gon would need 1049075 generators, "
            "above the limit of 1048576"
        )

    def test_faces_are_cycle_edges(self):
        K = from_cyclic(CyclicParams(6, 2))
        for i, j in combinations(range(1, 7), 2):
            adjacent = (j - i) in (1, 5)
            assert K.is_face({i, j}) == adjacent


class TestMinimalNonfaces:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_skeleton_facets_match_nonfaces(self, m):
        # The k-skeleton of the (m-1)-simplex: its C(m, k) facets share most
        # of their faces, so the walk revisits each face many times.
        for k in range(1, m):
            facets = combinations(range(1, m + 1), k)
            nonfaces = combinations(range(1, m + 1), k + 1)
            assert from_facets(m, facets) == from_nonfaces(m, nonfaces)

    def test_c84_matches_reference(self):
        got = supports(from_cyclic(CyclicParams(8, 4)))
        assert got == CYCLIC_8_4_MINIMAL_NONFACES

    def test_simplex_boundary_single_nonface(self):
        got = supports(from_cyclic(CyclicParams(5, 4)))
        assert got == [(1, 2, 3, 4, 5)]
        # C(3, 2) is the triangle, not a polygon with a generator per pair.
        assert supports(from_cyclic(CyclicParams(3, 2))) == [(1, 2, 3)]

    def test_deterministic(self):
        assert from_cyclic(CyclicParams(7, 4)) == from_cyclic(CyclicParams(7, 4))

    @settings(max_examples=60, deadline=None)
    @given(random_facet_lists())
    def test_minimality_and_reconstruction(self, args):
        m, facets = args
        gens = supports(from_facets(m, facets))
        for a, b in combinations(gens, 2):
            assert not set(a).issubset(b)
            assert not set(b).issubset(a)
        for s in all_subsets(m):
            covered = any(set(g).issubset(s) for g in gens)
            assert any(set(s) <= set(f) for f in facets) == (not covered)

    @settings(max_examples=100, deadline=None)
    @given(random_facet_lists(), st.data())
    def test_from_facets_matches_bruteforce(self, args, data):
        m, facets = args
        repeated = data.draw(st.lists(st.sampled_from(facets), max_size=3))
        got = supports(from_facets(m, facets + repeated))
        assert got == minimal_nonfaces_bruteforce(m, facets)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 12) for d in range(2, n)]
    )
    def test_cyclic_matches_bruteforce(self, n, d):
        facets = cyclic_facets_by_filter(n, d)
        got = supports(from_cyclic(CyclicParams(n, d)))
        assert got == minimal_nonfaces_bruteforce(n, facets)

    @settings(max_examples=100, deadline=None)
    @given(nonface_lists(), st.data())
    def test_from_nonfaces_matches_bruteforce(self, args, data):
        m, listed = args
        if listed:
            repeated = data.draw(st.lists(st.sampled_from(listed), max_size=3))
            grown = data.draw(
                st.lists(st.tuples(st.sampled_from(listed), st.integers(1, m)), max_size=3)
            )
            listed = listed + repeated + [s + [v] for s, v in grown if v not in s]
        listed = data.draw(st.permutations(listed))
        got = supports(from_nonfaces(m, listed))
        assert got == minimal_elements_bruteforce(m, listed)

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(2, 5), st.integers(0, 4)))
    def test_cyclic_generators_respect_neighborliness(self, t):
        d, extra = t
        p = CyclicParams(d + 2 + extra, d)
        gens = supports(from_cyclic(p))
        assert all(len(g) >= p.d // 2 + 1 for g in gens)


class TestFaceRing:
    def test_c84(self, c84_ring):
        assert c84_ring.m == 8
        assert len(c84_ring.generators) == 16
        assert c84_ring.histogram == ((6, 16),)

    def test_pentagon(self, pentagon_ring):
        assert pentagon_ring.m == 5
        assert len(pentagon_ring.generators) == 5
        assert pentagon_ring.histogram == ((4, 5),)

    def test_full_simplex_is_trivial(self):
        F = from_facets(4, [(1, 2, 3, 4)])
        assert F.is_trivial
        assert F.generators == ()

    def test_presentation_rejects_comparable_generators(self):
        with pytest.raises(ValueError):
            FaceRingPresentation(4, ((1, 2), (1, 2, 3)))

    def test_presentation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FaceRingPresentation(4, ((2, 3), (1, 2)))

    def test_presentation_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"incomparable: \(1, 2\) vs \(1, 2\)$"):
            FaceRingPresentation(4, ((1, 2), (1, 2)))

    def test_masks_are_derived_not_compared(self, c84_ring):
        assert c84_ring.masks[0] == 0b10101  # v1*v3*v5
        assert "masks" not in repr(c84_ring)
        twin = FaceRingPresentation(8, c84_ring.generators)
        assert twin == c84_ring and hash(twin) == hash(c84_ring)

    def test_hash_is_that_of_m_and_generators(self, c84_ring):
        # The hash is computed once, at construction; copies and pickles
        # rebuild it through the constructor.
        for F in (c84_ring, copy.copy(c84_ring), copy.deepcopy(c84_ring),
                  pickle.loads(pickle.dumps(c84_ring))):
            assert hash(F) == hash((F.m, F.generators)) == hash((8, c84_ring.generators))
        with pytest.raises(AttributeError):
            c84_ring._hash = 0

    @pytest.mark.parametrize("make, field", [
        (lambda: CyclicParams(8, 4), "n"),
        (lambda: FaceRingPresentation(5, ((1, 3), (1, 4))), "m"),
        (lambda: SphereSpectrum({5: 16, 9: 120}, 9), "ceiling"),
        (lambda: SphereProduct(7, 5), "m"),
        (lambda: ConnectedSumSpec(((2, SphereProduct(3, 3)), (1, SphereProduct(2, 4)))), "summands"),
        (lambda: GradedRanks({0: 1, 3: 2, 6: 1}, 6), "top"),
    ])
    def test_value_classes(self, make, field):
        """Each value class is immutable, equal to an instance built from the
        same arguments, printed as its constructor call, and copied or
        pickled through its checks."""
        a, b = make(), make()
        assert a == b and a is not b and repr(a) == repr(b)
        assert eval(repr(a), vars(momentangle)) == a
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        assert a == b

    def test_presentation_checks_every_generator_range(self):
        # The lexicographically last generator, (2, 3), lies inside 1..5.
        with pytest.raises(ValueError, match="beyond v_m$"):
            FaceRingPresentation(5, ((1, 9), (2, 3)))

    @settings(max_examples=300, deadline=None)
    @given(generator_lists())
    @example((3, [()]))
    @example((3, [(3, 1)]))
    @example((3, [(1, 1)]))
    @example((3, [(0, 2)]))
    @example((3, [(-1, 2)]))
    @example((0, [(1, 2)]))
    @example((3, [(2, 3), (1, 3), (0,)]))
    def test_constructor_matches_pairwise_oracle(self, args):
        check_presentation(*args)

    @settings(max_examples=300, deadline=None)
    @given(alternating_runs())
    def test_alternating_runs_match_the_pairwise_oracle(self, args):
        # A size that forms two runs or more is grouped by one sort, and its
        # masks are put back in the generators' order.
        m, sups = args
        lengths = [*map(len, sups)]
        runs = 1 + sum(a != b for a, b in zip(lengths, lengths[1:]))
        event("grouped by sort" if runs > len(set(lengths)) else "runs in place")
        event("accepted" if presentation_refusal(m, sups) is None else "refused")
        check_presentation(m, sups)


class TestComparablePairRoutes:
    """`_comparable_pairs` matches two sizes by looking a larger support's
    subsets up among the smaller supports when those outnumber the subsets,
    and by testing mask pairs otherwise; both routes yield every proper
    containment, so the constructor's first pair and refusal are the
    oracle's, and `from_nonfaces` keeps exactly the minimal entries."""

    @pytest.mark.parametrize("m, sups", odd_cyclic_with_a_comparable_extra())
    def test_odd_cyclic_ring_with_a_comparable_extra(self, m, sups):
        assert subset_lookup_fires(sups)
        pairs = set(_comparable_pairs(tuple(sups), masks_of(sups)))
        assert pairs == comparable_pairs_by_sets(sups)
        i, j = min(map(sorted, pairs))
        assert (sups[i], sups[j]) == first_comparable_pair(sups)
        check_presentation(m, sups)

    def test_odd_cyclic_cases_cover_every_odd_d(self):
        # 45 cases: d = 3, 5, 7, 9 and 11 give 17, 13, 9, 5 and 1.
        ids = [case.id for case in odd_cyclic_with_a_comparable_extra()]
        assert {i.split("+")[0].split("_")[1] for i in ids} == {"3", "5", "7", "9", "11"}
        assert len(ids) == 45

    @pytest.mark.parametrize("seed", range(8))
    def test_nonface_list_of_many_pairs_and_a_few_triples(self, seed):
        rng = random.Random(seed)
        nonfaces = [*rng.sample(list(combinations(range(1, 10), 2)), 12),
                    *rng.sample(list(combinations(range(1, 10), 3)), 3)]
        listed = sorted(nonfaces)
        assert subset_lookup_fires(listed)
        assert set(_comparable_pairs(listed, masks_of(listed))) == comparable_pairs_by_sets(listed)
        assert supports(from_nonfaces(9, nonfaces)) == minimal_elements_bruteforce(9, nonfaces)

    @settings(max_examples=300, deadline=None)
    @given(many_small_supports())
    def test_many_small_supports_match_the_oracles(self, args):
        m, sups = args
        if sups == sorted(sups):
            event("subset lookup" if subset_lookup_fires(sups) else "mask tests")
            distinct = sorted(set(sups))
            assert set(_comparable_pairs(distinct, masks_of(distinct))) == (
                comparable_pairs_by_sets(distinct))
        check_presentation(m, sups)


class TestColumnPath:
    """`_cyclic_ring` hands the columns it zips its generators from to the
    constructor's checked core, so a closed-form ring is the ring that the
    constructor builds from its generators, and a bad column is refused as
    the constructor refuses its generators."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_the_constructor(self, n):
        for d in range(2, n):
            try:
                F = from_cyclic(CyclicParams(n, d))
            except ValueError as exc:
                # Refused by a guard before any column is built.
                assert str(exc).startswith((f"the minimal non-faces of C({n},{d}) would need ",
                                            "the downward closure of the facet list would need "))
                continue
            G = FaceRingPresentation(n, F.generators)
            assert (F.m, F.generators, F.masks, F.histogram) == (
                G.m, G.generators, G.masks, G.histogram)
            assert hash(F) == hash(G) and F == G

    # Each takes `_independent`'s columns and its least vertex lo; the last
    # two change the half without vertex 1 (lo = 2) only.
    MUTATIONS = {
        "reversed": lambda columns, lo: [column[::-1] for column in columns],
        "swapped": lambda columns, lo: [*columns[1::-1], *columns[2:]],
        "below 1": lambda columns, lo: (
            [[v - 2 for v in columns[0]], *columns[1:]] if lo == 2 else columns),
        "beyond m": lambda columns, lo: (
            [*columns[:-1], [v + 40 for v in columns[-1]]] if lo == 2 else columns),
    }

    @pytest.mark.parametrize("n, d", [(8, 4), (9, 4), (11, 5), (12, 6), (13, 7)])
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_refuses_bad_columns_as_the_constructor(self, monkeypatch, n, d, mutation):
        independent, derive, seen = complexes._independent, FaceRingPresentation._derive, []

        def recording(ring, m, generators, runs, grouped):
            seen.append(generators)
            return derive(ring, m, generators, runs, grouped)

        monkeypatch.setattr(complexes, "_independent", lambda lo, hi, k: (
            self.MUTATIONS[mutation](independent(lo, hi, k), lo)))
        monkeypatch.setattr(FaceRingPresentation, "_derive", recording)
        with pytest.raises(ValueError) as column_path:
            complexes._cyclic_ring(n, d)
        with pytest.raises(ValueError) as constructor:
            FaceRingPresentation(n, seen[0])
        assert str(column_path.value) == str(constructor.value) == (
            presentation_refusal(n, seen[0]))

    def test_a_vertex_that_is_no_integer_raises_type_error(self):
        with pytest.raises(TypeError):
            FaceRingPresentation(3, ((1, 2.5),))

    def test_sparse_masks_are_shifted_in(self):
        # A table of 1 << v up to v = 10**6 would hold 5 * 10**11 bits, so
        # this generator's two bits are shifted in.
        start = time.perf_counter()
        F = FaceRingPresentation(10**6, ((1, 10**6),))
        assert time.perf_counter() - start < 0.05
        assert F.masks == (1 | 1 << (10**6 - 1),)

    def test_a_support_of_80000_vertices(self):
        # One lazy map per column, nested, overflowed the C stack here, so
        # the interpreter is a child process.
        code = ("from momentangle.complexes import FaceRingPresentation as F; "
                "k = 80000; assert F(k, (tuple(range(1, k + 1)),)).masks == ((1 << k) - 1,)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestIncomparabilityScaling:
    """The incomparability check compares only masks of different sizes, so
    a one-size generator list costs a duplicate count, not a pair scan, on
    the accepting and on the refusing path alike."""

    @staticmethod
    def timed_build(m, sups):
        start = time.perf_counter()
        F = FaceRingPresentation(m, tuple(sorted(sups)))
        assert time.perf_counter() - start < 1.0
        return F

    def test_one_size(self):
        # 2,925 generators: about 4.3 million pairs for a pairwise check.
        F = self.timed_build(27, combinations(range(1, 28), 3))
        assert len(F.generators) == comb(27, 3)

    def test_two_sizes(self):
        sups = [*combinations(range(1, 15), 3), *combinations(range(15, 28), 5)]
        F = self.timed_build(27, sups)
        assert F.histogram == ((6, comb(14, 3)), (10, comb(13, 5)))

    def test_violation_across_sizes_is_caught(self):
        # The only comparable pair is (1, 2, 3) < (1, 2, 3, 15), across sizes.
        sups = [
            *combinations(range(1, 15), 3),
            *combinations(range(15, 28), 5),
            (1, 2, 3, 15),
        ]
        with pytest.raises(
            ValueError, match=r"incomparable: \(1, 2, 3\) vs \(1, 2, 3, 15\)$"
        ):
            FaceRingPresentation(27, tuple(sorted(sups)))

    def test_trailing_duplicate_is_refused_quickly(self):
        sups = [*combinations(range(1, 28), 3), (25, 26, 27)]
        start = time.perf_counter()
        with pytest.raises(
            ValueError, match=r"incomparable: \(25, 26, 27\) vs \(25, 26, 27\)$"
        ):
            FaceRingPresentation(27, tuple(sups))
        assert time.perf_counter() - start < 1.0

    def test_odd_five_ring_builds_by_subset_lookups(self):
        # C(43, 5): 9,139 generators of size 3 and 703 of size 4, matched by
        # four subset lookups per size-4 generator, not 6.4 million mask tests.
        start = time.perf_counter()
        F = from_cyclic(CyclicParams(43, 5))
        assert time.perf_counter() - start < 0.25
        assert F.histogram == ((6, 9139), (8, 703))

    def test_large_polygon(self):
        # 244,300 generators on 700-bit masks; duplicates are read off sorted
        # order, so no mask is hashed.
        start = time.perf_counter()
        F = from_cyclic(CyclicParams(700, 2))
        assert time.perf_counter() - start < 2.0
        assert len(F.generators) == 700 * 697 // 2

    def test_one_size_nonface_list(self):
        # 3,000 listed 3-subsets of 1..29: about 4.5 million pairs for a
        # pairwise minimality filter.
        nonfaces = list(islice(combinations(range(1, 30), 3), 3000))
        start = time.perf_counter()
        F = from_nonfaces(29, nonfaces)
        assert time.perf_counter() - start < 1.0
        assert supports(F) == nonfaces


    def test_mixed_size_nonface_list_is_refused_at_once(self):
        # 780 2-subsets of 1..40 and 9,880 3-subsets of 41..80: 7,706,400
        # pairs of sizes 2 and 3 for the containment test.
        nonfaces = [*combinations(range(1, 41), 2), *combinations(range(41, 81), 3)]
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            from_nonfaces(80, nonfaces)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "the containment test of the non-face list would need 7706400 pairs, "
            "above the limit of 1048576"
        )

    def test_mixed_size_nonface_list_at_the_limit(self):
        # 1,024 listed pairs and 1,024 listed triples: exactly the limit of pairs.
        nonfaces = [*islice(combinations(range(1, 50), 2), 1024),
                    *islice(combinations(range(50, 70), 3), 1024)]
        F = from_nonfaces(69, nonfaces)
        assert F.histogram == ((4, 1024), (6, 1024))


class TestParseComplex:
    def test_nonfaces_text_matches_polygon(self):
        text = "vertices 5\nnonfaces\n" + "\n".join(
            " ".join(map(str, nf)) for nf in PENTAGON_MINIMAL_NONFACES
        )
        K = parse_complex(text)
        assert supports(K) == supports(from_cyclic(CyclicParams(5, 2)))

    def test_facets_text(self):
        text = """
        # a hollow triangle plus an isolated-ish vertex patch
        vertices 4
        facets
        1 2
        2 3
        1 3
        4
        """
        K = parse_complex(text)
        assert supports(K) == [(1, 2, 3), (1, 4), (2, 4), (3, 4)]

    @settings(max_examples=60, deadline=None)
    @given(random_facet_lists(), nonface_lists())
    def test_sections_match_factories(self, facet_case, nonface_case):
        def text(m, section, subsets):
            return f"vertices {m}\n{section}\n" + "".join(
                " ".join(map(str, s)) + "\n" for s in subsets
            )

        m, facets = facet_case
        assert parse_complex(text(m, "facets", facets)) == from_facets(m, facets)
        m, nonfaces = nonface_case
        assert parse_complex(text(m, "nonfaces", nonfaces)) == from_nonfaces(m, nonfaces)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_complex("simplices 4\nfacets\n1 2")

    def test_missing_section(self):
        with pytest.raises(ValueError):
            parse_complex("vertices 4")

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_complex("vertices 4\nfacets\n1 x")
