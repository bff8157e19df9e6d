import time
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.complexes import (
    FaceRingPresentation,
    Monomial,
    from_cyclic,
    from_facets,
    from_nonfaces,
    from_polygon,
    parse_complex,
)
from momentangle.gale import CyclicParams, is_face as cyclic_is_face

from oracles import (
    CYCLIC_8_4_MINIMAL_NONFACES,
    PENTAGON_MINIMAL_NONFACES,
    first_comparable_pair,
    minimal_elements_bruteforce,
    minimal_nonfaces_bruteforce,
)


def supports(F):
    """The generator supports of F: its minimal non-faces, sorted."""
    return [g.support for g in F.generators]


def all_subsets(m, max_card=None):
    top = m if max_card is None else max_card
    for k in range(top + 1):
        yield from combinations(range(1, m + 1), k)


def random_facet_lists():
    """(m, facets) for small ghost-free complexes; singletons patch uncovered
    vertices, so non-maximal entries are common, and a drawn facet may repeat."""

    def build(args):
        m, raw = args
        facets = [tuple(sorted(f)) for f in raw if f] + [
            (i,) for i in range(1, m + 1)
        ]
        facets = [tuple(v for v in f if v <= m) for f in facets]
        return m, [f for f in facets if f]

    return st.tuples(
        st.integers(3, 7),
        st.lists(st.sets(st.integers(1, 7), min_size=1, max_size=4), max_size=6),
    ).map(build)


def generator_lists():
    """(m, supports): supports of mixed sizes on 1..9, so duplicates, proper
    containments across sizes and variables beyond v_m all occur; sorted
    unless the drawn flag says otherwise."""

    def build(args):
        m, raw, keep_order = args
        supports = [tuple(sorted(s)) for s in raw]
        return m, supports if keep_order else sorted(supports)

    return st.tuples(
        st.integers(1, 9),
        st.lists(st.sets(st.integers(1, 9), min_size=1, max_size=5), max_size=10),
        st.booleans(),
    ).map(build)


def nonface_lists():
    """(m, non-faces) with at least two vertices per entry; entries come in
    any order, unsorted, and may repeat or contain one another."""

    def draw(m):
        entry = st.lists(st.integers(1, m), min_size=2, max_size=m, unique=True)
        return st.tuples(st.just(m), st.lists(entry, max_size=8))

    return st.integers(2, 7).flatmap(draw)


class TestMonomial:
    def test_degree_doubles_support(self):
        assert Monomial((1, 3, 5)).degree == 6

    def test_str(self):
        assert str(Monomial((2, 4, 8))) == "v2*v4*v8"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Monomial(())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Monomial((3, 1))


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
        with pytest.raises(ValueError, match=f"{comb(24, 12)} subsets"):
            from_cyclic(CyclicParams(24, 12))

    def test_nonfaces_reject_singletons(self):
        with pytest.raises(ValueError):
            from_nonfaces(3, [(2,)])

    def test_nonfaces_minimalized(self):
        K = from_nonfaces(4, [(1, 2), (1, 2, 3), (3, 4)])
        assert supports(K) == [(1, 2), (3, 4)]

    def test_is_face_validates_range(self):
        K = from_polygon(5)
        with pytest.raises(ValueError):
            K.is_face({0, 2})


class TestFromCyclic:
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
        assert supports(from_polygon(5)) == PENTAGON_MINIMAL_NONFACES

    def test_square(self):
        assert supports(from_polygon(4)) == [(1, 3), (2, 4)]

    def test_hexagon_count(self):
        assert len(supports(from_polygon(6))) == 9

    def test_rejects_triangle(self):
        with pytest.raises(ValueError):
            from_polygon(3)

    def test_faces_are_cycle_edges(self):
        K = from_polygon(6)
        for i, j in combinations(range(1, 7), 2):
            adjacent = (j - i) in (1, 5)
            assert K.is_face({i, j}) == adjacent


class TestMinimalNonfaces:
    def test_c84_matches_reference(self):
        got = supports(from_cyclic(CyclicParams(8, 4)))
        assert got == CYCLIC_8_4_MINIMAL_NONFACES

    def test_simplex_boundary_single_nonface(self):
        got = supports(from_cyclic(CyclicParams(5, 4)))
        assert got == [(1, 2, 3, 4, 5)]

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
        p = CyclicParams(n, d)
        facets = [c for c in combinations(range(1, n + 1), d) if cyclic_is_face(c, p)]
        assert supports(from_cyclic(p)) == minimal_nonfaces_bruteforce(n, facets)

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
        assert c84_ring.degree_histogram() == {6: 16}

    def test_pentagon(self, pentagon_ring):
        assert pentagon_ring.m == 5
        assert len(pentagon_ring.generators) == 5
        assert pentagon_ring.degree_histogram() == {4: 5}

    def test_full_simplex_is_trivial(self):
        F = from_facets(4, [(1, 2, 3, 4)])
        assert F.is_trivial
        assert F.generators == ()

    def test_presentation_rejects_comparable_generators(self):
        with pytest.raises(ValueError):
            FaceRingPresentation(4, (Monomial((1, 2)), Monomial((1, 2, 3))))

    def test_presentation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FaceRingPresentation(4, (Monomial((2, 3)), Monomial((1, 2))))

    def test_presentation_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"incomparable: \(1, 2\) vs \(1, 2\)$"):
            FaceRingPresentation(4, (Monomial((1, 2)), Monomial((1, 2))))

    def test_masks_are_derived_not_compared(self, c84_ring):
        assert c84_ring.masks[0] == 0b10101  # v1*v3*v5
        assert "masks" not in repr(c84_ring)
        twin = FaceRingPresentation(8, c84_ring.generators)
        assert twin == c84_ring and hash(twin) == hash(c84_ring)

    def test_presentation_checks_every_generator_range(self):
        # The lexicographically last generator, (2, 3), lies inside 1..5.
        with pytest.raises(ValueError, match="beyond v_m$"):
            FaceRingPresentation(5, (Monomial((1, 9)), Monomial((2, 3))))

    @settings(max_examples=300, deadline=None)
    @given(generator_lists())
    def test_constructor_matches_pairwise_oracle(self, args):
        m, sups = args
        if sups != sorted(sups):
            want = "generators must be lexicographically sorted"
        elif (pair := first_comparable_pair(sups)) is not None:
            want = f"generators must be incomparable: {pair[0]} vs {pair[1]}"
        elif sups and max(s[-1] for s in sups) > m:
            want = "generator mentions a variable beyond v_m"
        else:
            want = None
        gens = tuple(Monomial(s) for s in sups)
        if want is None:
            F = FaceRingPresentation(m, gens)
            assert F.masks == tuple(sum(1 << (v - 1) for v in s) for s in sups)
        else:
            with pytest.raises(ValueError) as info:
                FaceRingPresentation(m, gens)
            assert str(info.value) == want


class TestIncomparabilityScaling:
    """The incomparability check compares only masks of different sizes, so
    a one-size generator list costs a duplicate count, not a pair scan, on
    the accepting and on the refusing path alike."""

    @staticmethod
    def timed_build(m, sups):
        gens = tuple(Monomial(s) for s in sorted(sups))
        start = time.perf_counter()
        F = FaceRingPresentation(m, gens)
        assert time.perf_counter() - start < 1.0
        return F

    def test_one_size(self):
        # 2,925 generators: about 4.3 million pairs for a pairwise check.
        F = self.timed_build(27, combinations(range(1, 28), 3))
        assert len(F.generators) == comb(27, 3)

    def test_two_sizes(self):
        sups = [*combinations(range(1, 15), 3), *combinations(range(15, 28), 5)]
        F = self.timed_build(27, sups)
        assert F.degree_histogram() == {6: comb(14, 3), 10: comb(13, 5)}

    def test_violation_across_sizes_is_caught(self):
        # The only comparable pair is (1, 2, 3) < (1, 2, 3, 15), across sizes.
        sups = [
            *combinations(range(1, 15), 3),
            *combinations(range(15, 28), 5),
            (1, 2, 3, 15),
        ]
        gens = tuple(Monomial(s) for s in sorted(sups))
        with pytest.raises(
            ValueError, match=r"incomparable: \(1, 2, 3\) vs \(1, 2, 3, 15\)$"
        ):
            FaceRingPresentation(27, gens)

    def test_trailing_duplicate_is_refused_quickly(self):
        sups = [*combinations(range(1, 28), 3), (25, 26, 27)]
        gens = tuple(Monomial(s) for s in sups)
        start = time.perf_counter()
        with pytest.raises(
            ValueError, match=r"incomparable: \(25, 26, 27\) vs \(25, 26, 27\)$"
        ):
            FaceRingPresentation(27, gens)
        assert time.perf_counter() - start < 1.0

    def test_one_size_nonface_list(self):
        # 3,000 listed 3-subsets of 1..29: about 4.5 million pairs for a
        # pairwise minimality filter.
        nonfaces = list(islice(combinations(range(1, 30), 3), 3000))
        start = time.perf_counter()
        F = from_nonfaces(29, nonfaces)
        assert time.perf_counter() - start < 1.0
        assert supports(F) == nonfaces


class TestParseComplex:
    def test_nonfaces_text_matches_polygon(self):
        text = "vertices 5\nnonfaces\n" + "\n".join(
            " ".join(map(str, nf)) for nf in PENTAGON_MINIMAL_NONFACES
        )
        K = parse_complex(text)
        assert supports(K) == supports(from_polygon(5))

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
