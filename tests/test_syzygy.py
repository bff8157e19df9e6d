import json
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.cli import _witness_block, main
from momentangle.complexes import FaceRingPresentation, from_cyclic
from momentangle.gale import CyclicParams
from momentangle.syzygy import min_relation_degree

from oracles import (
    lcm_quotients,
    min_relation_degree_bruteforce,
    min_relation_pair_by_sets,
    relation_holds,
)


def rmin_block(F):
    """The `rmin` block a report gives for F."""
    degree, pair = min_relation_degree(F)
    return {"degree": degree, "witness": _witness_block(F, degree, pair)}


def antichain(raw):
    """The distinct sampled supports, as sorted tuples, that contain no other."""
    supports = sorted({tuple(sorted(s)) for s in raw})
    return [s for s in supports if not any(s != t and set(t) <= set(s) for t in supports)]


def presentations():
    """Random small presentations: sampled supports reduced to an antichain."""

    def build(m, raw):
        chain = antichain(raw)
        if len(chain) < 2:
            chain = [(1, 2), (1, 3)]
        return FaceRingPresentation(m, tuple(chain))

    return st.integers(4, 7).flatmap(
        lambda m: st.lists(
            st.sets(st.integers(1, m), min_size=2, max_size=4),
            min_size=2,
            max_size=8,
        ).map(lambda raw: build(m, raw))
    )


def single_smallest_presentations():
    """Random small presentations whose smallest size has one generator: one
    edge beside sampled supports of 3 to 5 vertices, reduced to an antichain,
    so the first bound, one vertex above the edge, has no pair to scan."""

    def build(m, edge, raw):
        chain = antichain(s for s in raw if not edge <= s)
        if not chain:
            chain = [tuple(sorted(set(range(1, m + 1)) - edge))[:3]]
        return FaceRingPresentation(m, tuple(sorted([tuple(sorted(edge)), *chain])))

    return st.integers(5, 9).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(st.integers(1, m), min_size=2, max_size=2),
            st.lists(
                st.sets(st.integers(1, m), min_size=3, max_size=5),
                min_size=1,
                max_size=10,
            ),
        ).map(lambda args: build(*args))
    )


def disjoint_edges_presentations():
    """Random small presentations of two or more pairwise disjoint edges
    beside sampled supports of 3 to 5 vertices, reduced to an antichain: the
    edges' pairs miss the first bound, one vertex above an edge, so the
    minimum is met at a later bound, where the edges' pairs and the larger
    generators' pairs compete for the first index pair."""

    def build(m, edge_count, raw):
        edges = [(2 * k + 1, 2 * k + 2) for k in range(edge_count)]
        chain = antichain(s for s in raw if not any(set(e) <= s for e in edges))
        return FaceRingPresentation(m, tuple(sorted([*edges, *chain])))

    return st.integers(6, 10).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(2, m // 2),
            st.lists(
                st.sets(st.integers(1, m), min_size=3, max_size=5),
                max_size=10,
            ),
        ).map(lambda args: build(*args))
    )


class TestLcm:
    """The witness multipliers are the lcm quotients of its generators."""

    def test_overlapping_triples(self):
        w = rmin_block(FaceRingPresentation(6, ((1, 3, 5), (1, 3, 6))))["witness"]
        assert (w["multiplier_i"], w["multiplier_j"]) == ([6], [5])
        assert (w["multiplier_i"], w["multiplier_j"]) == lcm_quotients((1, 3, 5), (1, 3, 6))

    def test_disjoint_pairs(self):
        w = rmin_block(FaceRingPresentation(4, ((1, 3), (2, 4))))["witness"]
        assert (w["multiplier_i"], w["multiplier_j"]) == ([2, 4], [1, 3])
        assert (w["multiplier_i"], w["multiplier_j"]) == lcm_quotients((1, 3), (2, 4))


class TestMinRelationDegree:
    def test_c84(self, c84_ring):
        degree, (i, j) = min_relation_degree(c84_ring)
        assert (degree, i, j) == (8, 0, 1)
        assert c84_ring.generators[i] == (1, 3, 5)
        assert c84_ring.generators[j] == (1, 3, 6)
        w = rmin_block(c84_ring)["witness"]
        assert (w["multiplier_i"], w["multiplier_j"]) == ([6], [5])

    def test_pentagon(self, pentagon_ring):
        # The showcased relation between the disjoint generators v1*v3 and
        # v2*v4 has degree 8, but overlapping pairs do better: v1*v3 and
        # v1*v4 meet at v1*v3*v4, giving degree 6.  Exhaustive search below
        # (oracle tests) confirms nothing smaller exists.
        degree, (i, j) = min_relation_degree(pentagon_ring)
        assert degree == 6
        assert pentagon_ring.generators[i] == (1, 3)
        assert pentagon_ring.generators[j] == (1, 4)

    def test_large_polygon_stops_at_the_lower_bound(self):
        # 7,020 generators of size 2: the first pair, v1*v3 and v1*v4, already
        # reaches the lower bound 2 * (2 + 1), so the scan ends there.
        F = from_cyclic(CyclicParams(120, 2))
        start = time.perf_counter()
        assert min_relation_degree(F) == (6, (0, 1))
        assert time.perf_counter() - start < 0.1

    def test_odd_cyclic_stops_among_the_smallest_generators(self):
        # C(43,5): the 703 generators of size 4 come first, so a scan in index
        # order meets about 6.9 million pairs before the first pair of two
        # size-3 generators, which reaches the lower bound 2 * (3 + 1).
        F = from_cyclic(CyclicParams(43, 5))
        start = time.perf_counter()
        assert min_relation_degree(F) == (8, (703, 704))
        assert time.perf_counter() - start < 0.1

    def test_one_edge_stops_among_the_next_size(self):
        # One edge beside the 4,060 triples on vertices 3..32: the bound 3
        # has only the edge below it, so no pair to scan, and at the bound 4
        # the first two triples already reach it.
        edge_and_triples = [(1, 2), *combinations(range(3, 33), 3)]
        F = FaceRingPresentation(32, tuple(edge_and_triples))
        start = time.perf_counter()
        assert min_relation_degree(F) == (8, (1, 2))
        assert time.perf_counter() - start < 0.1

    def test_two_edges_stop_at_the_next_bound(self):
        # The edges 1 2 and 3 4 beside the first 4,000 triples of 5..39: the
        # edges' union has 4 vertices, so the bound 3 scans their one pair in
        # vain, and the bound 4 is met by that same first pair, before any of
        # the 8 million pairs that hold a triple.
        triples = list(combinations(range(5, 40), 3))[:4000]
        F = FaceRingPresentation(39, ((1, 2), (3, 4), *triples))
        start = time.perf_counter()
        assert min_relation_degree(F) == (8, (0, 1))
        assert time.perf_counter() - start < 0.1

    @staticmethod
    def lines(p):
        """The p * p lines y = ax + b (mod p) on the columns x = 0..4 of a
        5 x p grid, vertex x * p + y + 1: 5-sets that pairwise share at most
        one vertex, so no pair meets the bounds 6, 7 and 8."""
        return FaceRingPresentation(5 * p, tuple(sorted(
            tuple(sorted(x * p + (a * x + b) % p + 1 for x in range(5)))
            for a in range(p) for b in range(p))))

    def test_lines_mod_31_scan_every_pair_at_each_bound(self):
        # 961 lines: 461,280 pairs per bound, under the subset limit.
        assert min_relation_degree(self.lines(31)) == (18, (0, 1))

    def test_lines_mod_61_are_refused_at_the_first_bound(self):
        # 3,721 lines: 6,921,060 pairs, of which the bound 6 reads the
        # first 2**20 in vain before it is refused.
        F = self.lines(61)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            min_relation_degree(F)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "the relation scan at 6 vertices would need 6921060 pairs, above the limit of 1048576"
        )

    def test_single_generator_errors(self):
        F = FaceRingPresentation(3, ((1, 2),))
        with pytest.raises(ValueError, match="at least two"):
            min_relation_degree(F)

    def test_trivial_presentation_errors(self):
        with pytest.raises(ValueError):
            min_relation_degree(FaceRingPresentation(3))

    def test_witness_is_a_valid_relation(self, c84_ring, pentagon_ring):
        for F in (c84_ring, pentagon_ring, from_cyclic(CyclicParams(6, 2))):
            assert relation_holds(rmin_block(F))

    def test_degree_is_even(self, c84_ring):
        degree, _ = min_relation_degree(c84_ring)
        assert degree % 2 == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: from_cyclic(CyclicParams(4, 2)),
            lambda: from_cyclic(CyclicParams(5, 2)),
            lambda: from_cyclic(CyclicParams(6, 2)),
            lambda: from_cyclic(CyclicParams(6, 4)),
            lambda: from_cyclic(CyclicParams(7, 4)),
        ],
    )
    def test_small_rings(self, make):
        F = make()
        degree, _ = min_relation_degree(F)
        assert degree == min_relation_degree_bruteforce(F)

    def test_c84_with_tight_bound(self, c84_ring):
        # Any relation degree is at least 2*(max support + 1) = 8 here, so a
        # multiplier bound of 2 already decides the minimum.
        degree, _ = min_relation_degree(c84_ring)
        assert degree == min_relation_degree_bruteforce(c84_ring, max_multiplier_size=2)

    @settings(max_examples=40, deadline=None)
    @given(presentations())
    def test_random_presentations(self, F):
        rmin = rmin_block(F)
        assert relation_holds(rmin)
        assert rmin["degree"] == min_relation_degree_bruteforce(F, max_multiplier_size=4)


class TestPairScanOracle:
    """The bitmask pair scan against the set-union scan: same degree and the
    same witness pair, which pins the tie-break as well as the minimum.  The
    report's witness block for that pair multiplies out to one monomial of
    that degree, with the set differences as its multipliers."""

    @staticmethod
    def check(F, rmin):
        w = rmin["witness"]
        assert (rmin["degree"], w["i"], w["j"]) == min_relation_pair_by_sets(F)
        assert relation_holds(rmin)
        assert w["generator_i"] == list(F.generators[w["i"]])
        assert w["generator_j"] == list(F.generators[w["j"]])
        assert (w["multiplier_i"], w["multiplier_j"]) == lcm_quotients(
            w["generator_i"], w["generator_j"]
        )

    @staticmethod
    def report(capsys, *source):
        """The `rmin` block of `syzmin SOURCE --json`."""
        assert main(["syzmin", *source, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["rmin"]

    @settings(max_examples=200, deadline=None)
    @given(presentations())
    def test_random_presentations(self, F):
        self.check(F, rmin_block(F))

    @settings(max_examples=200, deadline=None)
    @given(single_smallest_presentations())
    def test_single_smallest_generator(self, F):
        sizes = sorted(map(len, F.generators))
        assert sizes[0] < sizes[1]
        self.check(F, rmin_block(F))

    @settings(max_examples=200, deadline=None)
    @given(disjoint_edges_presentations())
    def test_disjoint_edges(self, F):
        assert {(1, 2), (3, 4)} <= set(F.generators)
        self.check(F, rmin_block(F))

    # d = n - 1 is a simplex boundary: one generator, so no pair to scan.
    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 15) for d in range(2, n - 1)]
    )
    def test_cyclic(self, capsys, n, d):
        F = from_cyclic(CyclicParams(n, d))
        assert len(F.generators) >= 2
        self.check(F, self.report(capsys, "cyclic", str(n), str(d)))

    @pytest.mark.parametrize("m", range(4, 13))
    def test_polygons(self, capsys, m):
        self.check(from_cyclic(CyclicParams(m, 2)), self.report(capsys, "polygon", str(m)))

    # No two smallest generators reach the first bound, s + 1 vertices, so
    # the minimum is met at a later bound; in the last three the first
    # minimal pair has two sizes.
    @pytest.mark.parametrize("m, sups", [
        (4, ((1, 2), (3, 4))),
        (5, ((1, 2), (1, 3, 5), (3, 4))),
        (6, ((1, 2, 3), (1, 4), (5, 6))),
        (7, ((1, 2, 3), (1, 4, 5, 6), (2, 7))),
    ])
    def test_smallest_pairs_short_of_the_bound(self, m, sups):
        F = FaceRingPresentation(m, sups)
        self.check(F, rmin_block(F))


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(presentations(), st.randoms(use_true_random=False))
    def test_degree_survives_relabel(self, F, rng):
        degree, _ = min_relation_degree(F)
        perm = list(range(1, F.m + 1))
        rng.shuffle(perm)
        relabeled = sorted(tuple(sorted(perm[v - 1] for v in g)) for g in F.generators)
        G = FaceRingPresentation(F.m, tuple(relabeled))
        assert min_relation_degree(G)[0] == degree

    @settings(max_examples=40, deadline=None)
    @given(presentations())
    def test_degree_band(self, F):
        degree, _ = min_relation_degree(F)
        pair_degrees = [
            2 * len(set(a) | set(b))
            for a, b in combinations(F.generators, 2)
        ]
        assert degree == min(pair_degrees)
        for (a, b), d in zip(combinations(F.generators, 2), pair_degrees):
            lo = 2 * (max(len(a), len(b)) + 1)
            hi = 2 * (len(a) + len(b))
            assert lo <= d <= hi
