from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.complexes import (
    FaceRingPresentation,
    Monomial,
    from_cyclic,
    from_polygon,
)
from momentangle.gale import CyclicParams
from momentangle.syzygy import lcm_support, min_relation_degree, relation_holds

from oracles import min_relation_degree_bruteforce, min_relation_pair_by_sets


def presentations():
    """Random small presentations: sampled supports reduced to an antichain."""

    def build(m, raw):
        supports = sorted({tuple(sorted(s)) for s in raw})
        antichain = [
            s
            for s in supports
            if not any(s != t and set(t).issubset(s) for t in supports)
        ]
        if len(antichain) < 2:
            antichain = [(1, 2), (1, 3)]
        return FaceRingPresentation(
            m, tuple(Monomial(s) for s in sorted(antichain))
        )

    return st.integers(4, 7).flatmap(
        lambda m: st.lists(
            st.sets(st.integers(1, m), min_size=2, max_size=4),
            min_size=2,
            max_size=8,
        ).map(lambda raw: build(m, raw))
    )


class TestLcm:
    def test_overlapping_triples(self):
        got = lcm_support(Monomial((1, 3, 5)), Monomial((1, 3, 6)))
        assert got.support == (1, 3, 5, 6)

    def test_disjoint_pairs(self):
        got = lcm_support(Monomial((1, 3)), Monomial((2, 4)))
        assert got.support == (1, 2, 3, 4)

    def test_idempotent(self):
        a = Monomial((2, 5, 7))
        assert lcm_support(a, a) == a


class TestMinRelationDegree:
    def test_c84(self, c84_ring):
        degree, witness = min_relation_degree(c84_ring)
        assert degree == 8
        assert (witness.i, witness.j) == (0, 1)
        assert c84_ring.generators[witness.i].support == (1, 3, 5)
        assert c84_ring.generators[witness.j].support == (1, 3, 6)
        assert witness.multiplier_i.support == (6,)
        assert witness.multiplier_j.support == (5,)

    def test_pentagon(self, pentagon_ring):
        # The showcased relation between the disjoint generators v1*v3 and
        # v2*v4 has degree 8, but overlapping pairs do better: v1*v3 and
        # v1*v4 meet at v1*v3*v4, giving degree 6.  Exhaustive search below
        # (oracle tests) confirms nothing smaller exists.
        degree, witness = min_relation_degree(pentagon_ring)
        assert degree == 6
        assert pentagon_ring.generators[witness.i].support == (1, 3)
        assert pentagon_ring.generators[witness.j].support == (1, 4)

    def test_single_generator_errors(self):
        F = FaceRingPresentation(3, (Monomial((1, 2)),))
        with pytest.raises(ValueError, match="at least two"):
            min_relation_degree(F)

    def test_trivial_presentation_errors(self):
        with pytest.raises(ValueError):
            min_relation_degree(FaceRingPresentation(3))

    def test_witness_is_a_valid_relation(self, c84_ring, pentagon_ring):
        for F in (c84_ring, pentagon_ring, from_polygon(6)):
            _, witness = min_relation_degree(F)
            assert relation_holds(F, witness)

    def test_degree_is_even(self, c84_ring):
        degree, _ = min_relation_degree(c84_ring)
        assert degree % 2 == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: from_polygon(4),
            lambda: from_polygon(5),
            lambda: from_polygon(6),
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
        degree, witness = min_relation_degree(F)
        assert relation_holds(F, witness)
        assert degree == min_relation_degree_bruteforce(F, max_multiplier_size=4)


class TestPairScanOracle:
    """The bitmask pair scan against the set-union scan: same degree and the
    same witness pair, which pins the tie-break as well as the minimum."""

    @staticmethod
    def scan(F):
        degree, witness = min_relation_degree(F)
        return degree, witness.i, witness.j

    @settings(max_examples=200, deadline=None)
    @given(presentations())
    def test_random_presentations(self, F):
        assert self.scan(F) == min_relation_pair_by_sets(F)

    # d = n - 1 is a simplex boundary: one generator, so no pair to scan.
    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(3, 12) for d in range(2, n - 1)]
    )
    def test_cyclic(self, n, d):
        F = from_cyclic(CyclicParams(n, d))
        assert self.scan(F) == min_relation_pair_by_sets(F)

    @pytest.mark.parametrize("m", range(4, 13))
    def test_polygons(self, m):
        F = from_polygon(m)
        assert self.scan(F) == min_relation_pair_by_sets(F)


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(presentations(), st.randoms(use_true_random=False))
    def test_degree_survives_relabel(self, F, rng):
        degree, _ = min_relation_degree(F)
        perm = list(range(1, F.m + 1))
        rng.shuffle(perm)
        relabeled = sorted(
            tuple(sorted(perm[v - 1] for v in g.support)) for g in F.generators
        )
        G = FaceRingPresentation(F.m, tuple(Monomial(s) for s in relabeled))
        assert min_relation_degree(G)[0] == degree

    @settings(max_examples=40, deadline=None)
    @given(presentations())
    def test_degree_band(self, F):
        degree, _ = min_relation_degree(F)
        pair_degrees = [
            2 * len(set(a.support) | set(b.support))
            for a, b in combinations(F.generators, 2)
        ]
        assert degree == min(pair_degrees)
        for (a, b), d in zip(combinations(F.generators, 2), pair_degrees):
            lo = 2 * (max(len(a.support), len(b.support)) + 1)
            hi = 2 * (len(a.support) + len(b.support))
            assert lo <= d <= hi
