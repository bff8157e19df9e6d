import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.gale import (
    SUBSET_LIMIT,
    CyclicParams,
    as_subset,
    check_subset_count,
    enumerate_faces,
    f_vector,
    h_vector,
    is_face,
    is_q_neighborly,
)

from oracles import (
    Component,
    components,
    f_vector_binomial,
    is_face_by_components,
    is_q_neighborly_bruteforce,
)


def small_params():
    return st.tuples(st.integers(2, 6), st.integers(0, 5)).map(
        lambda t: CyclicParams(n=t[0] + 1 + t[1], d=t[0])
    )


class TestParams:
    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            CyclicParams(5, 1)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            CyclicParams(4, 4)


class TestComponents:
    """The run splitter in tests/oracles.py, the reference for Gale's criterion."""

    def test_mixed_runs(self):
        got = components({1, 3, 4, 5}, 8)
        assert got == [
            Component(run=(1,), proper=False, odd=True),
            Component(run=(3, 4, 5), proper=True, odd=True),
        ]

    def test_empty(self):
        assert components(set(), 8) == []

    def test_singletons(self):
        got = components({2, 6, 8}, 8)
        assert [c.run for c in got] == [(2,), (6,), (8,)]
        assert [c.proper for c in got] == [True, True, False]
        assert all(c.odd for c in got)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            components({0, 3}, 8)
        with pytest.raises(ValueError):
            components({9}, 8)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            as_subset([1, 1, 3], 8)

    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))
    ))
    def test_runs_partition_subset(self, case):
        n, members = case
        comps = components(members, n)
        assert all(c.run for c in comps)
        rebuilt = tuple(v for c in comps for v in c.run)
        assert rebuilt == as_subset(members, n)
        for c in comps:
            lo, hi = c.run[0], c.run[-1]
            assert c.run == tuple(range(lo, hi + 1))
            assert lo == 1 or lo - 1 not in members
            assert hi == n or hi + 1 not in members
            assert c.proper == (lo != 1 and hi != n)
            assert c.odd == (len(c.run) % 2 == 1)


class TestIsFace:
    def test_known_nonface(self):
        assert not is_face({1, 3, 5}, CyclicParams(8, 4))

    def test_boundary_triple_is_face(self):
        assert is_face({1, 3, 8}, CyclicParams(8, 4))

    def test_consecutive_triple_is_face(self):
        assert is_face({1, 2, 3}, CyclicParams(8, 4))

    def test_empty_set_is_face(self):
        assert is_face(set(), CyclicParams(8, 4))

    def test_too_large_subset(self):
        assert not is_face({1, 2, 3, 4, 5}, CyclicParams(8, 4))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_component_oracle(self, n):
        subsets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        for d in range(2, n):
            p = CyclicParams(n, d)
            for s in subsets:
                assert is_face(s, p) == is_face_by_components(s, n, d), (s, n, d)


class TestEnumerateFaces:
    def test_singletons(self):
        faces = enumerate_faces(CyclicParams(8, 4), 1)
        assert faces == [(i,) for i in range(1, 9)]

    def test_pair_count(self):
        faces = enumerate_faces(CyclicParams(8, 4), 2)
        assert len(faces) == 8 + 28

    def test_triple_count(self):
        faces = enumerate_faces(CyclicParams(8, 4), 3)
        assert len(faces) == 8 + 28 + 40

    def test_matches_direct_filter(self):
        p = CyclicParams(7, 3)
        direct = [
            c
            for k in range(1, 4)
            for c in combinations(range(1, 8), k)
            if is_face(c, p)
        ]
        assert enumerate_faces(p, 3) == direct

    def test_sorted_by_cardinality_then_lex(self):
        faces = enumerate_faces(CyclicParams(6, 4), 3)
        assert faces == sorted(faces, key=lambda f: (len(f), f))

    def test_max_card_bounds(self):
        with pytest.raises(ValueError):
            enumerate_faces(CyclicParams(8, 4), 5)
        with pytest.raises(ValueError):
            enumerate_faces(CyclicParams(8, 4), -1)
        assert enumerate_faces(CyclicParams(8, 4), 0) == []

    def test_refuses_oversized_enumeration(self):
        with pytest.raises(ValueError, match=f"above the limit of {SUBSET_LIMIT}"):
            enumerate_faces(CyclicParams(60, 30), 30)


def test_subset_limit_is_inclusive():
    check_subset_count(SUBSET_LIMIT, "a scan at the limit", "subsets")
    with pytest.raises(ValueError, match=f"{SUBSET_LIMIT + 1} subsets"):
        check_subset_count(SUBSET_LIMIT + 1, "a scan past the limit", "subsets")


class TestHVector:
    def test_c84(self):
        assert h_vector(CyclicParams(8, 4)) == (1, 4, 10, 4, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 200))
    def test_sums_to_the_facet_count(self, d, extra):
        h = h_vector(CyclicParams(d + extra, d))
        assert h == h[::-1] and h[0] == 1
        assert sum(h) == f_vector_binomial(d + extra, d)[-1]


class TestFVector:
    def test_c84(self):
        assert f_vector(CyclicParams(8, 4)) == (8, 28, 40, 20)

    def test_c84_euler(self):
        f = f_vector(CyclicParams(8, 4))
        assert f[0] - f[1] + f[2] - f[3] == 0

    def test_simplex(self):
        assert f_vector(CyclicParams(5, 4)) == (5, 10, 10, 5)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_matches_enumeration(self, n):
        for d in range(2, n):
            p = CyclicParams(n, d)
            counts = [0] * d
            for face in enumerate_faces(p, d):
                counts[len(face) - 1] += 1
            assert f_vector(p) == tuple(counts), (n, d)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 200))
    def test_matches_binomial_oracle(self, d, extra):
        p = CyclicParams(d + extra, d)
        assert f_vector(p) == f_vector_binomial(p.n, p.d)

    def test_largest_admitted_dimension_is_fast(self):
        # d = 1446 is the largest dimension whose (d+1)(d+2)/2 Horner
        # additions stay within SUBSET_LIMIT = 2^20 (1447 * 1448 / 2 = 1047628).
        start = time.perf_counter()
        f = f_vector(CyclicParams(1447, 1446))
        assert time.perf_counter() - start < 1.0
        assert f[:2] == (1447, 1447 * 1446 // 2)

    def test_refuses_oversized_dimension(self):
        # d = 1447 is the first dimension with (d+1)(d+2)/2 above SUBSET_LIMIT.
        with pytest.raises(
            ValueError,
            match=r"C\(1448,1447\) would need 1049076 additions, above the limit",
        ):
            f_vector(CyclicParams(1448, 1447))


class TestNeighborliness:
    def test_c84_two_neighborly(self):
        assert is_q_neighborly(CyclicParams(8, 4), 2)

    def test_c84_not_three_neighborly(self):
        assert not is_q_neighborly(CyclicParams(8, 4), 3)

    def test_square_is_one_neighborly(self):
        assert is_q_neighborly(CyclicParams(5, 2), 1)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            is_q_neighborly(CyclicParams(8, 4), 0)

    @settings(max_examples=40, deadline=None)
    @given(small_params())
    def test_half_dim_neighborly(self, p):
        assert is_q_neighborly(p, p.d // 2)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_definition(self, n):
        for d in range(2, n):
            for q in range(1, n + 2):
                want = is_q_neighborly_bruteforce(n, d, q)
                assert is_q_neighborly(CyclicParams(n, d), q) == want, (n, d, q)

    def test_large_case_is_fast(self):
        # C(60, 30) has 5.3e13 subsets of size 15; all of them are faces.
        start = time.perf_counter()
        assert is_q_neighborly(CyclicParams(60, 30), 15)
        assert not is_q_neighborly(CyclicParams(60, 30), 16)
        assert time.perf_counter() - start < 1.0

    def test_oversized_dimension_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="f-vector of C\\(20000,10000\\)"):
            is_q_neighborly(CyclicParams(20000, 10000), 2)
        assert time.perf_counter() - start < 1.0


class TestDownwardClosure:
    @pytest.mark.parametrize("n,d", [(5, 2), (5, 4), (6, 4), (7, 3), (8, 4), (10, 4)])
    def test_every_subset_of_a_face_is_a_face(self, n, d):
        p = CyclicParams(n, d)
        for face in enumerate_faces(p, d):
            for k in range(1, len(face)):
                for sub in combinations(face, k):
                    assert is_face(sub, p), f"{sub} should be a face under {face}"

    def test_simplex_boundary_has_all_proper_subsets(self):
        p = CyclicParams(5, 4)
        for k in range(1, 5):
            for c in combinations(range(1, 6), k):
                assert is_face(c, p)
