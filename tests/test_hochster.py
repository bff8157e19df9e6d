import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import cli, complexes, gale, hochster
from momentangle.cli import main
from momentangle.complexes import FaceRingPresentation, from_cyclic, from_facets, from_nonfaces
from momentangle.gale import CyclicParams
from momentangle.syzygy import min_relation_degree

from oracles import (
    CYCLIC_8_4_MINIMAL_NONFACES,
    K12_FACETS,
    PENTAGON_MINIMAL_NONFACES,
    RP2_FACETS,
    cyclic_ranks_by_f_vector,
    hochster_table_naive,
    zk_ranks_cellular,
    zk_ranks_naive,
)
from test_syzygy import presentations

OCTAHEDRON = from_nonfaces(6, [(1, 2), (3, 4), (5, 6)])


def complexes_on(max_m: int):
    """Random complexes on 2..max_m vertices, by a list of non-faces of 2 to
    4 vertices (reduced to the minimal ones; none may be empty)."""
    return st.integers(2, max_m).flatmap(
        lambda m: st.lists(
            st.sets(st.integers(1, m), min_size=2, max_size=min(4, m)),
            max_size=8,
        ).map(lambda raw: from_nonfaces(m, raw))
    )


def cyclic(n, d):
    return from_cyclic(CyclicParams(n, d))


class TestKnownAnswers:
    def test_c84(self):
        want = {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}
        F = cyclic(8, 4)
        assert hochster.cyclic_ranks(CyclicParams(8, 4)) == want
        for p in hochster.FIELDS:
            assert hochster.zk_ranks(F, p) == want
            assert zk_ranks_naive(8, CYCLIC_8_4_MINIMAL_NONFACES, p) == want

    def test_octahedron_is_three_copies_of_s3(self):
        for p in hochster.FIELDS:
            assert hochster.zk_ranks(OCTAHEDRON, p) == {0: 1, 3: 3, 6: 3, 9: 1}

    def test_pentagon_is_mcgavran(self):
        # McGavran: Z_K of the pentagon is the connected sum 5*S3xS4.
        assert hochster.cyclic_ranks(CyclicParams(5, 2)) == {0: 1, 3: 5, 4: 5, 7: 1}

    def test_rp2_has_2_torsion_in_degrees_8_and_9(self):
        F = from_facets(6, RP2_FACETS)
        ranks = {p: hochster.zk_ranks(F, p) for p in hochster.FIELDS}
        assert ranks[10007] == ranks[3] == {0: 1, 5: 10, 6: 15, 7: 6}
        assert ranks[2] == {**ranks[10007], 8: 1, 9: 1}


class TestClosedForm:
    """`cyclic_ranks` sums over the h-vector; the oracle sums the same
    Euler characteristics over the f-vector."""

    @pytest.mark.parametrize("d", range(2, 41, 2))
    def test_equals_f_vector_sum(self, d):
        for n in range(d + 1, d + 40):
            assert hochster.cyclic_ranks(CyclicParams(n, d)) == cyclic_ranks_by_f_vector(n, d), n

    @pytest.mark.parametrize("n,d", [(187, 4), (1449, 2), (300, 298)])
    def test_equals_f_vector_sum_on_large_rings(self, n, d):
        assert hochster.cyclic_ranks(CyclicParams(n, d)) == cyclic_ranks_by_f_vector(n, d)

    def test_deep_simplex_boundary_is_fast(self):
        # C(1447, 1446) is the boundary of the 1446-simplex, so Z_K = S^2893;
        # its 2,894 terms are under the limit, and each is one small binomial.
        start = time.perf_counter()
        ranks = hochster.cyclic_ranks(CyclicParams(1447, 1446))
        assert time.perf_counter() - start < 0.1
        assert ranks == {0: 1, 2893: 1}

    def test_oversized_closed_form_is_refused_at_once(self):
        # 10000 * (min(5000, 5000) + 1) = 50,010,000 terms.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            hochster.cyclic_ranks(CyclicParams(10000, 5000))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            "the closed form of C(10000,5000) would need 50010000 terms, "
            "above the limit of 1048576"
        )

    def test_odd_dimension_is_refused(self):
        with pytest.raises(ValueError, match="even dimension"):
            hochster.cyclic_ranks(CyclicParams(8, 5))


class TestGeneralRouteOracles:
    @settings(max_examples=40, deadline=None)
    @given(complexes_on(8))
    def test_matches_naive_elimination(self, F):
        for p in hochster.FIELDS:
            assert hochster.betti_table(F, p) == hochster_table_naive(F.m, F.generators, p)

    @settings(max_examples=25, deadline=None)
    @given(complexes_on(6))
    def test_matches_cellular_chains(self, F):
        for p in hochster.FIELDS:
            assert hochster.zk_ranks(F, p) == zk_ranks_cellular(F.m, F.generators, p)

    @pytest.mark.parametrize("m, nonfaces", [
        (5, PENTAGON_MINIMAL_NONFACES),
        (6, [(1, 2), (3, 4), (5, 6)]),
        (6, from_facets(6, RP2_FACETS).generators),
        (6, cyclic(6, 3).generators),
        (6, cyclic(6, 4).generators),
    ], ids=["pentagon", "octahedron", "rp2", "C6_3", "C6_4"])
    def test_fixtures_match_cellular_chains(self, m, nonfaces):
        F = from_nonfaces(m, nonfaces)
        for p in hochster.FIELDS:
            assert hochster.zk_ranks(F, p) == zk_ranks_cellular(m, nonfaces, p)


class TestRoutesAgree:
    @pytest.mark.parametrize("n,d", [
        (n, d) for n in range(3, 12) for d in range(2, n, 2)
    ])
    def test_closed_form_equals_general_route(self, n, d):
        want = hochster.cyclic_ranks(CyclicParams(n, d))
        F = cyclic(n, d)
        for p in hochster.FIELDS:
            assert hochster.zk_ranks(F, p) == want, p

    @settings(max_examples=40, deadline=None)
    @given(complexes_on(8).filter(lambda F: F.generators), st.sampled_from(hochster.FIELDS))
    def test_bottom_read_equals_bottom_of_table(self, F, p):
        top, bottom = hochster.bottom_ranks(F)
        full = hochster.zk_ranks(F, p)
        assert {k: v for k, v in full.items() if k <= top} == bottom

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(4, 11) for d in range(2, n)])
    def test_cyclic_bottom_read(self, n, d):
        top, bottom = hochster.bottom_ranks(cyclic(n, d))
        full = hochster.zk_ranks(cyclic(n, d), 2)
        assert {k: v for k, v in full.items() if k <= top} == bottom

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 11) for d in range(2, n)])
    def test_poincare_symmetry(self, n, d):
        # Z_K of a (d-1)-sphere on n vertices is a closed (n+d)-manifold.
        ranks = hochster.zk_ranks(cyclic(n, d), 2)
        assert max(ranks) == n + d and ranks[n + d] == 1
        assert all(ranks.get(n + d - k) == v for k, v in ranks.items())


class TestFieldRanks:
    """`field_ranks` chooses each field's route: the closed form, computed
    once per call, when the ring has an even-d cyclic twin, else the general
    route, computed only for the fields a consumer reads."""

    GON30 = from_facets(30, [(i, i % 30 + 1) for i in range(1, 31)])
    FIXTURES = {
        "pentagon": from_nonfaces(5, PENTAGON_MINIMAL_NONFACES),
        "relabelled pentagon": from_facets(5, [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)]),
        "octahedron": OCTAHEDRON,
        "rp2": from_facets(6, RP2_FACETS),
        "C8_4 nonfaces": from_nonfaces(8, CYCLIC_8_4_MINIMAL_NONFACES),
        "C6_3": cyclic(6, 3),
    }

    @staticmethod
    def counted(monkeypatch):
        """The arguments of each `cyclic_ranks` and `zk_ranks` call from now on."""
        calls = {"cyclic_ranks": [], "zk_ranks": []}
        for name, log in calls.items():
            fn = getattr(hochster, name)
            monkeypatch.setattr(hochster, name, lambda *a, fn=fn, log=log: log.append(a) or fn(*a))
        return calls

    @staticmethod
    def route(F, p):
        """The route the verdict took before `field_ranks` chose it."""
        twin = complexes.even_cyclic_twin(F)
        return hochster.cyclic_ranks(twin) if twin else hochster.zk_ranks(F, p)

    def test_fields_come_in_order(self):
        for F in (cyclic(8, 4), self.FIXTURES["relabelled pentagon"]):
            assert [p for p, _ in hochster.field_ranks(F)] == list(hochster.FIELDS)

    @pytest.mark.parametrize("F", [cyclic(8, 4), GON30], ids=["C8_4", "gon30 edges"])
    def test_twin_takes_one_closed_form(self, monkeypatch, F):
        calls = self.counted(monkeypatch)
        ranks = dict(hochster.field_ranks(F))
        twin = complexes.even_cyclic_twin(F)
        assert calls == {"cyclic_ranks": [(twin,)], "zk_ranks": []}
        assert ranks == {p: hochster.cyclic_ranks(twin) for p in hochster.FIELDS}

    @pytest.mark.parametrize("name", ["relabelled pentagon", "rp2"])
    def test_general_route_runs_per_field_read(self, monkeypatch, name):
        F = self.FIXTURES[name]
        calls = self.counted(monkeypatch)
        fields = hochster.field_ranks(F)
        assert next(fields) == (2, zk_ranks_cellular(F.m, F.generators, 2))
        assert calls == {"cyclic_ranks": [], "zk_ranks": [(F, 2)]}

    @pytest.mark.parametrize("F", [cyclic(n, d) for n in range(3, 11) for d in range(2, n)]
                             + list(FIXTURES.values()) + [GON30])
    def test_equals_the_former_route(self, F):
        assert dict(hochster.field_ranks(F)) == {p: self.route(F, p) for p in hochster.FIELDS}


class TestRelationRow:
    """Row 1 of the table is the generator histogram, and the lowest j with
    beta_(2,j) != 0, doubled, is the minimal relation degree."""

    @staticmethod
    def check(F):
        table = hochster.betti_table(F, 2)
        row1 = {2 * j: b for (i, j), b in table.items() if i == 1}
        assert row1 == dict(F.histogram)
        lowest = min(j for (i, j) in table if i == 2)
        assert 2 * lowest == min_relation_degree(F)[0]

    @settings(max_examples=60, deadline=None)
    @given(presentations())
    def test_random_presentations(self, F):
        self.check(F)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(4, 10) for d in range(2, n - 1)])
    def test_cyclic(self, n, d):
        self.check(cyclic(n, d))


class TestGuard:
    def test_refused_before_any_work(self):
        F = from_nonfaces(21, [(1, 2), (3, 4)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="generator unions of Hochster's formula"):
            hochster.betti_table(F, 2)
        assert time.perf_counter() - start < 0.1

    def test_cli_refusal_is_one_line(self, capsys):
        # C(21,5) has C(17,3) = 680 generators of size 3, so this candidate
        # agrees with the bottom read and the general route is needed.
        start = time.perf_counter()
        code = main(["verdict", "cyclic", "21", "5", "--vs", "680*S5xS21"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Hochster's formula" in captured.err


class TestK12:
    """K12 (`oracles.K12_FACETS`): a 2-neighbourly 4-sphere with an RP^2 as
    the full subcomplex on 1..6, so its Z_K has 2-torsion."""

    K = from_facets(12, K12_FACETS)

    def test_f_vector_and_ridges(self):
        faces = {s for f in K12_FACETS for k in range(1, 6) for s in combinations(f, k)}
        assert tuple(sum(len(s) == k for s in faces) for k in range(1, 6)) == (12, 66, 164, 180, 72)
        ridges = Counter(r for f in K12_FACETS for r in combinations(f, 4))
        assert set(ridges.values()) == {2}

    def test_two_neighbourly_with_rp2_on_the_first_six_vertices(self):
        assert all(self.K.is_face(e) for e in combinations(range(1, 13), 2))
        # The minimal non-faces of a full subcomplex are those of K inside it.
        K_J = FaceRingPresentation(6, tuple(g for g in self.K.generators if g[-1] <= 6))
        assert K_J == from_facets(6, RP2_FACETS)
        assert hochster.zk_ranks(K_J, 2) != hochster.zk_ranks(K_J, 3)

    def test_general_route_is_refused_on_its_face_tests(self):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            hochster.zk_ranks(self.K, 2)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "Hochster's formula would need 1434015 face tests, above the limit of 1048576"
        )

    # The full route with the limit doubled: the 2-torsion of the RP^2 on 1..6
    # and of its complement on 7..12 adds two classes in degrees 8 and 9 over
    # GF(2) alone.  A route that halves the face tests must give these ranks.
    GF3_RANKS = {0: 1, 5: 56, 6: 197, 7: 288, 8: 256, 9: 256, 10: 288, 11: 197, 12: 56, 17: 1}

    def test_full_route_over_gf3(self, monkeypatch):
        monkeypatch.setattr(gale, "SUBSET_LIMIT", 2**21)
        assert hochster.zk_ranks(self.K, 3) == self.GF3_RANKS

    def test_full_route_over_gf2_sees_the_torsion(self, monkeypatch):
        monkeypatch.setattr(gale, "SUBSET_LIMIT", 2**21)
        assert hochster.zk_ranks(self.K, 2) == self.GF3_RANKS | {8: 258, 9: 258}

    def test_verdict_names_the_torsion(self, monkeypatch, tmp_path):
        # The candidate's ranks are the GF(3) ranks, so only GF(2) tells them apart.
        monkeypatch.setattr(gale, "SUBSET_LIMIT", 2**21)
        path = tmp_path / "k12.txt"
        path.write_text("vertices 12\nfacets\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in K12_FACETS))
        report = cli.build_verdict_report(
            ["file", str(path)], "56*S5xS12 # 197*S6xS11 # 288*S7xS10 # 256*S8xS9")
        assert report["verdict"] == "NOT_EQUIVALENT"
        assert report["homology"] == {
            "fields": ["GF(2)"],
            "difference": {"field": "GF(2)", "degree": 8, "zk_rank": 258, "manifold_rank": 256},
            "q": None,
        }
