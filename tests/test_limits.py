"""The one work-limit rule, `gale.check_subset_count`.

Every guard compares its count with `gale.SUBSET_LIMIT` through the rule
alone, names the unit it counts, and gets the rule's wording; the rule
words any count at once, however large."""

import re
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import gale, hochster
from momentangle.complexes import from_cyclic, from_facets, from_nonfaces
from momentangle.gale import (
    SUBSET_LIMIT,
    CyclicParams,
    check_subset_count,
    comb_floor,
    enumerate_faces,
    f_vector,
    h_vector,
)
from momentangle.hilton import wedge_spectrum
from momentangle.syzygy import min_relation_degree

PENTAGON = from_cyclic(CyclicParams(5, 2))
TWELVE_GON_EDGES = [(i, i % 12 + 1) for i in range(1, 13)]

# (call, lowered limit, what, count, unit): each call is refused by the guard
# named, the first one whose count is above the lowered limit.
SITES = {
    "from_cyclic generators": (
        lambda: from_cyclic(CyclicParams(8, 4)), 15,
        "the minimal non-faces of C(8,4)", 16, "generators"),
    "from_cyclic closure": (
        lambda: from_cyclic(CyclicParams(5, 4)), 79,
        "the downward closure of the facet list", 80, "subsets"),
    "from_facets closure": (
        lambda: from_facets(3, [(1, 2, 3)]), 7,
        "the downward closure of the facet list", 8, "subsets"),
    "from_facets generators": (
        lambda: from_facets(12, TWELVE_GON_EDGES), 53,
        "the minimal non-faces of the facet list", 54, "generators"),
    "from_nonfaces": (
        lambda: from_nonfaces(5, [(1, 2), (3, 4), (1, 3, 5)]), 1,
        "the containment test of the non-face list", 2, "pairs"),
    "enumerate_faces": (
        lambda: enumerate_faces(CyclicParams(8, 4), 4), 8,
        "enumerating the faces of C(8,4) with at most 1 vertices", 9, "subsets"),
    "f_vector": (
        lambda: f_vector(CyclicParams(8, 4)), 14,
        "the f-vector of C(8,4)", 15, "additions"),
    "h_vector": (
        lambda: h_vector(CyclicParams(8, 4)), 2,
        "the h-vector of C(8,4)", 3, "binomial factors"),
    "cyclic_ranks": (
        lambda: hochster.cyclic_ranks(CyclicParams(8, 4)), 39,
        "the closed form of C(8,4)", 40, "terms"),
    "betti_table unions": (
        lambda: hochster.betti_table(PENTAGON, 2), 159,
        "the generator unions of Hochster's formula", 160, "steps"),
    "betti_table face tests": (
        lambda: hochster.betti_table(PENTAGON, 2), 160,
        "Hochster's formula", 187, "face tests"),
    "min_relation_degree": (
        lambda: min_relation_degree(from_nonfaces(6, [(1, 2), (3, 4), (5, 6)])), 2,
        "the relation scan at 3 vertices", 3, "pairs"),
    "wedge_spectrum": (
        lambda: wedge_spectrum({3: 1}, 10), 35,
        "the Witt recurrence up to ceiling 10", 36, "products"),
}


@pytest.mark.parametrize("site", SITES)
def test_every_guard_reads_the_limit_through_the_rule(site, monkeypatch):
    # A guard that compared a copy of the limit would not see it lowered.
    call, limit, what, count, unit = SITES[site]
    monkeypatch.setattr(gale, "SUBSET_LIMIT", limit)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{what} would need {count} {unit}, above the limit of {limit}"
    monkeypatch.setattr(gale, "SUBSET_LIMIT", count)
    try:
        call()
    except ValueError as exc:  # a later guard may refuse; this one must not
        assert not str(exc).startswith(f"{what} would need")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**7), st.integers(0, 2**80))
def test_any_count_is_worded_at_once(bits, low):
    count = SUBSET_LIMIT + 1 + (1 << bits) + low
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        check_subset_count(count, "a huge scan", "subsets")
    assert time.perf_counter() - start < 0.05
    text = str(info.value)
    assert "integer string conversion" not in text
    shown = re.fullmatch(
        r"a huge scan would need (.*) subsets, above the limit of 1048576", text).group(1)
    if count < 2**64:
        assert shown == str(count)
    else:
        k = int(shown.removeprefix("at least 2^"))
        assert shown == f"at least 2^{k}" and 2**k <= count < 2 ** (k + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300))
def test_comb_floor_is_exact_below_64_factors(a, b):
    a, b = max(a, b), min(a, b)
    if min(b, a - b) < 64:
        assert comb_floor(a, b) == comb(a, b)
    else:
        assert comb_floor(a, b) == 2**64 <= comb(a, b)


def test_comb_floor_builds_no_large_binomial():
    start = time.perf_counter()
    assert comb_floor(10**9, 5 * 10**8) == 2**64
    assert time.perf_counter() - start < 0.01


class TestHVectorGuard:
    def test_oversized_h_vector_is_refused_at_once(self):
        # h_i = C(4999 + i, i) takes i factors for i <= 2500: 3,126,250 in all.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            h_vector(CyclicParams(10000, 5000))
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            "the h-vector of C(10000,5000) would need 3126250 binomial factors, "
            "above the limit of 1048576"
        )

    def test_simplex_boundary_takes_no_factors(self):
        start = time.perf_counter()
        assert h_vector(CyclicParams(1447, 1446)) == (1,) * 1447
        assert time.perf_counter() - start < 0.1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 2000))
    def test_admits_whatever_its_callers_admit(self, d, extra, limit):
        # f_vector counts (d+1)(d+2)/2 additions and cyclic_ranks n (min(d,
        # n-d) + 1) terms; the h-vector's factors are never more than either.
        p = CyclicParams(d + extra, d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gale, "SUBSET_LIMIT", limit)
            if (d + 1) * (d + 2) // 2 <= limit:
                f_vector(p)
            if d % 2 == 0 and p.n * (min(d, extra) + 1) <= limit:
                hochster.cyclic_ranks(p)
