import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.complexes import from_cyclic
from momentangle.gale import CyclicParams
from momentangle.hilton import (
    SphereSpectrum,
    wedge_spectrum,
)

from oracles import (
    hall_count_by_weight,
    hall_sphere_spectrum,
    moebius,
    necklace_sphere_spectrum,
    witt_spectrum_dense,
)

MOEBIUS_TABLE = {
    1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
    10: 1, 12: 0, 30: -1, 36: 0, 210: 1,
}


class TestMoebius:
    def test_table(self):
        for n, value in MOEBIUS_TABLE.items():
            assert moebius(n) == value

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moebius(0)

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_multiplicative_on_coprime(self, a, b):
        from math import gcd

        if gcd(a, b) == 1:
            assert moebius(a * b) == moebius(a) * moebius(b)


def witt(k: int, w: int) -> int:
    """Witt number W(k, w), read from the S^3 column: a weight-w basic product
    on copies of S^3 is a sphere of dimension 2w + 1."""
    return wedge_spectrum({3: k}, 2 * w + 1).entries.get(2 * w + 1, 0)


class TestBasicProductCount:
    def test_weight_one_is_generator_count(self):
        assert witt(16, 1) == 16

    def test_sixteen_generators_weight_two(self):
        assert witt(16, 2) == 120

    def test_two_generators_weight_six(self):
        assert witt(2, 6) == 9

    def test_single_generator_has_no_higher_products(self):
        assert all(witt(1, w) == 0 for w in range(2, 8))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            witt(0, 3)

    def test_matches_hall_enumeration(self):
        for k in range(1, 4):
            counts = hall_count_by_weight(k, 5)
            for w in range(1, 6):
                assert witt(k, w) == counts[w], (k, w)

    def test_necklace_identity(self):
        for k in range(1, 17):
            for w in range(1, 9):
                total = sum(
                    d * witt(k, d) for d in range(1, w + 1) if w % d == 0
                )
                assert total == k**w, (k, w)

    @given(st.integers(1, 40), st.integers(1, 12))
    def test_integrality_and_sign(self, k, w):
        assert witt(k, w) >= 0  # raises if the sum misdivides


class TestWedgeSpectrum:
    def test_sixteen_s5(self):
        assert wedge_spectrum({5: 16}, 9).entries == {5: 16, 9: 120}

    def test_single_summand(self):
        assert wedge_spectrum({5: 1}, 30).entries == {5: 1}

    def test_two_s3(self):
        assert wedge_spectrum({3: 2}, 7).entries == {3: 2, 5: 1, 7: 2}

    def test_rejects_even_dimension(self):
        with pytest.raises(ValueError):
            wedge_spectrum({4: 3}, 10)

    def test_rejects_circle(self):
        with pytest.raises(ValueError):
            wedge_spectrum({1: 3}, 10)

    def test_rejects_empty_wedge(self):
        with pytest.raises(ValueError):
            wedge_spectrum({}, 10)

    def test_rejects_zero_count(self):
        # A histogram lists the dimensions the wedge has: a count of 0 is refused.
        with pytest.raises(ValueError, match=r"^summand counts are positive, got 0 at S\^3$"):
            wedge_spectrum({3: 0}, 10)

    def test_dimensions_are_arithmetic_progression(self):
        for k in (2, 3, 5):
            for dim in (3, 5, 7, 9):
                ceiling = 25
                expected = {
                    (dim - 1) * w + 1
                    for w in range(1, ceiling)
                    if (dim - 1) * w + 1 <= ceiling
                }
                got = set(wedge_spectrum({dim: k}, ceiling).entries)
                assert got == expected

    def test_ceiling_below_bottom_gives_empty(self):
        assert wedge_spectrum({5: 4}, 4).entries == {}
        for ceiling in (0, 1, 2):
            assert wedge_spectrum({3: 4}, ceiling).entries == {}

    @pytest.mark.parametrize("ceiling", [1450, 10**6])
    def test_refuses_oversized_ceiling_at_once(self, ceiling):
        # The c_n recurrence needs (C - 1)(C - 2)/2 products; the bound is
        # checked before any list of length C is built.
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            wedge_spectrum({3: 1}, ceiling)
        assert time.perf_counter() - start < 0.05
        assert str(info.value) == (
            f"the Witt recurrence up to ceiling {ceiling} would need "
            f"{(ceiling - 1) * (ceiling - 2) // 2} products, above the limit of 1048576"
        )

    def test_largest_admitted_ceiling(self):
        # (1449 - 1) * (1449 - 2) / 2 = 1047628 products are admitted.
        shown = wedge_spectrum({3: 1}, 1449)
        assert shown.ceiling == 1449 and shown.entries == {3: 1}


class TestMixedWedgeSpectrum:
    def test_equal_dims_match_plain(self):
        for k in range(1, 6):
            for dim in (3, 5, 7, 9):
                for ceiling in (6, 12, 18, 24, 30):
                    got = wedge_spectrum({dim: k}, ceiling).entries
                    oracle = necklace_sphere_spectrum([dim] * k, ceiling)
                    assert got == oracle, (k, dim, ceiling)

    def test_two_mixed_generators(self):
        assert wedge_spectrum({3: 1, 5: 1}, 7).entries == {3: 1, 5: 1, 7: 1}

    def test_three_mixed_generators(self):
        assert wedge_spectrum({3: 2, 5: 1}, 5).entries == {3: 2, 5: 2}

    @pytest.mark.parametrize(
        "dims,ceiling",
        [([3, 3], 11), ([3, 5], 13), ([3, 3, 5], 9), ([5, 7], 17), ([3, 5, 7], 11)],
    )
    def test_matches_hall_enumeration(self, dims, ceiling):
        got = wedge_spectrum(Counter(dims), ceiling).entries
        assert got == hall_sphere_spectrum(dims, ceiling)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([3, 5, 7, 9, 11]), min_size=1, max_size=4),
        st.integers(1, 21),
    )
    def test_matches_necklace_oracle(self, dims, ceiling):
        got = wedge_spectrum(Counter(dims), ceiling).entries
        assert got == necklace_sphere_spectrum(dims, ceiling), (dims, ceiling)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 30).map(lambda k: 2 * k + 1), st.integers(1, 40),
                        min_size=1, max_size=6),
        st.integers(0, 60),
    )
    def test_matches_dense_recurrence(self, histogram, ceiling):
        got = wedge_spectrum(histogram, ceiling).entries
        assert got == witt_spectrum_dense(histogram, ceiling), (histogram, ceiling)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wedge_spectrum({}, 10)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            wedge_spectrum({5: 1, 6: 1}, 10)


def _series_product(x: list[int], y: list[int]) -> list[int]:
    n = len(x)
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n)]


class TestPBWIdentity:
    """prod_n (1 - t^n)^(-L_n) == 1/(1 - a(t)) as exact power series through
    t^(ceiling - 1), where L_n is the spectrum's multiplicity at n + 1 and a_D
    counts the generators S^(D+1).  Neither side uses the divisor-sum sieve or
    the c_n recurrence, and the sizes here are far beyond what enumerating
    exponent vectors could reach."""

    @staticmethod
    def check(dims, ceiling):
        spectrum = wedge_spectrum(Counter(dims), ceiling)
        a = [0] * ceiling
        for dim in dims:
            if dim <= ceiling:
                a[dim - 1] += 1
        inverse = [1] + [0] * (ceiling - 1)  # 1/(1 - a) from b = 1 + a*b
        for n in range(1, ceiling):
            inverse[n] = sum(a[j] * inverse[n - j] for j in range(1, n + 1))
        product = [1] + [0] * (ceiling - 1)
        for n in range(1, ceiling):
            mult = spectrum.entries.get(n + 1, 0)
            if mult:
                factor = [0] * ceiling
                for k in range((ceiling - 1) // n + 1):
                    factor[n * k] = comb(mult + k - 1, k)
                product = _series_product(product, factor)
        assert product == inverse

    def test_cyclic_12_4_generators(self):
        F = from_cyclic(CyclicParams(12, 4))
        dims = [2 * len(g) - 1 for g in F.generators]
        assert dims == [5] * 112
        self.check(dims, 13)

    def test_deep_two_degree_histogram(self):
        self.check([5] * 850 + [7] * 10, 41)


class TestRationalRankWedge:
    """Rationally an odd sphere S^D has rank 1 in degree D only, so the rank
    of the wedge model in degree q is the spectrum's multiplicity at q."""

    def test_bottom_degree(self):
        s = wedge_spectrum({5: 16}, 9)
        assert s.entries.get(5, 0) == 16

    def test_gap_degree_is_zero(self):
        s = wedge_spectrum({5: 16}, 9)
        assert s.entries.get(6, 0) == 0

    def test_weight_two_degree(self):
        s = wedge_spectrum({5: 16}, 9)
        assert s.entries.get(9, 0) == 120


class TestSphereSpectrum:
    def test_rejects_even_dimension(self):
        with pytest.raises(ValueError):
            SphereSpectrum({4: 1}, ceiling=10)

    def test_rejects_above_ceiling(self):
        with pytest.raises(ValueError):
            SphereSpectrum({11: 1}, ceiling=10)

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            SphereSpectrum({5: 0}, ceiling=10)

    def test_rejects_negative_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            SphereSpectrum({}, ceiling=-1)
        with pytest.raises(ValueError, match="ceiling"):
            wedge_spectrum({5: 4}, -3)
