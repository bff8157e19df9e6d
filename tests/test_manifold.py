from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.manifold import (
    ConnectedSumSpec,
    GradedRanks,
    SphereProduct,
    connected_sum_homology,
    euler_characteristic,
    format_connected_sum,
    parse_connected_sum,
    poincare_check,
)

from oracles import connected_sum_ranks_peeling, parse_connected_sum_regex

T57 = SphereProduct(5, 7)
T66 = SphereProduct(6, 6)
T39 = SphereProduct(3, 9)
M_SPEC = parse_connected_sum("16*S5xS7 # 15*S6xS6")


def product(t: SphereProduct):
    """Homology of S^m x S^n as the one-summand connected sum."""
    return connected_sum_homology(ConnectedSumSpec(((1, t),)))


def dim12_specs():
    factors = st.sampled_from([T57, T66, T39])
    return st.lists(
        st.tuples(st.integers(1, 6), factors), min_size=1, max_size=4
    ).map(lambda s: ConnectedSumSpec(tuple(s)))


def grammar_texts():
    """Summands `k*S<m>xS<n>` in mixed case and spacing, `k*` optional; some
    are rejected (factor below S^2, multiplicity 0, mixed total dimension)."""
    summand = st.tuples(
        st.sampled_from(["", "1*", "2 * ", "15*", "0*", "007*"]),
        st.sampled_from(["S", "s", " S"]), st.integers(0, 9),
        st.sampled_from(["x", "X", " x "]), st.sampled_from(["S", "s"]), st.integers(0, 9),
    ).map(lambda parts: "".join(map(str, parts)))
    return st.lists(summand, min_size=1, max_size=4).map(" # ".join)


def spec_like_texts():
    """Arbitrary text, text over the grammar's alphabet, and grammar_texts."""
    alphabet = st.sampled_from(["S", "s", "x", "X", "*", "#", " ", "\t", "0", "1", "5", "12"])
    return st.one_of(
        st.text(max_size=40), st.lists(alphabet, max_size=20).map("".join), grammar_texts()
    )


def unicode_grammar_texts():
    """Texts near the grammar over the characters the regex grammar treats
    specially: Unicode decimal digits and whitespace, the case variants of S
    and x (the long s, U+017F, among them), and look-alikes that it refuses
    (superscript and fraction digits, the multiplication sign, dotted I)."""
    alphabet = st.sampled_from([
        "S", "s", "\u017f", "x", "X", "\u00d7", "*", "#", " ", "\t", "\n", "\u2003",
        "\x1c", "\x85", "0", "1", "7", "12", "\u0663", "\u06f7", "\uff15", "\u00b2",
        "\u2155", "\u0130", "K", "_", "+", "-",
    ])
    return st.one_of(st.lists(alphabet, max_size=24).map("".join), spec_like_texts())


class TestSphereProduct:
    def test_factors_are_sorted(self):
        t = SphereProduct(7, 5)
        assert (t.m, t.n) == (5, 7)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            SphereProduct(1, 7)

    def test_total_dim(self):
        assert T66.total_dim == 12


class TestGradedRanks:
    def test_requires_connected(self):
        with pytest.raises(ValueError):
            GradedRanks({0: 2, 4: 1}, top=4)

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError):
            GradedRanks({0: 1, 13: 1}, top=12)

    def test_drops_zero_entries(self):
        g = GradedRanks({0: 1, 3: 0, 6: 2}, top=6)
        assert g.ranks == {0: 1, 6: 2}


class TestProductHomology:
    def test_distinct_factors(self):
        assert product(T57).ranks == {0: 1, 5: 1, 7: 1, 12: 1}

    def test_equal_factors(self):
        assert product(T66).ranks == {0: 1, 6: 2, 12: 1}

    def test_punctured_drops_top(self):
        """A summand adds its product's ranks without degrees 0 and top."""
        for t, middle in ((T66, {6: 2}), (T57, {5: 1, 7: 1}), (T39, {3: 1, 9: 1})):
            g = connected_sum_homology(ConnectedSumSpec(((1, T57), (1, t))))
            added = {k: g.rank(k) - product(T57).rank(k) for k in range(13)}
            assert {k: v for k, v in added.items() if v} == middle, t


class TestConnectedSumHomology:
    def test_headline_table(self):
        g = connected_sum_homology(M_SPEC)
        assert g.ranks == {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}

    def test_single_summand_is_the_product(self):
        """One summand gives the Kuenneth ranks of S^m x S^n."""
        for t in (T57, T66, T39):
            spec = ConnectedSumSpec(((1, t),))
            assert connected_sum_homology(spec).ranks == connected_sum_ranks_peeling(spec)

    def test_two_t66(self):
        g = connected_sum_homology(ConnectedSumSpec(((2, T66),)))
        assert g.ranks == {0: 1, 6: 4, 12: 1}

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="total dimension"):
            ConnectedSumSpec(((1, T57), (1, SphereProduct(5, 5))))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConnectedSumSpec(())

    def test_all_small_specs_match_peeling_oracle(self):
        for size in range(1, 5):
            for combo in combinations_with_replacement([T57, T66, T39], size):
                spec = ConnectedSumSpec(tuple((1, t) for t in combo))
                got = connected_sum_homology(spec)
                assert got.ranks == connected_sum_ranks_peeling(spec), combo

    @settings(max_examples=50, deadline=None)
    @given(dim12_specs())
    def test_random_specs_match_peeling_oracle(self, spec):
        assert connected_sum_homology(spec).ranks == connected_sum_ranks_peeling(spec)

    @settings(max_examples=50, deadline=None)
    @given(dim12_specs())
    def test_poincare_always_holds(self, spec):
        assert poincare_check(connected_sum_homology(spec))

    @settings(max_examples=40, deadline=None)
    @given(dim12_specs(), dim12_specs())
    def test_middle_ranks_add(self, a, b):
        total = ConnectedSumSpec(a.summands + b.summands)
        ga, gb, gt = map(connected_sum_homology, (a, b, total))
        for k in range(1, gt.top):
            assert gt.rank(k) == ga.rank(k) + gb.rank(k)
        assert euler_characteristic(gt) == (
            euler_characteristic(ga) + euler_characteristic(gb) - 2
        )

    @settings(max_examples=50, deadline=None)
    @given(dim12_specs())
    def test_no_ranks_below_connectivity(self, spec):
        g = connected_sum_homology(spec)
        bottom = min(t.m for _, t in spec.summands)
        assert all(g.rank(k) == 0 for k in range(1, bottom))


class TestPoincareAndEuler:
    def test_headline_manifold_is_symmetric(self):
        assert poincare_check(connected_sum_homology(M_SPEC))

    def test_asymmetric_table_fails(self):
        assert not poincare_check(GradedRanks({0: 1, 5: 1, 12: 1}, top=12))

    def test_sphere_table_passes(self):
        assert poincare_check(GradedRanks({0: 1, 12: 1}, top=12))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 14).flatmap(lambda top: st.tuples(
        st.just(top), st.dictionaries(st.integers(1, top), st.integers(0, 3))
        if top else st.just({}))))
    def test_matches_degree_walk(self, case):
        top, ranks = case
        g = GradedRanks({**ranks, 0: 1}, top=top)
        walk = all(g.rank(k) == g.rank(top - k) for k in range(top + 1))
        assert poincare_check(g) == walk

    def test_euler_values(self):
        assert euler_characteristic(connected_sum_homology(M_SPEC)) == 0
        assert euler_characteristic(product(T66)) == 4
        assert euler_characteristic(product(T57)) == 0


class TestGrammar:
    def test_parse_headline(self):
        assert M_SPEC.summands == ((16, T57), (15, T66))

    def test_whitespace_insensitive(self):
        assert parse_connected_sum("16*S5xS7#15*S6xS6") == M_SPEC
        assert parse_connected_sum("  16 * S5xS7  #  15*S6 x S6 ") == M_SPEC

    def test_unit_multiplicity_omitted(self):
        assert parse_connected_sum("S5xS7").summands == ((1, T57),)

    def test_factor_order_normalized(self):
        assert parse_connected_sum("S7xS5") == parse_connected_sum("S5xS7")

    def test_summand_order_normalized(self):
        assert parse_connected_sum("15*S6xS6 # 16*S5xS7") == M_SPEC

    def test_duplicate_summands_merge(self):
        assert parse_connected_sum("8*S5xS7 # 8*S5xS7 # 15*S6xS6") == M_SPEC

    def test_format_round_trip(self):
        text = format_connected_sum(M_SPEC)
        assert text == "16*S5xS7 # 15*S6xS6"
        assert parse_connected_sum(text) == M_SPEC

    @pytest.mark.parametrize("bad", ["", "16*S5yS7", "S5", "3*", "S5xS7 ## S5xS7"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_connected_sum(bad)

    def test_unicode_digits_and_case(self):
        assert parse_connected_sum("\u0661\u0666*\u017f5XS7 #15 * s6xs\uff16") == M_SPEC
        with pytest.raises(ValueError, match="bad summand"):
            parse_connected_sum("S5\u00d7S7")

    @settings(max_examples=500, deadline=None)
    @given(unicode_grammar_texts())
    def test_matches_regex_grammar(self, text):
        """Same spec, or the same error message, as the regex grammar."""
        def outcome(parse):
            try:
                return parse(text)
            except ValueError as exc:
                return str(exc)

        got, want = outcome(parse_connected_sum), outcome(parse_connected_sum_regex)
        assert (type(got), got) == (type(want), want)

    @settings(max_examples=300, deadline=None)
    @given(spec_like_texts())
    def test_fuzz_raises_only_value_error(self, text):
        try:
            parse_connected_sum(text)
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(grammar_texts(), spec_like_texts()))
    def test_fuzz_accepted_specs_round_trip(self, text):
        try:
            spec = parse_connected_sum(text)
        except ValueError:
            return
        canonical = format_connected_sum(spec)
        assert parse_connected_sum(canonical) == spec
        assert format_connected_sum(parse_connected_sum(canonical)) == canonical

    @settings(max_examples=40, deadline=None)
    @given(dim12_specs(), st.randoms(use_true_random=False))
    def test_normalization_idempotent_under_permutation(self, spec, rng):
        parts = [f"{mult}*S{t.m}xS{t.n}" for mult, t in spec.summands]
        rng.shuffle(parts)
        assert parse_connected_sum(" # ".join(parts)) == spec
