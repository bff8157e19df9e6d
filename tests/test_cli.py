import contextlib
import copy
import enum
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import cli, complexes, gale, hilton, hochster, syzygy
from momentangle.cli import main
from momentangle.gale import CyclicParams, enumerate_faces, f_vector
from momentangle.manifold import parse_connected_sum

from conftest import SRC
from oracles import (
    CYCLIC_8_4_MINIMAL_NONFACES,
    PENTAGON_MINIMAL_NONFACES,
    RP2_FACETS,
    zk_ranks_naive,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import VERDICT_CYCLIC, VERDICT_POLYGONS  # noqa: E402

ALL_FIELDS = ["GF(2)", "GF(10007)", "GF(3)"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert err == ""
    return code, json.loads(out)


class TestFaces:
    def test_counts(self, capsys):
        code, payload = run_json(capsys, "faces", "8", "4", "--max-card", "3", "--count")
        assert code == 0
        assert payload["counts"] == {"1": 8, "2": 28, "3": 40}

    def test_simplex_counts(self, capsys):
        code, payload = run_json(capsys, "faces", "5", "4", "--max-card", "4", "--count")
        assert code == 0
        assert payload["counts"] == {"1": 5, "2": 10, "3": 10, "4": 5}

    def test_face_listing(self, capsys):
        code, payload = run_json(capsys, "faces", "5", "2", "--max-card", "1")
        assert code == 0
        assert payload["faces"] == [[1], [2], [3], [4], [5]]

    def test_max_card_above_d_errors(self, capsys):
        code, out, err = run_cli(capsys, "faces", "8", "4", "--max-card", "5")
        assert code == 1
        assert "max_card" in err

    @pytest.mark.parametrize("n", range(3, 14))
    def test_counts_match_enumeration(self, capsys, n):
        for d in range(2, n):
            faces = enumerate_faces(CyclicParams(n, d), d)
            for max_card in range(d + 1):
                listed = [f for f in faces if len(f) <= max_card]
                want = {str(k): sum(len(f) == k for f in listed)
                        for k in range(1, max_card + 1)}
                text = [f"cardinality {k}: {c}\n" for k, c in want.items()]
                argv = ["faces", str(n), str(d), "--max-card", str(max_card)]
                for count in ([], ["--count"]):
                    code, payload = run_json(capsys, *argv, *count)
                    assert code == 0 and payload["counts"] == want, (argv, count)
                    want_faces = None if count else [list(f) for f in listed]
                    assert payload.get("faces") == want_faces, (argv, count)
                    code, out, err = run_cli(capsys, "--quiet", *argv, *count)
                    assert (code, out, err) == (0, "".join(text), ""), (argv, count)

    def test_count_is_closed_form(self, capsys):
        start = time.perf_counter()
        code, payload = run_json(capsys, "faces", "60", "30", "--count")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        f = f_vector(CyclicParams(60, 30))
        assert payload["counts"] == {str(k): f[k - 1] for k in range(1, 31)}
        code, out, err = run_cli(capsys, "faces", "60", "30")
        assert code == 1 and out == "" and "above the limit" in err


class TestIdeal:
    def test_cyclic_84_generators(self, capsys):
        code, payload = run_json(capsys, "ideal", "cyclic", "8", "4")
        assert code == 0
        ideal = payload["ideal"]
        assert ideal["m"] == 8
        assert ideal["size"] == 16
        assert ideal["degree_histogram"] == {"6": 16}
        assert [tuple(g) for g in ideal["generators"]] == CYCLIC_8_4_MINIMAL_NONFACES

    def test_pentagon(self, capsys):
        code, payload = run_json(capsys, "ideal", "polygon", "5")
        assert code == 0
        got = [tuple(g) for g in payload["ideal"]["generators"]]
        assert got == PENTAGON_MINIMAL_NONFACES

    def test_triangle_is_cyclic_3_2(self, capsys):
        code, payload = run_json(capsys, "ideal", "polygon", "3")
        assert code == 0
        assert payload["ideal"]["generators"] == [[1, 2, 3]]
        assert payload["ideal"] == run_json(capsys, "ideal", "cyclic", "3", "2")[1]["ideal"]

    def test_two_vertices_refused(self, capsys):
        assert run_cli(capsys, "ideal", "polygon", "2") == (
            1, "", "error: C(n,2) needs n >= 3 vertices, got n=2\n"
        )

    def test_square_text_output(self, capsys):
        code, out, err = run_cli(capsys, "ideal", "polygon", "4")
        assert code == 0
        assert "v1*v3" in out and "v2*v4" in out

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "pentagon.txt"
        path.write_text(
            "vertices 5\nnonfaces\n"
            + "\n".join(" ".join(map(str, nf)) for nf in PENTAGON_MINIMAL_NONFACES)
        )
        code, payload = run_json(capsys, "ideal", "file", str(path))
        assert code == 0
        got = [tuple(g) for g in payload["ideal"]["generators"]]
        assert got == PENTAGON_MINIMAL_NONFACES

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "ideal", "file", "/no/such/file")
        assert code == 1

    def test_bad_source(self, capsys):
        code, out, err = run_cli(capsys, "ideal", "torus", "3")
        assert code == 1
        assert "source" in err

    @pytest.mark.parametrize("source, token", [
        (["polygon", "x"], "x"),
        (["cyclic", "8", "x"], "x"),
        (["cyclic", "5.0", "3"], "5.0"),
    ])
    def test_non_integer_token_is_named(self, capsys, source, token):
        code, out, err = run_cli(capsys, "ideal", *source)
        assert (code, out) == (1, "")
        assert err == (
            "error: source must be 'cyclic N D', 'polygon M', or 'file PATH'; "
            f"{token!r} is not an integer\n"
        )


class TestInputLimits:
    """Inputs whose enumeration would explode fail at once with one line."""

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["ideal", "cyclic", "24", "12"], None),
            (["faces", "20000", "10000", "--count"], None),
            (["ideal", "file"], "vertices 25\nfacets\n" + " ".join(map(str, range(1, 26)))),
            (["ideal", "file"], "vertices 1000000000\nfacets\n1 2\n"),
            (["faces", "20000", "10000"], None),
        ],
    )
    def test_exits_one_quickly(self, capsys, tmp_path, argv, text):
        if text is not None:
            path = tmp_path / "complex.txt"
            path.write_text(text)
            argv = argv + [str(path)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,text,want",
        [
            (["ideal", "cyclic", "3000000", "2000000"], None,
             "the minimal non-faces of C(3000000,2000000) would need at least 2^65 generators"),
            (["ideal", "cyclic", "300000", "200000"], None,
             "the minimal non-faces of C(300000,200000) would need at least 2^65 generators"),
            (["verdict", "file"], "vertices 1000000000\nnonfaces\n1 2\n3 4\n",
             "the generator unions of Hochster's formula would need at least 2^65 steps"),
        ],
    )
    def test_astronomical_counts_are_bounded_not_built(self, capsys, tmp_path, argv, text, want):
        # The binomial generator count and the 2**m unions are compared with
        # the limit through lower bounds of 2**64, worded by their bit length.
        if text is not None:
            path = tmp_path / "complex.txt"
            path.write_text(text)
            argv = argv + [str(path), "--vs", "2*S3xS4"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: {want}, above the limit of 1048576\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python writes integers of any length")
    def test_face_counts_past_the_digit_limit_are_refused(self, capsys):
        # The f-vector guard counts additions, not digits: C(10**9, 1446)'s
        # counts pass it, and its largest has 4,969 digits.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for argv in (["faces", "1000000000", "1446", "--count"],
                         ["--json", "faces", "1000000000", "1446", "--count", "--quiet"]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (1, ""), argv
                assert err == (
                    "error: the face counts of C(1000000000,1446) would need 4969 digits, "
                    "above the limit of 4300 digits that this Python writes for an integer\n"
                ), argv
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python writes integers of any length")
    def test_digit_count_of_a_refused_count_is_exact(self):
        # Either side of each power of ten around the limit of 640, a count
        # of at most 640 digits passes, and a longer one is refused with
        # the length of its text as its digit count.
        saved = sys.get_int_max_str_digits()
        try:
            for k in range(600, 700):
                for count in (10**k - 1, 10**k, 3 * 10**k, 10**(k + 1) - 1):
                    sys.set_int_max_str_digits(0)
                    digits = len(str(count))
                    sys.set_int_max_str_digits(640)
                    if digits <= 640:
                        cli._check_printable(count, "x")
                        continue
                    with pytest.raises(ValueError) as info:
                        cli._check_printable(count, "x")
                    assert str(info.value).startswith(f"x would need {digits} digits, "), count
        finally:
            sys.set_int_max_str_digits(saved)

    def test_huge_polygon_edge_file_exits_one_quickly(self, capsys, tmp_path):
        # 4 closure subsets per edge pass the closure guard; the 4,495,500
        # minimal non-faces are counted, and refused, before any is built.
        path = tmp_path / "edges3000.txt"
        edges = [f"{i} {i + 1}" for i in range(1, 3000)] + ["1 3000"]
        path.write_text("vertices 3000\nfacets\n" + "\n".join(edges) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ideal", "file", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == (
            "error: the minimal non-faces of the facet list would need 4495500 "
            "generators, above the limit of 1048576\n"
        )


class TestSyzmin:
    def test_c84(self, capsys):
        code, payload = run_json(capsys, "syzmin", "cyclic", "8", "4")
        assert code == 0
        assert payload["rmin"]["degree"] == 8
        witness = payload["rmin"]["witness"]
        assert witness["generator_i"] == [1, 3, 5]
        assert witness["generator_j"] == [1, 3, 6]

    def test_pentagon_reports_verified_minimum(self, capsys):
        code, payload = run_json(capsys, "syzmin", "polygon", "5")
        assert code == 0
        assert payload["rmin"]["degree"] == 6

    def test_full_simplex_errors(self, capsys, tmp_path):
        path = tmp_path / "simplex.txt"
        path.write_text("vertices 3\nfacets\n1 2 3\n")
        code, out, err = run_cli(capsys, "syzmin", "file", str(path))
        assert code == 1
        # The empty ideal has no wedge model either.
        code, out, err = run_cli(capsys, "wedge", "file", str(path))
        assert (code, out) == (1, "")
        assert err == "error: no relations: the ideal needs at least two generators\n"


class TestWedge:
    def test_c84(self, capsys):
        code, payload = run_json(capsys, "wedge", "cyclic", "8", "4")
        assert code == 0
        wedge = payload["wedge"]
        assert wedge["spectrum"] == {"5": 16}
        assert wedge["ceiling"] == wedge["q_max"] == 6
        assert wedge["pi2_rank"] == 8
        assert payload["rmin"]["degree"] == 8

    def test_ceiling_override(self, capsys):
        code, payload = run_json(capsys, "wedge", "cyclic", "8", "4", "--ceiling", "9")
        assert code == 0
        wedge = payload["wedge"]
        assert wedge["spectrum"] == {"5": 16, "9": 120}
        assert any("q_max" in note for note in wedge["notes"])

    def test_negative_ceiling_errors(self, capsys):
        code, out, err = run_cli(capsys, "wedge", "polygon", "4", "--ceiling", "-3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ceiling" in err

    def test_largest_admitted_ceiling(self, capsys):
        # (1449 - 1) * (1449 - 2) / 2 = 1047628 products are admitted.
        code, payload = run_json(capsys, "wedge", "polygon", "4", "--ceiling", "1449")
        assert code == 0
        wedge = payload["wedge"]
        assert wedge["ceiling"] == 1449 and wedge["spectrum"]["3"] == 2

    def test_ceiling_above_limit_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "wedge", "polygon", "4", "--ceiling", "1450")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: the Witt recurrence up to ceiling 1450 would need 1049076 products, "
            "above the limit of 1048576\n"
        )

    def test_ceiling_bound_comes_after_the_relation(self, capsys):
        # hilton holds the ceiling bound, so a source with no relation fails
        # on that first: C(5,4) is a simplex boundary, one generator.
        for ceiling in ([], ["--ceiling", "1450"]):
            code, out, err = run_cli(capsys, "wedge", "cyclic", "5", "4", *ceiling)
            assert (code, out) == (1, "")
            assert err == "error: no relations: the ideal needs at least two generators\n"

    @pytest.mark.parametrize("source", [f"polygon {m}" for m in VERDICT_POLYGONS]
                             + [f"cyclic {n} {d}" for n, d in VERDICT_CYCLIC])
    def test_one_spectrum_path(self, capsys, source):
        # Without --ceiling, wedge shows the spectrum at q_max; that the
        # verdict's wedge block is this one is
        # TestVerdictReadsNoWedgeFact::test_verdict_wedge_block_is_the_wedge_report.
        tokens = source.split()
        default = run_cli(capsys, "wedge", *tokens, "--json")
        wedge = json.loads(default[1])["wedge"]
        explicit = run_cli(capsys, "wedge", *tokens, "--ceiling", str(wedge["q_max"]), "--json")
        assert explicit == default
        assert wedge["notes"] == []

    def test_small_ceilings_give_empty_spectra(self, capsys):
        for ceiling in ("0", "1", "2"):
            code, payload = run_json(capsys, "wedge", "polygon", "4", "--ceiling", ceiling)
            assert code == 0 and payload["wedge"]["spectrum"] == {}


class TestVerdictReadsNoWedgeFact:
    """README step 6: the verdict reads neither the relation degree nor the
    wedge model.  With `_wedge_block` replaced and the caches cleared, each
    verdict's homology block, verdict and exit code are unchanged; only its
    `wedge` block shows the replacement.  Unreplaced, that block is the one
    `wedge SOURCE --json` prints, less its notes: `_wedge_block` builds both."""

    SOURCES = ([f"polygon {m}" for m in VERDICT_POLYGONS]
               + [f"cyclic {n} {d}" for n, d in VERDICT_CYCLIC] + ["rp2"])

    @staticmethod
    def tokens(source, tmp_path):
        """The CLI tokens of a source; "rp2" is a facets file of RP2_FACETS."""
        if source != "rp2":
            return source.split()
        path = tmp_path / "rp2.txt"
        path.write_text("vertices 6\nfacets\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in RP2_FACETS))
        return ["file", str(path)]

    @staticmethod
    def verdicts(capsys, source, specs):
        reports = []
        for spec in specs:
            code, payload = run_json(capsys, "verdict", *source, "--vs", spec)
            reports.append((code, payload["homology"], payload["verdict"], payload["wedge"]))
        return reports

    @pytest.mark.parametrize("source", SOURCES)
    def test_wedge_facts_are_not_read(self, capsys, monkeypatch, tmp_path, source):
        tokens = self.tokens(source, tmp_path)
        # The second candidate agrees with the bottom read (its lowest
        # generators' classes), so the full ranks are compared field by field.
        _, ideal = run_json(capsys, "ideal", *tokens)
        histogram = ideal["ideal"]["degree_histogram"]
        degree = min(map(int, histogram))
        specs = ["S3xS3", f"{histogram[str(degree)]}*S{degree - 1}xS{degree}"]
        plain = self.verdicts(capsys, tokens, specs)
        difference = plain[1][1]["difference"]
        assert difference is None or difference["degree"] >= degree
        for cached in (cli._face_ring, cli._relation, cli._spectrum, cli._candidate):
            cached.cache_clear()
        monkeypatch.setattr(cli, "_wedge_block", lambda F: {
            "spectrum": {"3": 1}, "ceiling": 1, "q_max": 1, "pi2_rank": F.m})
        patched = self.verdicts(capsys, tokens, specs)
        for before, after in zip(plain, patched):
            assert after[:3] == before[:3], source
            assert after[3] == {"spectrum": {"3": 1}, "ceiling": 1, "q_max": 1,
                                "pi2_rank": before[3]["pi2_rank"]}

    @pytest.mark.parametrize("source", SOURCES)
    def test_verdict_wedge_block_is_the_wedge_report(self, capsys, tmp_path, source):
        tokens = self.tokens(source, tmp_path)
        code, report = run_json(capsys, "wedge", *tokens)
        wedge = report["wedge"]
        assert code == 0 and wedge.pop("notes") == []
        code, verdict = run_json(capsys, "verdict", *tokens, "--vs", "S3xS3")
        assert code in (0, 2) and verdict["wedge"] == wedge


class TestVerdictWithoutWedgeModel:
    """A ring with no wedge model, one generator or a relation scan above
    the subset limit, still gets a verdict, with a null `wedge` block that
    the text view does not print; `wedge` and `syzmin` still refuse it."""

    NO_RELATIONS = "error: no relations: the ideal needs at least two generators\n"

    @pytest.mark.parametrize("source, spec, degree", [
        (["cyclic", "5", "4"], "S4xS5", 4),
        (["polygon", "3"], "S2xS3", 2),
    ])
    def test_one_generator(self, capsys, source, spec, degree):
        code, payload = run_json(capsys, "verdict", *source, "--vs", spec)
        assert (code, payload["wedge"], payload["verdict"]) == (0, None, "NOT_EQUIVALENT")
        assert payload["homology"]["difference"] == {
            "field": "GF(2)", "degree": degree, "zk_rank": 0, "manifold_rank": 1}
        code, out, err = run_cli(capsys, "verdict", *source, "--vs", spec)
        assert (code, err) == (0, "") and "wedge" not in out
        for command in ("wedge", "syzmin"):
            assert run_cli(capsys, command, *source) == (1, "", self.NO_RELATIONS)

    def test_refused_relation_scan(self, capsys, tmp_path):
        # The 3,721 lines y = ax + b (mod 61) on the columns x = 0..4 of a
        # 5 x 61 grid: 6,921,060 pairs at the first bound.
        path = tmp_path / "lines61.txt"
        path.write_text("vertices 305\nnonfaces\n" + "".join(
            " ".join(str(x * 61 + (a * x + b) % 61 + 1) for x in range(5)) + "\n"
            for a in range(61) for b in range(61)))
        start = time.perf_counter()
        code, payload = run_json(capsys, "verdict", "file", str(path), "--vs", "S5xS7")
        assert time.perf_counter() - start < 1.0
        assert (code, payload["wedge"], payload["homology"]["difference"]["degree"]) == (0, None, 5)
        refusal = ("error: the relation scan at 6 vertices would need 6921060 pairs, "
                   "above the limit of 1048576\n")
        for command in ("wedge", "syzmin"):
            assert run_cli(capsys, command, "file", str(path)) == (1, "", refusal)

    def test_refused_relation_scan_is_kept(self, capsys, tmp_path, monkeypatch):
        # The 49 lines y = ax + b (mod 7) on the columns x = 0..4 of a 5 x 7
        # grid: 1,176 pairs at the first bound, above a limit of 1,000.  The
        # refusal is kept with the ring, so repeated calls scan once and
        # print what the first printed.
        path = tmp_path / "lines7.txt"
        path.write_text("vertices 35\nnonfaces\n" + "".join(
            " ".join(str(x * 7 + (a * x + b) % 7 + 1) for x in range(5)) + "\n"
            for a in range(7) for b in range(7)))
        calls = []
        scan = syzygy.min_relation_degree
        monkeypatch.setattr(syzygy, "min_relation_degree", lambda F: calls.append(F) or scan(F))
        monkeypatch.setattr(gale, "SUBSET_LIMIT", 1000)
        for cached in (cli._face_ring, cli._relation):
            cached.cache_clear()
        refusal = ("error: the relation scan at 6 vertices would need 1176 pairs, "
                   "above the limit of 1000\n")
        verdict = ["verdict", "file", str(path), "--vs", "S5xS7"]
        try:
            outputs = [run_cli(capsys, *verdict, "--json") for _ in range(3)]
            assert outputs[0] == outputs[1] == outputs[2]
            code, out, err = outputs[0]
            assert (code, err, json.loads(out)["wedge"]) == (0, "", None)
            assert out.endswith('\n  "wedge": null\n}\n')
            for command in ("wedge", "syzmin", "wedge", "syzmin"):
                assert run_cli(capsys, command, "file", str(path)) == (1, "", refusal)
            assert len(calls) == 1
        finally:
            cli._relation.cache_clear()


class TestHomology:
    def test_headline_table(self, capsys):
        code, payload = run_json(capsys, "homology", "16*S5xS7 # 15*S6xS6")
        assert code == 0
        block = payload["manifold"]
        assert block["ranks"] == {"0": 1, "5": 16, "6": 30, "7": 16, "12": 1}
        assert block["poincare"] is True
        assert block["euler"] == 0

    def test_bad_spec(self, capsys):
        code, out, err = run_cli(capsys, "homology", "16*S5yS7")
        assert code == 1

    # Text starting with "-" is read as an option (`-h` would print help).
    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=30).filter(lambda t: not t.startswith("-")))
    def test_garbage_spec_is_one_error_line(self, text):
        try:
            parse_connected_sum(text)
        except ValueError:
            pass
        else:
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["homology", text])
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_huge_dimension_is_fast(self, capsys):
        start = time.perf_counter()
        code, payload = run_json(capsys, "homology", "S1000000000000xS1000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        block = payload["manifold"]
        assert block["ranks"] == {"0": 1, "1000000000000": 2, "2000000000000": 1}
        assert block["poincare"] is True
        assert block["euler"] == 4


class TestVerdict:
    # The naive per-subset elimination of tests/oracles.py gives Z_K's ranks
    # for C(8,4) over each field: {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}.
    def test_not_equivalent(self, capsys):
        for p in hochster.FIELDS:
            assert zk_ranks_naive(8, CYCLIC_8_4_MINIMAL_NONFACES, p)[6] == 30
        code, payload = run_json(capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7")
        assert code == 0
        assert payload["verdict"] == "NOT_EQUIVALENT"
        assert payload["homology"] == {
            "fields": ["GF(2)"],
            "difference": {"field": "GF(2)", "degree": 6, "zk_rank": 30, "manifold_rank": 0},
            "q": None,
        }

    def test_bottom_read_difference(self, capsys):
        # Degree 3 lies below 2*3 - 1 = 5, where Z_K of C(8,4) has rank 0.
        code, payload = run_json(capsys, "verdict", "cyclic", "8", "4", "--vs", "5*S3xS4")
        assert code == 0
        assert payload["homology"]["difference"] == {
            "field": "GF(2)", "degree": 3, "zk_rank": 0, "manifold_rank": 5,
        }

    def test_single_degree_agreement_is_inconclusive(self, capsys):
        for q in (4, 6):
            code, payload = run_json(
                capsys, "verdict", "cyclic", "8", "4",
                "--vs", "16*S5xS7 # 15*S6xS6", "--q", str(q),
            )
            assert code == 2
            assert payload["verdict"] == "INCONCLUSIVE"
            assert payload["homology"] == {"fields": ALL_FIELDS, "difference": None, "q": q}

    # `--q Q` against the full comparison: polygons 4..8 and C(n, d) with
    # n <= 8 and d <= n - 2, then RP^2, whose GF(2) ranks hold one more class
    # in degrees 8 and 9 than the other fields'.  S2xS8 meets GF(2)'s rank in
    # degree 8, so GF(10007) is the first field to differ there.
    Q_SOURCES = ([f"polygon {m}" for m in range(4, 9)]
                 + [f"cyclic {n} {d}" for n in range(4, 9) for d in range(2, n - 1)]
                 + ["rp2"])
    Q_SPECS = ["5*S3xS4", "16*S5xS7 # 15*S6xS6", "16*S5xS7 # 14*S6xS6 # S6xS6", "S2xS8"]

    @pytest.mark.parametrize("source", Q_SOURCES)
    def test_any_degree_matches_the_full_ranks(self, tmp_path, source):
        if source == "rp2":
            path = tmp_path / "rp2.txt"
            path.write_text("vertices 6\nfacets\n" + "".join(
                " ".join(map(str, f)) + "\n" for f in RP2_FACETS))
            tokens = ["file", str(path)]
        else:
            tokens = source.split()
        F = cli._resolve_source(tokens)[0]
        # Each field's ranks once, by the naive per-subset elimination.
        ranks = {name: zk_ranks_naive(F.m, F.generators, p)
                 for name, p in zip(ALL_FIELDS, hochster.FIELDS)}
        for spec in self.Q_SPECS:
            candidate = dict(cli._candidate(spec).ranks)
            top = max(*candidate, *(k for zk in ranks.values() for k in zk))
            for q in range(top + 2):
                homology = cli.build_verdict_report(tokens, spec, q)["homology"]
                differ = [name for name in ALL_FIELDS
                          if ranks[name].get(q, 0) != candidate.get(q, 0)]
                if differ:
                    first = differ[0]
                    assert homology == {
                        "fields": ALL_FIELDS[: ALL_FIELDS.index(first) + 1],
                        "difference": {"field": first, "degree": q,
                                       "zk_rank": ranks[first].get(q, 0),
                                       "manifold_rank": candidate.get(q, 0)},
                        "q": q,
                    }, (spec, q)
                else:
                    assert homology == {"fields": ALL_FIELDS, "difference": None,
                                        "q": q}, (spec, q)

    def test_degree_above_the_bottom_read(self, capsys):
        # The hexagon's bottom read stops at degree 3; degree 5 comes from the
        # full ranks, where Z_K has 9 classes and 5*S3xS4 none.
        code, out, err = run_cli(
            capsys, "verdict", "polygon", "6", "--vs", "5*S3xS4", "--q", "5", "--quiet",
        )
        assert (code, err) == (0, "")
        assert out == ("verdict: NOT_EQUIVALENT (homology ranks differ over GF(2) "
                       "in degree 5: Z_K 9, candidate 0)\n")

    def test_negative_degree_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "verdict", "polygon", "5", "--vs", "5*S3xS4", "--q", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "error: q=-1 is not a degree: homology starts in degree 0\n"

    def test_agreeing_candidate_is_inconclusive(self, capsys):
        # Finding 1 of ROADMAP.md: Z_K of C(8,4) and 16*S5xS7 # 15*S6xS6 are
        # rationally equivalent; their ranks agree over every field.
        for p in hochster.FIELDS:
            assert zk_ranks_naive(8, CYCLIC_8_4_MINIMAL_NONFACES, p) == {
                0: 1, 5: 16, 6: 30, 7: 16, 12: 1,
            }
        code, payload = run_json(
            capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6"
        )
        assert code == 2
        assert payload["verdict"] == "INCONCLUSIVE"
        assert payload["homology"] == {"fields": ALL_FIELDS, "difference": None, "q": None}

    @pytest.mark.parametrize("m", range(4, 13))
    def test_mcgavran_sums_are_inconclusive(self, capsys, m):
        # McGavran: Z_K of the m-gon is the connected sum over 3 <= k <= m-1
        # of (k-2) C(m-2, k-1) copies of S^k x S^(m+2-k).
        spec = " # ".join(
            f"{(k - 2) * math.comb(m - 2, k - 1)}*S{k}xS{m + 2 - k}" for k in range(3, m)
        )
        code, payload = run_json(capsys, "verdict", "polygon", str(m), "--vs", spec)
        assert (code, payload["verdict"]) == (2, "INCONCLUSIVE"), spec

    @pytest.mark.parametrize("spec", [
        "10*S5xS4",  # the bottom read agrees, GF(2) differs in degree 6
        "10*S5xS6 # 5*S6xS5",
        "S3xS3",
    ])
    def test_torsion_is_not_equivalent(self, capsys, tmp_path, spec):
        # H_1(RP^2; Z) = Z/2: over GF(2), Z_K has one more class in degrees
        # 8 and 9 than over GF(10007), and no torsion-free candidate has both.
        path = tmp_path / "rp2.txt"
        path.write_text("vertices 6\nfacets\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in RP2_FACETS))
        code, payload = run_json(capsys, "verdict", "file", str(path), "--vs", spec)
        assert (code, payload["verdict"]) == (0, "NOT_EQUIVALENT")

    def test_swapped_summands_identical_report(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "--json", "verdict", "cyclic", "8", "4",
            "--vs", "16*S5xS7 # 15*S6xS6",
        )
        _, out_b, _ = run_cli(
            capsys, "--json", "verdict", "cyclic", "8", "4",
            "--vs", "15 * S6xS6 # 16*S5xS7",
        )
        assert out_a == out_b

    def test_exit_code_matches_verdict_field(self, capsys):
        code, payload = run_json(
            capsys, "verdict", "polygon", "5", "--vs", "5*S3xS4"
        )
        assert (code == 0) == (payload["verdict"] == "NOT_EQUIVALENT")
        assert (code == 2) == (payload["verdict"] == "INCONCLUSIVE")


class TestCounterexample:
    # Finding 1 of ROADMAP.md: the headline pair is rationally equivalent, and
    # the naive Hochster ranks of C(8,4) equal the candidate's over each field.
    def test_json_schema_and_values(self, capsys):
        code, payload = run_json(capsys, "counterexample")
        assert code == 2
        assert set(payload) == {
            "input", "ideal", "wedge", "manifold", "homology", "notes", "verdict",
        }
        ranks = {"0": 1, "5": 16, "6": 30, "7": 16, "12": 1}
        assert payload["manifold"]["ranks"] == ranks
        for p in hochster.FIELDS:
            naive = zk_ranks_naive(8, CYCLIC_8_4_MINIMAL_NONFACES, p)
            assert {str(k): v for k, v in naive.items()} == ranks
        assert payload["homology"] == {"fields": ALL_FIELDS, "difference": None, "q": None}
        assert payload["verdict"] == "INCONCLUSIVE"

    def test_text_output_mentions_all_artifacts(self, capsys):
        code, out, err = run_cli(capsys, "counterexample")
        assert code == 2
        assert "v1*v3*v5" in out
        assert "manifold homology ranks: 0:1  5:16  6:30  7:16  12:1" in out
        assert "Euler characteristic: 0" in out
        assert "note: Z_K and the candidate have the same homology over every field" in out
        assert "verdict: INCONCLUSIVE" in out

    def test_quiet_prints_only_verdict(self, capsys):
        code, out, err = run_cli(capsys, "--quiet", "counterexample")
        assert code == 2
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("verdict: INCONCLUSIVE")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


class TestCanonicalJson:
    """Every subcommand's `--json` stdout is the canonical serialisation of
    what it parses to."""

    MANIFOLD = "16*S5xS7 # 15*S6xS6"

    @pytest.mark.parametrize("argv", [
        pytest.param(["faces", "6", "3"], id="faces"),
        pytest.param(["faces", "8", "4", "--count"], id="faces-count"),
        pytest.param(["ideal", "file", "{pentagon}"], id="ideal-file"),
        pytest.param(["syzmin", "cyclic", "8", "4"], id="syzmin"),
        pytest.param(["wedge", "cyclic", "8", "4", "--ceiling", "13"], id="wedge-note"),
        pytest.param(["homology", MANIFOLD], id="homology"),
        pytest.param(["verdict", "cyclic", "8", "4", "--vs", MANIFOLD], id="verdict"),
        pytest.param(
            ["verdict", "cyclic", "8", "4", "--vs", MANIFOLD, "--q", "4"], id="verdict-q"
        ),
        pytest.param(["counterexample"], id="counterexample"),
    ])
    def test_stdout_is_canonical(self, capsys, tmp_path, argv):
        # A non-ASCII file name puts an escaped string into the report.
        pentagon = tmp_path / "pentagon-\u00e9.txt"
        pentagon.write_text(
            "vertices 5\nnonfaces\n"
            + "\n".join(" ".join(map(str, nf)) for nf in PENTAGON_MINIMAL_NONFACES)
        )
        argv = [arg.format(pentagon=pentagon) for arg in argv]
        code, out, err = run_cli(capsys, "--json", *argv)
        assert code in (0, 2) and err == ""
        assert out == canonical(json.loads(out)) + "\n"
        assert out.isascii()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.text(),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)

# Tuples of int tuples, as a face ring's generators are, drawn explicitly:
# `json_values` reaches them rarely.  Empty tuples and empty rows are drawn
# too; they take the general path.
int_rows = st.lists(
    st.lists(st.integers(min_value=-3, max_value=40) | st.integers(), max_size=6).map(tuple),
    max_size=8,
).map(tuple)


class TestJsonWriter:
    """`cli._json` prints what `json.dumps(value, sort_keys=True, indent=2)`
    prints, and refuses what an integer-only report may not hold."""

    @settings(max_examples=400, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._json(value) == canonical(value)

    @pytest.mark.parametrize("value", [
        [1, True, 0, False],
        [True],
        (0, -1, 2**70),
        {"a": [], "b": {}},
        [[], [[]]],
        {"\u00e9": 1, "a": 2, "B": 3},
        "quote \" backslash \\ newline \n control \x01 accent \u00e9 snowman \u2603",
        {"k": [None, "x", {"n": -5}]},
        None,
        # Generator rows, at the top, in a list and in a dict, so at three
        # indents; the same rows at two indents in one report.
        ((1, 2),),
        [((1, 3, 5), (2, 4))],
        {"a": ((1, 3, 5), (2, 4)), "b": [((1, 3, 5), (2, 4))], "c": ((-1, 2**70),)},
        # Near rows, which take the general path.
        ((True, 2),),
        ((),),
        ((1,), ()),
        ((1,), [2]),
        [(1, 2), (3,)],
    ])
    def test_fixed_cases(self, value):
        assert cli._json(value) == canonical(value)

    @settings(max_examples=200, deadline=None)
    @given(int_rows)
    def test_rows_match_json_dumps(self, rows):
        for value in (rows, {"generators": rows}, [0, rows]):
            assert cli._json(value) == canonical(value)

    def test_rows_are_typed_before_the_cache(self):
        # The three keys are equal and equally hashed, so only a type check
        # before `_rows`' cache keeps the first one's text from the others.
        cli._rows.cache_clear()
        assert ((1, 2),) == ((True, 2),) == ((1.0, 2),)
        assert cli._json(((1, 2),)) == canonical(((1, 2),))
        assert cli._json(((True, 2),)) == canonical(((True, 2),))
        assert "true" in cli._json(((True, 2),))
        with pytest.raises(TypeError):
            cli._json(((1.0, 2),))
        assert cli._rows.cache_info().currsize == 1

    def test_repeated_rows_are_rendered_once(self):
        cli._rows.cache_clear()
        report = cli.cmd_ideal(["cyclic", "9", "4"])
        assert cli._json(report) == cli._json(cli.cmd_ideal(["cyclic", "9", "4"]))
        assert cli._rows.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("value", [
        1.5,
        {1: 2},
        [1, 2.0],
        {"a": {"b": float("nan")}},
        [enum.IntEnum("Small", "ONE").ONE],
        {"a": 1, None: 2},
        {True: 1},
        {1, 2},
        ((1.0, 2),),
        ((1, enum.IntEnum("Small", "ONE").ONE),),
    ])
    def test_non_report_values_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


class TestModuleInvocation:
    def test_help_lists_every_command_and_option(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv, names in [
            (["--help"], [*cli.COMMANDS, "--json", "--quiet"]),
            (["verdict", "-h"], ["source", "--vs SPEC", "--q Q", "--json", "--quiet"]),
            (["faces", "--help"], ["n", "d", "--max-card K", "--count"]),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "momentangle", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0 and proc.stderr == "", argv
            assert proc.stdout.startswith("usage: momentangle "), argv
            for name in names:  # one row each: the name, then its help
                assert f"\n  {name} " in proc.stdout, (argv, name)

    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "momentangle", "--json", "counterexample"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "INCONCLUSIVE"

    def test_unknown_command_exits_one(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "momentangle", "frobnicate"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1


CHOICES = "'faces', 'ideal', 'syzmin', 'wedge', 'homology', 'verdict', 'counterexample'"
HEADLINE = "16*S5xS7 # 15*S6xS6"


class TestArgumentGrammar:
    """The command table's parser reads argv as argparse read it.  Each
    error line below is argparse's, recorded under Python 3.11 from the
    argparse parser this one replaced, except the last three: argparse
    expanded an abbreviated option name, and this parser refuses it.  Each
    accepted form prints what its plain form prints."""

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["--json"], "the following arguments are required: command"),
        (["frobnicate"], f"argument command: invalid choice: 'frobnicate' (choose from {CHOICES})"),
        (["ideal"], "the following arguments are required: source"),
        (["faces"], "the following arguments are required: n, d"),
        (["faces", "8"], "the following arguments are required: d"),
        (["faces", "x", "3"], "argument n: invalid int value: 'x'"),
        (["faces", "8", "4", "--max-card", "x"], "argument --max-card: invalid int value: 'x'"),
        (["verdict"], "the following arguments are required: source, --vs"),
        (["verdict", "polygon", "5"], "the following arguments are required: --vs"),
        (["verdict", "cyclic", "8", "4", "--vs"], "argument --vs: expected one argument"),
        (["verdict", "polygon", "5", "--vs", "--json"], "argument --vs: expected one argument"),
        (["verdict", "polygon", "5", "--vs", "-1*S3xS3"], "argument --vs: expected one argument"),
        (["verdict", "polygon", "5", "--vs", "5*S3xS4", "--q", "--json"],
         "argument --q: expected one argument"),
        (["verdict", "cyclic", "8", "4", "--vs", "S3xS3", "--q", "x"],
         "argument --q: invalid int value: 'x'"),
        (["homology", "a", "b"], "unrecognized arguments: b"),
        (["homology", "a", "--bogus", "b"], "unrecognized arguments: --bogus b"),
        (["homology", "a", "b", "--bogus"], "unrecognized arguments: b --bogus"),
        (["homology", "-1*S3xS3"], "the following arguments are required: spec"),
        (["ideal", "cyclic", "8", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus", "ideal", "polygon", "5"], "unrecognized arguments: --bogus"),
        (["counterexample", "x"], "unrecognized arguments: x"),
        (["--q", "x"], f"argument command: invalid choice: 'x' (choose from {CHOICES})"),
        (["--vs", "X", "verdict"], f"argument command: invalid choice: 'X' (choose from {CHOICES})"),
        (["--json=1", "ideal", "polygon", "5"], "argument --json: ignored explicit argument '1'"),
        # Values the parser accepts and the program refuses.
        (["faces", "-1", "3"], "C(n,3) needs n >= 4 vertices, got n=-1"),
        (["wedge", "polygon", "4", "--ceiling", "-1"], "the ceiling must be nonnegative, got -1"),
        (["homology", "-1 x"], "bad summand '-1x': expected k*S<m>xS<n>, e.g. 16*S5xS7"),
        (["homology", "-"], "bad summand '-': expected k*S<m>xS<n>, e.g. 16*S5xS7"),
        (["verdict", "--vs=", "polygon", "5"], "empty connected-sum description"),
        # Option names are never abbreviated (argparse took --v for --vs).
        (["verdict", "polygon", "5", "--v", "5*S3xS4"], "the following arguments are required: --vs"),
        (["wedge", "polygon", "4", "--ceil", "9"], "unrecognized arguments: --ceil"),
        (["ideal", "cyclic", "8", "4", "--q"], "unrecognized arguments: --q"),
    ])
    def test_error_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, plain, code", [
        (["verdict", "polygon", "5", "--vs=5*S3xS4"],
         ["verdict", "polygon", "5", "--vs", "5*S3xS4"], 2),
        (["verdict", "cyclic", "8", "4", "--vs", HEADLINE, "--q=4"],
         ["verdict", "cyclic", "8", "4", "--vs", HEADLINE, "--q", "4"], 2),
        (["verdict", "cyclic", "8", "4", "--vs", HEADLINE, "--q", "-0"],
         ["verdict", "cyclic", "8", "4", "--vs", HEADLINE, "--q", "0"], 2),
        (["verdict", "--vs", "5*S3xS4", "polygon", "5"],
         ["verdict", "polygon", "5", "--vs", "5*S3xS4"], 2),
        (["ideal", "--", "cyclic", "8", "4"], ["ideal", "cyclic", "8", "4"], 0),
        (["verdict", "polygon", "5", "--vs", "S3xS3", "--vs", "5*S3xS4"],
         ["verdict", "polygon", "5", "--vs", "5*S3xS4"], 2),
        (["--json", "ideal", "polygon", "5"], ["ideal", "polygon", "5", "--json"], 0),
        (["faces", "8", "--count", "4"], ["faces", "8", "4", "--count"], 0),
        (["--quiet", "faces", "6", "3"], ["faces", "6", "3", "--quiet"], 0),
    ])
    def test_accepted_form(self, capsys, argv, plain, code):
        got = run_cli(capsys, *argv)
        assert got == run_cli(capsys, *plain)
        assert got[0] == code and got[1] and got[2] == ""


class TestClosedFormByRing:
    """A source takes the even-d closed form when its face ring is that of a
    cyclic polytope of even dimension, whatever kind of source it is."""

    @staticmethod
    def write(path, kind, subsets, m):
        path.write_text(f"vertices {m}\n{kind}\n" + "".join(
            " ".join(map(str, s)) + "\n" for s in subsets))
        return str(path)

    def test_closed_form_is_read_off_the_ring(self, tmp_path):
        twin = complexes.even_cyclic_twin
        edges = [(i, i % 30 + 1) for i in range(1, 31)]
        assert twin(complexes.from_facets(30, edges)) == CyclicParams(30, 2)
        assert twin(complexes.from_cyclic(CyclicParams(7, 6))) == CyclicParams(7, 6)
        assert twin(complexes.from_cyclic(CyclicParams(9, 4))) == CyclicParams(9, 4)
        for odd in (CyclicParams(9, 5), CyclicParams(6, 5), CyclicParams(7, 3)):
            assert twin(complexes.from_cyclic(odd)) is None
        # The pentagon 1-3-5-2-4: five generators of size 2, as C(5,2) has.
        relabelled = complexes.from_facets(5, [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)])
        assert relabelled.histogram == ((4, 5),)
        assert twin(relabelled) is None

    def test_file_sources_match_their_cyclic_twins(self, capsys, tmp_path, monkeypatch):
        general = []
        zk_ranks = hochster.zk_ranks
        monkeypatch.setattr(hochster, "zk_ranks", lambda F, p: general.append(p) or zk_ranks(F, p))
        gon30 = self.write(tmp_path / "gon30.txt", "facets",
                           [(i, i % 30 + 1) for i in range(1, 31)], 30)
        c84 = self.write(tmp_path / "c84.txt", "nonfaces", CYCLIC_8_4_MINIMAL_NONFACES, 8)
        for source, twin, tail in [
            (["file", gon30], ["polygon", "30"], ["--vs", "2*S3xS3", "--q", "4"]),
            (["file", c84], ["cyclic", "8", "4"], ["--vs", HEADLINE]),
            (["file", c84], ["cyclic", "8", "4"], ["--vs", "16*S5xS7"]),
        ]:
            code, payload = run_json(capsys, "verdict", *source, *tail)
            twin_code, twin_payload = run_json(capsys, "verdict", *twin, *tail)
            assert (code, payload["homology"]) == (twin_code, twin_payload["homology"]), source
        assert general == []

    def test_gon30_file_difference(self, capsys, tmp_path):
        gon30 = self.write(tmp_path / "gon30.txt", "facets",
                           [(i, i % 30 + 1) for i in range(1, 31)], 30)
        code, payload = run_json(capsys, "verdict", "file", gon30, "--vs", "2*S3xS3", "--q", "4")
        assert (code, payload["homology"]) == (0, {
            "fields": ["GF(2)"],
            "difference": {"field": "GF(2)", "degree": 4, "zk_rank": 7280, "manifold_rank": 0},
            "q": 4,
        })

    def test_c20_10_nonfaces_file_takes_the_closed_form(self, capsys, tmp_path):
        # The 4,290 minimal non-faces of C(20,10), the 6-subsets of 1..20
        # with no two cyclically consecutive vertices, pass the guards of a
        # nonfaces file, and the closed form is read off them, while
        # from_cyclic refuses C(20,10) itself by its closure guard (3,460
        # facets of 2**10 subsets).
        nonfaces = [c for c in combinations(range(1, 21), 6)
                    if all((b - a) % 20 not in (1, 19) for a, b in combinations(c, 2))]
        assert len(nonfaces) == 4290
        path = self.write(tmp_path / "c20_10.txt", "nonfaces", nonfaces, 20)
        code, payload = run_json(capsys, "verdict", "file", path, "--vs", "4290*S11xS19")
        # The bottom read agrees (4,290 classes in degree 11); degree 12 differs.
        zk_rank = hochster.cyclic_ranks(CyclicParams(20, 10))[12]
        assert (code, payload["homology"]) == (0, {
            "fields": ["GF(2)"],
            "difference": {"field": "GF(2)", "degree": 12, "zk_rank": zk_rank, "manifold_rank": 0},
            "q": None,
        })
        code, out, err = run_cli(capsys, "ideal", "cyclic", "20", "10")
        assert (code, out) == (1, "")
        assert err.startswith("error: the downward closure of the facet list would need ")

    def test_file_verdicts_build_no_cyclic_ring(self, capsys, tmp_path, monkeypatch):
        calls = []
        from_cyclic = complexes.from_cyclic
        monkeypatch.setattr(complexes, "from_cyclic", lambda p: calls.append(p) or from_cyclic(p))
        cli._face_ring.cache_clear()
        gon30 = self.write(tmp_path / "gon30.txt", "facets",
                           [(i, i % 30 + 1) for i in range(1, 31)], 30)
        c84 = self.write(tmp_path / "c84.txt", "nonfaces", CYCLIC_8_4_MINIMAL_NONFACES, 8)
        for argv in (["file", gon30, "--vs", "2*S3xS3", "--q", "4"],
                     ["file", c84, "--vs", HEADLINE], ["file", c84, "--vs", "16*S5xS7"]):
            code, out, err = run_cli(capsys, "verdict", *argv)
            assert code in (0, 2) and err == "", argv
        assert calls == []

    def test_c73_4_facets_file_takes_the_closed_form(self, capsys, tmp_path):
        # The 2,555 facets of C(73,4): pairs of disjoint cyclic edges.  Its
        # twin is admitted by its 57,086 generators, so the file takes the
        # closed form and answers as `cyclic 73 4` does.
        pairs = [{i, i % 73 + 1} for i in range(1, 74)]
        facets = sorted({tuple(sorted(a | b)) for a, b in combinations(pairs, 2) if not a & b})
        path = self.write(tmp_path / "c73_4.txt", "facets", facets, 73)
        code, payload = run_json(capsys, "verdict", "file", path, "--vs", "S5xS7", "--q", "6")
        assert (code, payload["homology"]) == (0, {
            "fields": ["GF(2)"],
            "difference": {"field": "GF(2)", "degree": 6, "zk_rank": 2910145, "manifold_rank": 0},
            "q": 6,
        })
        code, payload = run_json(capsys, "verdict", "cyclic", "73", "4", "--vs", "S5xS7")
        assert (code, payload["homology"]["difference"]) == (
            0, {"field": "GF(2)", "degree": 5, "zk_rank": 57086, "manifold_rank": 1})

    def test_twin_is_decided_once_per_call(self, capsys, monkeypatch):
        # Each INCONCLUSIVE verdict compares all three fields, but tests the
        # ring for a twin once; nothing is kept for the next call.
        calls = []
        twin = complexes.even_cyclic_twin
        monkeypatch.setattr(complexes, "even_cyclic_twin", lambda F: calls.append(F) or twin(F))
        for spec in (HEADLINE, "15*S6xS6 # 16*S5xS7"):
            code, out, err = run_cli(capsys, "verdict", "cyclic", "8", "4", "--vs", spec)
            assert (code, err) == (2, ""), spec
        assert calls == [complexes.from_cyclic(CyclicParams(8, 4))] * 2

    def test_relabelled_pentagon_takes_the_general_route(self, capsys, tmp_path, monkeypatch):
        general = []
        zk_ranks = hochster.zk_ranks
        monkeypatch.setattr(hochster, "zk_ranks", lambda F, p: general.append(p) or zk_ranks(F, p))
        path = self.write(tmp_path / "pentagon.txt", "facets",
                          [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)], 5)
        # McGavran: Z_K of the pentagon is 5*S3xS4, ranks {0: 1, 3: 5, 4: 5, 7: 1}.
        code, payload = run_json(capsys, "verdict", "file", path, "--vs", "5*S3xS4")
        assert (code, payload["homology"]) == (2, {"fields": ALL_FIELDS, "difference": None, "q": None})
        assert general == list(hochster.FIELDS)


# Modules that `import momentangle.cli` must not load: each adds to the
# start-up of every command-line call.
HEAVY_MODULES = ("re", "dataclasses", "inspect", "argparse", "gettext", "locale", "json",
                 "enum", "typing", "collections", "functools", "types", "reprlib", "keyword",
                 "__future__", "operator")


class TestImportGraph:
    def test_cli_calls_load_no_heavy_module(self, tmp_path):
        pentagon = tmp_path / "pentagon.txt"
        pentagon.write_text("vertices 5\nfacets\n1 3\n3 5\n5 2\n2 4\n4 1\n")
        calls = [
            ["faces", "6", "3", "--count"],
            ["ideal", "polygon", "5"],
            ["syzmin", "cyclic", "8", "4", "--json"],
            ["wedge", "cyclic", "8", "4", "--ceiling", "9"],
            ["homology", HEADLINE, "--json"],
            ["verdict", "file", str(pentagon), "--vs", "5*S3xS4", "--json"],
            ["--quiet", "counterexample"],
            ["--help"],
        ]
        script = (
            "import sys\n"
            "import momentangle.__main__\n"
            "from momentangle import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            f"print(codes, sorted(set({HEAVY_MODULES!r}) & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-s", "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stderr == "[0, 0, 0, 0, 0, 2, 2, 0] []\n"


class TestSourceCache:
    """`cli._source_cache` keeps a function as
    `functools.lru_cache(maxsize=SOURCE_CACHE_SIZE)` keeps it."""

    CACHED = (cli._face_ring, cli._relation, cli._spectrum, cli._candidate, cli._rows)

    def test_is_lru_caches_own_type_and_sized(self):
        for cached in self.CACHED:
            assert type(cached) is type(functools.lru_cache(maxsize=1)(len))
            info = cached.cache_info()
            assert info._fields == ("hits", "misses", "maxsize", "currsize")
            assert (info.hits, info.misses, info.maxsize, info.currsize) == info
            assert info.maxsize == cli.SOURCE_CACHE_SIZE

    def test_no_other_function_is_cached(self):
        kind = type(functools.lru_cache(maxsize=1)(len))
        assert {v for v in vars(cli).values() if type(v) is kind} == set(self.CACHED)

    def test_evicts_the_oldest_key_as_lru_cache_does(self):
        size = cli.SOURCE_CACHE_SIZE
        calls, infos = [], []

        def square(x):
            calls.append(x)
            return x * x

        for cached in (cli._source_cache(square), functools.lru_cache(maxsize=size)(square)):
            calls.clear()
            # The 65th distinct key evicts 0, the oldest; 1, read again, is kept.
            for x in [*range(size + 1), 1, 0]:
                assert cached(x) == x * x
            assert calls == [*range(size + 1), 0]
            infos.append(tuple(cached.cache_info()))
        assert infos[0] == infos[1] == (1, size + 2, size, size)

    def test_a_raised_build_is_not_kept(self):
        attempts = []

        def build(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise ValueError("the first build fails")
            return key

        cached = cli._source_cache(build)
        with pytest.raises(ValueError):
            cached("x")
        assert cached("x") == cached("x") == "x"
        assert attempts == ["x", "x"]
        assert tuple(cached.cache_info()) == (1, 2, cli.SOURCE_CACHE_SIZE, 1)
        cli._face_ring.cache_clear()
        with pytest.raises(ValueError):
            cli._face_ring(CyclicParams(1001, 1000))
        assert cli._face_ring.cache_info().currsize == 0

    def test_clear_and_wrapper_attributes(self):
        def square(x: int) -> int:
            """The square of x."""
            return x * x

        cached = cli._source_cache(square)
        assert cached.__wrapped__ is square
        assert (cached.__doc__, cached.__name__, cached.__qualname__, cached.__module__) == (
            square.__doc__, square.__name__, square.__qualname__, square.__module__)
        assert cached.__annotations__ == square.__annotations__
        assert cached(3) == cached(3) == 9
        cached.cache_clear()
        assert tuple(cached.cache_info()) == (0, 0, cli.SOURCE_CACHE_SIZE, 0)
        assert cli._candidate.__wrapped__.__doc__ == cli._candidate.__doc__


class TestInProcessCalls:
    """Calls in one process share the command table and caches of face
    rings, their relation and wedge facts, and parsed candidates; each call
    must print exactly what a fresh interpreter prints."""

    SEQUENCE = [
        ["ideal", "polygon", "5"],
        ["verdict", "polygon", "5", "--vs", "5*S3xS4"],
        ["--json", "verdict", "polygon", "5", "--vs", "5*S3xS4"],
        ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6", "--q", "6"],
        ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6", "--quiet"],
        ["syzmin", "cyclic", "8", "4", "--json"],
        ["wedge", "cyclic", "8", "4", "--ceiling", "9"],
        ["ideal", "cyclic", "8", "3", "--json"],
        ["ideal", "polygon", "2"],
        ["ideal", "polygon", "2"],
        ["ideal", "polygon", "3"],
        ["ideal", "cyclic", "8", "4", "--bogus"],
        ["verdict", "--help"],
        ["--quiet", "counterexample"],
        ["ideal", "polygon", "5", "--quiet"],
        ["homology", "16*S5xS7 # 15*S6xS6", "--json"],
        ["verdict", "polygon", "6", "--vs", "16*S5xS7 # 15*S6xS6"],
        ["verdict", "file", "{dir}/pentagon.txt", "--vs", "5*S3xS4", "--json"],
        ["verdict", "file", "{dir}/pentagon.txt", "--vs", "5*S3xS4", "--json"],
        ["verdict", "cyclic", "8", "4", "--vs", "S7xS5", "--json"],
        ["verdict", "cyclic", "8", "4", "--vs", "1*S5xS7", "--json"],
        ["homology", "S7xS5"],
        ["homology", "1*S5xS7"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sequence_matches_fresh_interpreters(self, capsys, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        (tmp_path / "pentagon.txt").write_text(
            "vertices 5\nnonfaces\n1 3\n1 4\n2 4\n2 5\n3 5\n"
        )
        for template in self.SEQUENCE:
            argv = [token.replace("{dir}", str(tmp_path)) for token in template]
            proc = subprocess.run(
                [sys.executable, "-m", "momentangle", *argv],
                capture_output=True, text=True, env=env,
            )
            fresh = (proc.returncode, proc.stdout, proc.stderr)
            assert self.call(capsys, argv) == fresh, argv

    def test_edited_file_is_reread(self, capsys, tmp_path):
        path = tmp_path / "complex.txt"
        path.write_text("vertices 5\nnonfaces\n1 3\n1 4\n2 4\n2 5\n3 5\n")
        code, payload = run_json(capsys, "ideal", "file", str(path))
        assert code == 0 and payload["ideal"]["generators"] == [
            [1, 3], [1, 4], [2, 4], [2, 5], [3, 5]
        ]
        path.write_text("vertices 4\nnonfaces\n1 3\n2 4\n")
        code, payload = run_json(capsys, "ideal", "file", str(path))
        assert code == 0 and payload["ideal"]["generators"] == [[1, 3], [2, 4]]

    def test_missing_file_error_is_not_kept(self, capsys, tmp_path):
        path = tmp_path / "later.txt"
        code, out, err = run_cli(capsys, "ideal", "file", str(path))
        assert code == 1 and err.startswith("error: ")
        path.write_text("vertices 4\nnonfaces\n1 3\n2 4\n")
        code, payload = run_json(capsys, "ideal", "file", str(path))
        assert code == 0 and payload["ideal"]["generators"] == [[1, 3], [2, 4]]

    def test_command_table_is_built_once(self, capsys):
        # The table and the parser's view of it are built at import; calls only read them.
        table, index = cli.COMMANDS, cli._SPECS
        before = copy.deepcopy((table, index))
        for argv in (["verdict", "polygon", "5", "--vs", "5*S3xS4", "--json"],
                     ["faces", "6", "3", "--max-card", "2"], ["ideal", "--help"], ["frobnicate"]):
            run_cli(capsys, *argv)
        assert cli.COMMANDS is table and cli._SPECS is index
        assert (table, index) == before

    def test_relation_and_wedge_model_are_computed_once(self, capsys, monkeypatch):
        counts = {"min_relation_degree": 0, "wedge_spectrum": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        counting(syzygy, "min_relation_degree")
        counting(hilton, "wedge_spectrum")
        cli._relation.cache_clear()
        cli._spectrum.cache_clear()
        source = ["cyclic", "9", "4"]
        for argv in (
            ["verdict", *source, "--vs", "16*S5xS7 # 15*S6xS6"],
            ["verdict", *source, "--vs", "5*S3xS4"],
            ["syzmin", *source],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 2) and err == "", argv
        assert counts == {"min_relation_degree": 1, "wedge_spectrum": 1}

    def test_closed_form_runs_once_per_call(self, capsys, monkeypatch, tmp_path):
        calls, twins = [], []
        cyclic_ranks, twin = hochster.cyclic_ranks, complexes.even_cyclic_twin

        def counted(p):
            calls.append(p)
            return cyclic_ranks(p)

        monkeypatch.setattr(hochster, "cyclic_ranks", counted)
        monkeypatch.setattr(complexes, "even_cyclic_twin", lambda F: twins.append(F) or twin(F))
        gon30 = tmp_path / "gon30.txt"
        gon30.write_text("vertices 30\nfacets\n" + "".join(
            f"{i} {i % 30 + 1}\n" for i in range(1, 31)))
        for argv in (
            # INCONCLUSIVE: every field is compared
            ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6"],
            ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6", "--q", "7"],
            ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7"],
            ["counterexample"],
            # The 30-gon's edge file takes the closed form, as `polygon 30` does.
            ["verdict", "file", str(gon30), "--vs", "2*S3xS3", "--q", "4"],
            ["verdict", "polygon", "30", "--vs", "2*S3xS3", "--q", "4"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 2) and err == "", argv
        # Each call past the bottom read computes the closed form once, for
        # every field it compares, after one twin test.
        assert calls == [CyclicParams(8, 4)] * 4 + [CyclicParams(30, 2)] * 2
        assert twins == [complexes.from_cyclic(p) for p in calls]

    def test_polygon_and_cyclic_share_a_face_ring(self, capsys, monkeypatch):
        calls = []
        from_cyclic = complexes.from_cyclic

        def counted(p):
            calls.append(p)
            return from_cyclic(p)

        monkeypatch.setattr(complexes, "from_cyclic", counted)
        cli._face_ring.cache_clear()
        polygon = run_cli(capsys, "ideal", "polygon", "7", "--json")
        cyclic = run_cli(capsys, "ideal", "cyclic", "7", "2", "--json")
        assert polygon[0] == cyclic[0] == 0
        assert json.loads(polygon[1])["ideal"] == json.loads(cyclic[1])["ideal"]
        assert calls == [CyclicParams(7, 2)]

    def test_reports_do_not_share_mutable_values(self):
        first = cli.build_verdict_report(["polygon", "5"], "5*S3xS4")
        # The pentagon's five generators v_i*v_j give five S^3, and q_max = 6 - 2.
        assert first["wedge"]["spectrum"] == {"3": 5} and first["wedge"]["ceiling"] == 4
        expected = copy.deepcopy(first)
        first["ideal"]["degree_histogram"]["4"] = -1
        first["manifold"]["ranks"]["3"] = -1
        first["wedge"]["spectrum"]["3"] = -1
        first["homology"]["fields"].append("mutated")
        assert cli.build_verdict_report(["polygon", "5"], "5*S3xS4") == expected
        differing = cli.build_verdict_report(["cyclic", "8", "4"], "16*S5xS7")
        expected = copy.deepcopy(differing)
        differing["homology"]["difference"]["zk_rank"] = -1
        differing["homology"]["fields"].append("mutated")
        assert cli.build_verdict_report(["cyclic", "8", "4"], "16*S5xS7") == expected

    def test_error_is_repeated_not_kept(self, capsys):
        argv = ["wedge", "cyclic", "5", "4"]
        first = run_cli(capsys, *argv)
        assert first == run_cli(capsys, *argv)
        assert first == (
            1, "", "error: no relations: the ideal needs at least two generators\n"
        )


class TestReadme:
    def test_cli_examples_run(self, capsys):
        """Every `momentangle ...` line of the README's CLI block exits 0 or 2
        with output and without an error line."""
        text = (SRC.parent / "README.md").read_text()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("momentangle ")]
        assert len(lines) >= 5
        for line in lines:
            code, out, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
            assert code in (0, 2) and out and err == "", line

    def test_library_example(self):
        """The README's Library block runs and gives the values its comments
        state."""
        text = (SRC.parent / "README.md").read_text()
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        ns: dict = {}
        exec(block, ns)
        assert len(ns["F"].generators) == 16 and ns["F"].is_face({1, 3, 8})
        assert ns["F"].generators[0] == (1, 3, 5) and ns["F"].histogram == ((6, 16),)
        assert (ns["rmin"], ns["i"], ns["j"]) == (8, 0, 1)
        assert ns["wedge"].entries == {5: 16} and ns["wedge"].ceiling == 6
        assert (ns["wedge"].entries.get(6, 0), ns["g"].rank(6)) == (0, 30)
        assert ns["zk"] == ns["g"].ranks == {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}
        assert (ns["fields"], ns["difference"]) == ([2, 10007, 3], None)


class TestTextRendering:
    """The exact text of each subcommand, plain and `--quiet`; each one is a
    view of the report that `--json` prints."""

    FACES_6_3_COUNTS = (
        "cardinality 1: 6\n"
        "cardinality 2: 12\n"
        "cardinality 3: 8\n"
    )
    FACES_6_3_LISTING = (
        "1\n2\n3\n4\n5\n6\n"
        "1 2\n1 3\n1 4\n1 5\n1 6\n2 3\n2 6\n3 4\n3 6\n4 5\n4 6\n5 6\n"
        "1 2 3\n1 2 6\n1 3 4\n1 4 5\n1 5 6\n2 3 6\n3 4 6\n4 5 6\n"
    )
    WEDGE_8_4_CEILING_9 = (
        "wedge model for cyclic polytope C(8,4)\n"
        "  sphere spectrum (ceiling 9): S^5 x16, S^9 x120\n"
        "  valid window: 3 <= q <= 6; degree-2 rank: 8\n"
        "  note: entries above q_max=6 lie outside the validated window\n"
    )
    HOMOLOGY_HEADLINE = (
        "homology ranks of 16*S5xS7 # 15*S6xS6 (top dimension 12)\n"
        "  degree 0: 1\n"
        "  degree 5: 16\n"
        "  degree 6: 30\n"
        "  degree 7: 16\n"
        "  degree 12: 1\n"
        "Poincare symmetric: yes\n"
        "Euler characteristic: 0\n"
    )
    # McGavran: Z_K of the pentagon is 5*S3xS4.
    PENTAGON_VERDICT = (
        "verdict: INCONCLUSIVE (homology ranks agree over GF(2), GF(10007), GF(3); "
        "agreement does not establish equivalence)\n"
    )

    @staticmethod
    def both(capsys, *argv, code=0):
        """(plain stdout, --quiet stdout), each checked for exit `code` and no
        stderr."""
        outs = []
        for quiet in ([], ["--quiet"]):
            got, out, err = run_cli(capsys, *argv, *quiet)
            assert (got, err) == (code, ""), (argv, quiet)
            outs.append(out)
        return tuple(outs)

    def test_faces_listing(self, capsys):
        plain, quiet = self.both(capsys, "faces", "6", "3")
        header = "faces of C(6,3) with at most 3 vertices\n"
        assert plain == header + self.FACES_6_3_COUNTS + self.FACES_6_3_LISTING
        assert quiet == self.FACES_6_3_COUNTS

    def test_faces_count(self, capsys):
        plain, quiet = self.both(capsys, "faces", "6", "3", "--count")
        header = "faces of C(6,3) with at most 3 vertices\n"
        assert plain == header + self.FACES_6_3_COUNTS
        assert quiet == self.FACES_6_3_COUNTS

    def test_ideal_pentagon(self, capsys):
        plain, quiet = self.both(capsys, "ideal", "polygon", "5")
        head = "face ring of dual of the 5-gon: 5 variables, |I| = 5\n"
        assert plain == head + (
            "degree histogram: degree 4: 5\n"
            "  v1*v3  v1*v4  v2*v4  v2*v5\n"
            "  v3*v5\n"
        )
        assert quiet == head

    def test_ideal_full_simplex(self, capsys, tmp_path):
        path = tmp_path / "simplex.txt"
        path.write_text("vertices 3\nfacets\n1 2 3\n")
        plain, quiet = self.both(capsys, "ideal", "file", str(path))
        assert plain == quiet == (
            f"face ring of complex from {path}: 3 variables, |I| = 0\n"
            "  (empty ideal: the complex is a full simplex)\n"
        )

    def test_syzmin_c84(self, capsys):
        plain, quiet = self.both(capsys, "syzmin", "cyclic", "8", "4")
        head = "minimal relation degree for cyclic polytope C(8,4): 8\n"
        assert plain == head + "  witness: (v1*v3*v5) * v6 == (v1*v3*v6) * v5\n"
        assert quiet == head

    def test_wedge_c84_ceiling(self, capsys):
        plain, quiet = self.both(capsys, "wedge", "cyclic", "8", "4", "--ceiling", "9")
        assert plain == quiet == self.WEDGE_8_4_CEILING_9

    def test_homology_headline(self, capsys):
        plain, quiet = self.both(capsys, "homology", "16*S5xS7 # 15*S6xS6")
        assert plain == quiet == self.HOMOLOGY_HEADLINE

    def test_verdict_pentagon(self, capsys):
        plain, quiet = self.both(
            capsys, "verdict", "polygon", "5", "--vs", "5*S3xS4", code=2
        )
        assert plain == (
            "input complex: dual of the 5-gon\n"
            "candidate manifold: 5*S3xS4\n"
            "\n"
            "face ring: 5 variables, |I| = 5 generators\n"
            "  v1*v3  v1*v4  v2*v4  v2*v5\n"
            "  v3*v5\n"
            "\n"
            "manifold homology ranks: 0:1  3:5  4:5  7:1\n"
            "  Poincare symmetric: yes   Euler characteristic: 0\n"
            "\n"
        ) + self.PENTAGON_VERDICT
        assert quiet == self.PENTAGON_VERDICT

    def test_verdict_difference(self, capsys):
        plain, quiet = self.both(capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7")
        line = (
            "verdict: NOT_EQUIVALENT (homology ranks differ over GF(2) in degree 6: "
            "Z_K 30, candidate 0)\n"
        )
        assert plain.endswith("\n\n" + line) and quiet == line

    def test_verdict_single_degree(self, capsys):
        plain, quiet = self.both(
            capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6",
            "--q", "6", code=2,
        )
        assert quiet == (
            "verdict: INCONCLUSIVE (homology ranks agree in degree 6 over GF(2), "
            "GF(10007), GF(3); agreement does not establish equivalence)\n"
        )
