import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import cli
from momentangle.cli import main
from momentangle.gale import CyclicParams, enumerate_faces, f_vector
from momentangle.manifold import hurewicz_window, parse_connected_sum

from conftest import SRC
from oracles import CYCLIC_8_4_MINIMAL_NONFACES, PENTAGON_MINIMAL_NONFACES


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


class TestWedge:
    def test_c84(self, capsys):
        code, payload = run_json(capsys, "wedge", "cyclic", "8", "4")
        assert code == 0
        wedge = payload["wedge"]
        assert wedge["spectrum"] == {"5": 16}
        assert wedge["q_max"] == 6
        assert wedge["pi2_rank"] == 8

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

    def test_small_ceilings_give_empty_spectra(self, capsys):
        for ceiling in ("0", "1", "2"):
            code, payload = run_json(capsys, "wedge", "polygon", "4", "--ceiling", ceiling)
            assert code == 0 and payload["wedge"]["spectrum"] == {}


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
    def test_not_equivalent(self, capsys):
        code, payload = run_json(
            capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6"
        )
        assert code == 0
        assert payload["verdict"] == "NOT_EQUIVALENT"
        assert payload["comparison"]["first_difference"] == 6
        row = next(r for r in payload["comparison"]["table"] if r["q"] == 6)
        assert (row["wedge_rank"], row["manifold_rank"]) == (0, 30)

    def test_single_degree_agreement_is_inconclusive(self, capsys):
        code, payload = run_json(
            capsys, "verdict", "cyclic", "8", "4",
            "--vs", "16*S5xS7 # 15*S6xS6", "--q", "4",
        )
        assert code == 2
        assert payload["verdict"] == "INCONCLUSIVE"
        assert payload["comparison"]["table"] == [
            {"q": 4, "wedge_rank": 0, "manifold_rank": 0}
        ]

    def test_out_of_window_lists_both_bounds(self, capsys):
        for q in ("9", "2"):
            code, out, err = run_cli(
                capsys, "verdict", "cyclic", "8", "4",
                "--vs", "16*S5xS7 # 15*S6xS6", "--q", q,
            )
            assert code == 1
            assert "3 <= q <= 6" in err
            assert "q <= 8" in err

    def test_agreeing_candidate_is_inconclusive(self, capsys):
        # 16*S5xS7 alone matches the wedge ranks in the whole window 3..6.
        code, payload = run_json(
            capsys, "verdict", "cyclic", "8", "4", "--vs", "16*S5xS7"
        )
        assert code == 2
        assert payload["verdict"] == "INCONCLUSIVE"

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
    def test_json_schema_and_values(self, capsys):
        code, payload = run_json(capsys, "counterexample")
        assert code == 0
        assert set(payload) == {
            "input", "ideal", "rmin", "wedge", "manifold", "comparison", "verdict",
        }
        assert payload["rmin"]["degree"] == 8
        assert payload["manifold"]["ranks"] == {
            "0": 1, "5": 16, "6": 30, "7": 16, "12": 1,
        }
        assert payload["verdict"] == "NOT_EQUIVALENT"

    def test_json_round_trips_byte_identical(self, capsys):
        code, out, err = run_cli(capsys, "--json", "counterexample")
        reserialized = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert out == reserialized

    def test_text_output_mentions_all_artifacts(self, capsys):
        code, out, err = run_cli(capsys, "counterexample")
        assert code == 0
        assert "v1*v3*v5" in out
        assert "minimal relation degree: 8" in out
        assert "valid window 3 <= q <= 6" in out
        assert "Euler characteristic: 0" in out
        assert "verdict: NOT_EQUIVALENT" in out

    def test_quiet_prints_only_verdict(self, capsys):
        code, out, err = run_cli(capsys, "--quiet", "counterexample")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("verdict: NOT_EQUIVALENT")


class TestModuleInvocation:
    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "momentangle", "--json", "counterexample"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "NOT_EQUIVALENT"

    def test_unknown_command_exits_one(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "momentangle", "frobnicate"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1


class TestInProcessCalls:
    """Calls in one process share a parser and a face-ring cache; each must
    print exactly what a fresh interpreter prints."""

    SEQUENCE = [
        ["ideal", "polygon", "5"],
        ["verdict", "polygon", "5", "--vs", "5*S3xS4"],
        ["--json", "verdict", "polygon", "5", "--vs", "5*S3xS4"],
        ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6", "--q", "6"],
        ["verdict", "cyclic", "8", "4", "--vs", "16*S5xS7 # 15*S6xS6", "--quiet"],
        ["syzmin", "cyclic", "8", "4", "--json"],
        ["wedge", "cyclic", "8", "4", "--ceiling", "9"],
        ["ideal", "cyclic", "8", "3", "--json"],
        ["ideal", "polygon", "3"],
        ["ideal", "polygon", "3"],
        ["ideal", "cyclic", "8", "4", "--bogus"],
        ["verdict", "--help"],
        ["--quiet", "counterexample"],
        ["ideal", "polygon", "5", "--quiet"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sequence_matches_fresh_interpreters(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv in self.SEQUENCE:
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

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()


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
        assert ns["rmin"] == 8
        assert ns["wedge"].entries == {5: 16} and ns["wedge"].ceiling == 6
        assert hurewicz_window(ns["g"]) == 8
        assert (ns["wedge"].entries.get(6, 0), ns["g"].rank(6)) == (0, 30)


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
    PENTAGON_VERDICT = (
        "verdict: NOT_EQUIVALENT (rational homotopy ranks differ in degree 4: 0 vs 5)\n"
    )

    @staticmethod
    def both(capsys, *argv):
        """(plain stdout, --quiet stdout), each checked for exit 0 and no stderr."""
        outs = []
        for quiet in ([], ["--quiet"]):
            code, out, err = run_cli(capsys, *argv, *quiet)
            assert (code, err) == (0, ""), (argv, quiet)
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
        plain, quiet = self.both(capsys, "verdict", "polygon", "5", "--vs", "5*S3xS4")
        assert plain == (
            "input complex: dual of the 5-gon\n"
            "candidate manifold: 5*S3xS4\n"
            "\n"
            "face ring: 5 variables, |I| = 5 generators\n"
            "  v1*v3  v1*v4  v2*v4  v2*v5\n"
            "  v3*v5\n"
            "minimal relation degree: 6\n"
            "  witness: (v1*v3) * v4 == (v1*v4) * v3\n"
            "wedge model: spheres {'3': 5}, valid window 3 <= q <= 4, degree-2 rank 5\n"
            "\n"
            "manifold homology ranks: 0:1  3:5  4:5  7:1\n"
            "  Poincare symmetric: yes   Euler characteristic: 0\n"
            "\n"
            "note: wedge model valid for 3 <= q <= 4\n"
            "note: homology determines homotopy ranks for q <= 4\n"
            "\n"
            "  q   wedge side   manifold side\n"
            "  3   5            5            \n"
            "  4   0            5               <-- differs\n"
            "\n"
        ) + self.PENTAGON_VERDICT
        assert quiet == self.PENTAGON_VERDICT
