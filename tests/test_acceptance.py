"""Acceptance checklist for the whole pipeline.

Each test pins one end-to-end criterion at its stated tolerance (exact
integer equality plus a wall-clock budget) and prints a PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).

Criteria 2a and 2b follow from one rule.  A relation is
``x_i * A == x_j * B`` for two distinct generators (momentangle.syzygy), so
each side is a common multiple of x_i and x_j, and the cheapest is their lcm:
the minimal relation degree is twice the smallest support union over
generator pairs.

- 2a, C(8,4): the generators are distinct squarefree monomials in three
  variables (degree 6), so any two have an lcm in at least four variables;
  v1*v3*v5 and v1*v3*v6 meet it, giving 8.
- 2b, pentagon: the generators v1*v3, v1*v4, v2*v4, v2*v5, v3*v5 are distinct
  squarefree monomials in two variables (degree 4), so any two have an lcm of
  degree at least 6 and no relation has degree 4; and
  (v1*v3)*v4 == (v1*v4)*v3 has degree 6.  Hochster's formula agrees: on
  J = {1,3,4} the full subcomplex (vertex 1 plus edge 34) is disconnected,
  so Tor_2 has a minimal first syzygy of degree 6.  The degree-8 relation
  between v1*v3 and v2*v4 lives on J = {1,2,3,4}, whose full subcomplex is
  the contractible path 1-2-3-4, so it is not even a minimal syzygy.
  Exhaustive search (tests/oracles.py) also finds 6.
"""

import json
import time
from itertools import combinations, combinations_with_replacement

from momentangle.cli import main
from momentangle.complexes import face_ring, from_cyclic, from_polygon, minimal_nonfaces
from momentangle.gale import CyclicParams, enumerate_faces, f_vector, is_face
from momentangle.hilton import wedge_spectrum
from momentangle.manifold import (
    ConnectedSumSpec,
    SphereProduct,
    connected_sum_homology,
    format_connected_sum,
    parse_connected_sum,
    poincare_check,
)

from oracles import (
    CYCLIC_8_4_MINIMAL_NONFACES,
    connected_sum_ranks_peeling,
    hall_count_by_weight,
)


def _witt(k: int, w: int) -> int:
    """Witt number W(k, w) from the S^3 column of the wedge spectrum."""
    return wedge_spectrum([3] * k, 2 * w + 1).entries.get(2 * w + 1, 0)


class _criterion:
    """Time the body, enforce the budget, print one PASS/FAIL line."""

    def __init__(self, label: str, budget_seconds: float):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.3f}s)")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"{self.label} exceeded its {self.budget}s budget: {elapsed:.3f}s"
            )
        return False


def _cli_json(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_ideal_regeneration(capsys):
    with _criterion("1 ideal regeneration C(8,4)", 1.0):
        code, payload = _cli_json(capsys, "ideal", "cyclic", "8", "4")
        assert code == 0
        got = [tuple(g) for g in payload["ideal"]["generators"]]
        assert got == CYCLIC_8_4_MINIMAL_NONFACES
        assert payload["ideal"]["size"] == 16


def test_criterion_2_syzygy_degree_c84(capsys):
    with _criterion("2a syzygy degree C(8,4) = 8", 1.0):
        code, payload = _cli_json(capsys, "syzmin", "cyclic", "8", "4")
        assert code == 0
        assert payload["rmin"]["degree"] == 8


def test_criterion_2_syzygy_degree_pentagon(capsys):
    # Degree-4 generators pairwise have an lcm of degree >= 6, and
    # (v1*v3)*v4 == (v1*v4)*v3 reaches it (module docstring).
    with _criterion("2b syzygy degree pentagon = 6", 1.0):
        code, payload = _cli_json(capsys, "syzmin", "polygon", "5")
        assert code == 0
        assert payload["rmin"]["degree"] == 6
        w = payload["rmin"]["witness"]
        side = sorted(w["generator_i"] + w["multiplier_i"])
        assert side == sorted(w["generator_j"] + w["multiplier_j"])
        assert 2 * len(side) == payload["rmin"]["degree"] == 6


def test_criterion_3_homology_table(capsys):
    with _criterion("3 connected-sum homology table", 1.0):
        code, payload = _cli_json(capsys, "homology", "16*S5xS7 # 15*S6xS6")
        assert code == 0
        block = payload["manifold"]
        assert block["ranks"] == {"0": 1, "5": 16, "6": 30, "7": 16, "12": 1}
        assert block["poincare"] is True
        assert block["euler"] == 0


def test_criterion_4_verdict_reproduction(capsys):
    with _criterion("4 counterexample verdict", 1.0):
        code, payload = _cli_json(capsys, "counterexample")
        assert code == 0
        assert payload["verdict"] == "NOT_EQUIVALENT"
        assert payload["wedge"]["q_max"] == 6
        assert payload["comparison"]["first_difference"] == 6
        row = next(r for r in payload["comparison"]["table"] if r["q"] == 6)
        assert row["wedge_rank"] == 0
        assert row["manifold_rank"] == 30


def test_criterion_5_witt_oracle():
    with _criterion("5 Witt counts vs Hall enumeration + necklace identity", 5.0):
        for k in range(1, 4):
            counts = hall_count_by_weight(k, 5)
            for w in range(1, 6):
                assert _witt(k, w) == counts[w], (k, w)
        for k in range(1, 17):
            for w in range(1, 9):
                lhs = sum(
                    d * _witt(k, d)
                    for d in range(1, w + 1)
                    if w % d == 0
                )
                assert lhs == k**w, (k, w)


def test_criterion_6_face_criterion_reconciliation():
    with _criterion("6 face criterion regenerates the ideal + f-vector", 1.0):
        p = CyclicParams(8, 4)
        brute = []
        for card in range(2, 6):
            for s in combinations(range(1, 9), card):
                if is_face(s, p):
                    continue
                if all(is_face(s[:i] + s[i + 1 :], p) for i in range(len(s))):
                    brute.append(s)
        assert sorted(brute) == CYCLIC_8_4_MINIMAL_NONFACES
        f = f_vector(p)
        assert f == (8, 28, 40, 20)
        assert f[0] - f[1] + f[2] - f[3] == 0


def test_criterion_7_connected_sum_les_oracle():
    with _criterion("7 connected-sum formula vs peeling oracle", 5.0):
        factors = [SphereProduct(5, 7), SphereProduct(6, 6), SphereProduct(3, 9)]
        for size in range(1, 5):
            for combo in combinations_with_replacement(factors, size):
                spec = ConnectedSumSpec(tuple((1, t) for t in combo))
                got = connected_sum_homology(spec).ranks
                assert got == connected_sum_ranks_peeling(spec), combo


def test_criterion_8_property_suites_headless():
    with _criterion("8 deterministic property sweep", 5.0):
        # downward closure of face sets, n <= 10
        for n, d in [(6, 4), (8, 4), (9, 3), (10, 4), (10, 5)]:
            p = CyclicParams(n, d)
            for face in enumerate_faces(p, d):
                for k in range(1, len(face)):
                    for sub in combinations(face, k):
                        assert is_face(sub, p)
        # generator incomparability
        for F in (
            face_ring(from_cyclic(CyclicParams(8, 4))),
            face_ring(from_cyclic(CyclicParams(7, 4))),
            face_ring(from_polygon(5)),
            face_ring(from_polygon(8)),
        ):
            for a, b in combinations(F.generators, 2):
                assert not set(a.support).issubset(b.support)
                assert not set(b.support).issubset(a.support)
        # duality symmetry of connected sums
        for text in ("16*S5xS7 # 15*S6xS6", "3*S3xS9", "2*S6xS6 # S5xS7"):
            assert poincare_check(connected_sum_homology(parse_connected_sum(text)))
        # spec normalization idempotence
        for text in ("15*S6xS6 # 16*S5xS7", "S7xS5", "2*S3xS9 # 2*S3xS9"):
            spec = parse_connected_sum(text)
            assert parse_connected_sum(format_connected_sum(spec)) == spec


def test_complex_module_minimal_nonfaces_agree_with_gale_bruteforce():
    # The two routes to the C(8,4) ideal (complex search vs direct criterion)
    # must coincide; this pins the reconciliation at the library level too.
    got = minimal_nonfaces(from_cyclic(CyclicParams(8, 4)))
    assert got == CYCLIC_8_4_MINIMAL_NONFACES
