"""Checks one op's CLI output against the facts in ``expected.json``.

Only mathematical facts are pinned: generator lists (as a digest) and degree
histograms, face counts, the wedge spectrum at an explicit ceiling, and
homology ranks with Poincare symmetry and Euler characteristic.  Fields that
depend on the validity-window policy (``q_max``, ``comparison`` and the
verdict itself) are never pinned; a verdict is only checked against its exit
code (0 for ``NOT_EQUIVALENT``, 2 otherwise).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


def generators_digest(generators) -> str:
    text = json.dumps([list(g) for g in generators], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    error: str | None = None  # a raise, exit 1 or a fact mismatch
    mcgavran_defect: bool = False  # NOT_EQUIVALENT against McGavran's sum
    generators: int = 0
    faces: int = 0
    bytes_out: int = 0


def _mismatch(what, got, want) -> str:
    return f"{what}: got {got!r}, expected {want!r}"


def check(op: dict, res: dict, facts: dict) -> Outcome:
    out = Outcome(bytes_out=len(res["out"]))
    if res["exc"] is not None:
        out.error = f"raised {res['exc']}"
        return out
    try:
        payload = json.loads(res["out"])
    except json.JSONDecodeError:
        out.error = f"exit {res['rc']} without a JSON report: {res['err'].strip()}"
        return out
    kind = op["argv"][0]
    want_rc = 0
    if kind == "verdict":
        want_rc = 0 if payload.get("verdict") == "NOT_EQUIVALENT" else 2
    if res["rc"] != want_rc:
        out.error = _mismatch("exit code", res["rc"], want_rc)
        return out
    try:
        out.error = _check_payload(op, kind, payload, facts, out)
    except (KeyError, TypeError, AttributeError) as exc:
        out.error = f"report lacks a checked field: {exc!r}"
    if out.error is None and op.get("mcgavran") and payload["verdict"] == "NOT_EQUIVALENT":
        out.mcgavran_defect = True
    return out


def _check_payload(op, kind, payload, facts, out: Outcome) -> str | None:
    if "source" in op:
        want = facts["sources"][op["source"]]
        ideal = payload["ideal"]
        out.generators = ideal["size"]
        got = {
            "m": ideal["m"],
            "size": ideal["size"],
            "digest": generators_digest(ideal["generators"]),
            "histogram": ideal["degree_histogram"],
        }
        if got != want:
            return _mismatch(f"ideal of {op['source']}", got, want)
    if kind == "faces":
        want = facts["faces"][op["faces"]]
        out.faces = sum(payload["counts"].values())
        if payload["counts"] != want:
            return _mismatch(f"face counts of C({op['faces']})", payload["counts"], want)
    if kind == "wedge":
        key = f"{op['source']} @{op['ceiling']}"
        wedge = payload["wedge"]
        got = {"ceiling": wedge["ceiling"], "spectrum": wedge["spectrum"]}
        want = {"ceiling": op["ceiling"], "spectrum": facts["spectra"][key]}
        if got != want:
            return _mismatch(f"spectrum of {key}", got, want)
    if "spec" in op:
        mfd = payload["manifold"]
        got = {k: mfd[k] for k in ("top", "ranks", "poincare", "euler")}
        want = facts["specs"][op["spec"]]
        if got != want:
            return _mismatch(f"homology of {op['spec']}", got, want)
    return None
