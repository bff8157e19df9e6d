import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def bench_pairs(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--label", "refused", "--seconds", "0.1",
         "verdict_batch:1"],
        capture_output=True, text=True,
    )


def git_checkout(path):
    """A one-commit git repository at `path` holding a copy of `src`."""
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "src"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    return path


def byte_sweep(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "byte_sweep.py"),
         "--parent", str(parent), "--change", str(change)],
        capture_output=True, text=True,
    )


def test_byte_sweep_of_a_tree_against_itself():
    proc = byte_sweep(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith(" calls, 0 differ")
    assert int(lines[0].split()[0]) >= 4374


def test_byte_sweep_names_a_changed_text_line(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "momentangle" / "cli.py"
    text = cli.read_text()
    assert text.count('f"homology ranks of {') == 1
    cli.write_text(text.replace('f"homology ranks of {', 'f"homology ranks for {'))
    proc = byte_sweep(ROOT, change)
    assert proc.returncode == 1, proc.stderr
    head, *named = proc.stdout.splitlines()
    assert head.endswith(f" calls, {len(named)} differ")
    assert "differs: homology '16*S5xS7 # 15*S6xS6'" in named
    assert "differs: homology '16*S5xS7 # 15*S6xS6' --quiet" in named
    assert all(line.startswith("differs: homology ") for line in named)


@pytest.mark.parametrize("workload", ["face_ladder", "wedge_ceiling", "verdict_batch"])
def test_traced_benchmark_run_exits_cleanly(workload):
    # A traced run exits 1 if a worker dies (tracer.py cannot import a layer)
    # or if a per-layer ratio divides by zero.  On verdict_batch the CLI's
    # caches leave traced calls only on the first use of each input.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_bench_pairs_refuses_a_side_without_a_git_tree(tmp_path):
    checkout = git_checkout(tmp_path / "checkout")
    archive = tmp_path / "archive"
    shutil.copytree(ROOT / "src", archive / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for parent, change, side in ((archive, checkout, "parent"), (checkout, archive, "change")):
        proc = bench_pairs(parent, change)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"error: no git tree of src in the {side} side ({archive}); "
            "both sides must be git checkouts\n"
        )
    assert not list(tmp_path.glob("*/BENCH_*.json"))
