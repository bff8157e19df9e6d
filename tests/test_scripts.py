import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

SURVEY_D4_N8_M6 = """\
cyclic family C(n,4)
  n   |I|      degrees  rmin  q_max             spectrum
  6     2          6:2    12     10              5:2,9:1
  7     7          6:7     8      6                  5:7
  8    16         6:16     8      6                 5:16

polygon family
  m   |I|  rmin  q_max             spectrum
  4     2     8      6              3:2,5:1
  5     5     6      4                  3:5
  6     9     6      4                  3:9
"""


def test_survey_families_table():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "survey_families.py"),
         "--d", "4", "--n-max", "8", "--m-max", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SURVEY_D4_N8_M6


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
