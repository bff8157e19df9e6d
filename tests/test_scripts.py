import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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
