#!/usr/bin/env python3
"""Survey ideal sizes, minimal relation degrees, and wedge windows across two
families: cyclic polytopes C(n, d) and polygon duals.

Example:
    python scripts/survey_families.py --d 4 --n-max 12 --m-max 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from momentangle import (  # noqa: E402
    CyclicParams,
    borel_model,
    from_cyclic,
    from_polygon,
    min_relation_degree,
)


def survey_cyclic(d: int, n_max: int) -> None:
    print(f"cyclic family C(n,{d})")
    print(f"{'n':>3} {'|I|':>5} {'degrees':>12} {'rmin':>5} {'q_max':>6} {'spectrum':>20}")
    for n in range(d + 2, n_max + 1):
        F = from_cyclic(CyclicParams(n, d))
        if len(F.generators) < 2:
            print(f"{n:>3} {len(F.generators):>5} {'-':>12} {'-':>5} {'-':>6}")
            continue
        rmin, _ = min_relation_degree(F)
        wedge = borel_model(F, rmin)
        hist = ",".join(f"{deg}:{cnt}" for deg, cnt in F.degree_histogram().items())
        spectrum = ",".join(f"{k}:{v}" for k, v in sorted(wedge.entries.items()))
        print(f"{n:>3} {len(F.generators):>5} {hist:>12} {rmin:>5} {wedge.ceiling:>6} {spectrum:>20}")


def survey_polygons(m_max: int) -> None:
    print("polygon family")
    print(f"{'m':>3} {'|I|':>5} {'rmin':>5} {'q_max':>6} {'spectrum':>20}")
    for m in range(4, m_max + 1):
        F = from_polygon(m)
        rmin, _ = min_relation_degree(F)
        wedge = borel_model(F, rmin)
        spectrum = ",".join(f"{k}:{v}" for k, v in sorted(wedge.entries.items()))
        print(f"{m:>3} {len(F.generators):>5} {rmin:>5} {wedge.ceiling:>6} {spectrum:>20}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=4, help="cyclic dimension")
    parser.add_argument("--n-max", type=int, default=12, help="largest vertex count")
    parser.add_argument("--m-max", type=int, default=10, help="largest polygon")
    args = parser.parse_args()
    survey_cyclic(args.d, args.n_max)
    print()
    survey_polygons(args.m_max)
