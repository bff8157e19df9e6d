"""Relations among relations for squarefree monomial ideals.

A relation among relations is a binomial identity
``x_i * prod(v_k for k in I1) - x_j * prod(v_k for k in I2) = 0`` obtained by
multiplying two ideal generators up to a common monomial.  Both sides must be
the *same* monomial, so each side is a common multiple of the two generators;
the cheapest common multiple is the lcm, which for squarefree monomials is
just the support union.  The minimal degree over all generator pairs bounds
how far the wedge model of the Borel space stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import FaceRingPresentation, Monomial

__all__ = [
    "RelationAmongRelations",
    "lcm_support",
    "min_relation_degree",
    "relation_holds",
]


@dataclass(frozen=True)
class RelationAmongRelations:
    """Witness for one relation: generator indices plus the two multipliers.

    `degree` is the common degree of both sides (even, since every variable
    has degree 2).
    """

    i: int
    j: int
    multiplier_i: Monomial
    multiplier_j: Monomial
    degree: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("a relation needs two distinct generators")
        if self.multiplier_i.support == self.multiplier_j.support:
            raise ValueError("the two multipliers must differ")
        if self.degree % 2 or self.degree <= 0:
            raise ValueError(f"degree must be a positive even integer, got {self.degree}")


def lcm_support(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple of two squarefree monomials (support union).

    >>> str(lcm_support(Monomial((1, 3, 5)), Monomial((1, 3, 6))))
    'v1*v3*v5*v6'
    """
    return Monomial(tuple(sorted(set(a.support) | set(b.support))))


def min_relation_degree(
    F: FaceRingPresentation,
) -> tuple[int, RelationAmongRelations]:
    """Smallest degree of a relation among relations, with a witness.

    Scans unordered generator pairs on their vertex bitmasks; the degree
    contributed by a pair is 2 * popcount(a | b) (the lcm degree), and the
    witness multipliers are the lcm quotients.  Ties go to the
    lexicographically first index pair.
    """
    gens, masks = F.generators, F.masks
    if len(gens) < 2:
        raise ValueError(
            "no relations: the ideal needs at least two generators"
        )
    best: tuple[int, int, int] | None = None
    for i, j in combinations(range(len(masks)), 2):
        deg = 2 * (masks[i] | masks[j]).bit_count()
        if best is None or deg < best[0]:
            best = (deg, i, j)
    deg, i, j = best
    lcm = lcm_support(gens[i], gens[j])
    mult_i = Monomial(tuple(v for v in lcm.support if v not in gens[i].support))
    mult_j = Monomial(tuple(v for v in lcm.support if v not in gens[j].support))
    return deg, RelationAmongRelations(
        i=i, j=j, multiplier_i=mult_i, multiplier_j=mult_j, degree=deg
    )


def relation_holds(F: FaceRingPresentation, rel: RelationAmongRelations) -> bool:
    """Symbolically check the defining identity of a witness against F.

    Both sides must be the same monomial (multiset of variables) and the
    recorded degree must match it.
    """
    gi = F.generators[rel.i].support
    gj = F.generators[rel.j].support
    left = sorted(gi + rel.multiplier_i.support)
    right = sorted(gj + rel.multiplier_j.support)
    return left == right and rel.degree == 2 * len(left)
