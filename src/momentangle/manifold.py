"""Homology of connected sums of sphere products, their duality and Euler
checks, and the grammar of their specs.

All spaces here (products of spheres of dimension >= 2 and their connected
sums) have torsion-free homology, so graded ranks are a lossless record.
Reduced ranks in middle degrees add over connected-sum summands: puncturing a
summand removes exactly its top class, and the collapse cofibration peels
summands off one at a time.
"""

from .gale import Record

__all__ = [
    "SphereProduct",
    "ConnectedSumSpec",
    "GradedRanks",
    "connected_sum_homology",
    "poincare_check",
    "euler_characteristic",
    "parse_connected_sum",
    "format_connected_sum",
]


class SphereProduct(Record):
    """S^m x S^n with 2 <= m <= n (factors are stored sorted); ordered as
    the pair (m, n)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        m, n = min(m, n), max(m, n)
        if m < 2:
            raise ValueError(f"sphere factors must have dimension >= 2, got S^{m}")
        return super().__new__(cls, (m, n))

    @property
    def total_dim(self) -> int:
        return self.m + self.n

    def __str__(self) -> str:
        return f"S{self.m}xS{self.n}"


class ConnectedSumSpec(Record):
    """Connected sum of sphere products: (multiplicity, factor) summands.

    Summands are normalized on construction (merged by factor and sorted),
    so two specs listing the same summands in any order compare equal.  All
    factors must share one total dimension.
    """

    __slots__ = ()

    def __new__(cls, summands: tuple[tuple[int, SphereProduct], ...]):
        if not summands:
            raise ValueError("a connected sum needs at least one summand")
        merged: dict[SphereProduct, int] = {}
        for mult, factor in summands:
            if mult < 1:
                raise ValueError(f"multiplicities are positive, got {mult}")
            merged[factor] = merged.get(factor, 0) + mult
        dims = {factor.total_dim for factor in merged}
        if len(dims) > 1:
            raise ValueError(
                f"summands must share one total dimension, got {sorted(dims)}"
            )
        return super().__new__(cls, (tuple((merged[f], f) for f in sorted(merged)),))

    @property
    def total_dim(self) -> int:
        return self.summands[0][1].total_dim


class GradedRanks(Record):
    """Free ranks by degree for a connected space; `top` is the formal top
    dimension.  Only nonzero ranks are stored."""

    __slots__ = ()

    def __new__(cls, ranks: dict[int, int], top: int):
        cleaned = {k: v for k, v in ranks.items() if v}
        for k, v in cleaned.items():
            if not 0 <= k <= top:
                raise ValueError(f"degree {k} outside 0..{top}")
            if v < 0:
                raise ValueError(f"ranks are nonnegative, got {v} in degree {k}")
        if cleaned.get(0, 0) != 1:
            raise ValueError("expected a connected space: rank 1 in degree 0")
        return super().__new__(cls, (cleaned, top))

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)


def connected_sum_homology(spec: ConnectedSumSpec) -> GradedRanks:
    """Homology ranks of a connected sum of sphere products.

    Degrees 0 and D carry rank 1, and each summand S^m x S^n adds its
    multiplicity to the ranks in degrees m and n.  A single product is the
    one-summand sum.

    >>> connected_sum_homology(parse_connected_sum("S6xS6")).ranks
    {0: 1, 6: 2, 12: 1}
    >>> spec = parse_connected_sum("16*S5xS7 # 15*S6xS6")
    >>> connected_sum_homology(spec).ranks
    {0: 1, 5: 16, 6: 30, 7: 16, 12: 1}
    """
    D = spec.total_dim
    ranks = {0: 1, D: 1}
    for mult, factor in spec.summands:
        for k in (factor.m, factor.n):
            ranks[k] = ranks.get(k, 0) + mult
    return GradedRanks(ranks=dict(sorted(ranks.items())), top=D)


def poincare_check(g: GradedRanks) -> bool:
    """True iff rank_k == rank_{top-k} for every degree (duality symmetry)."""
    return all(g.rank(g.top - k) == v for k, v in g.ranks.items())


def euler_characteristic(g: GradedRanks) -> int:
    """Alternating sum of the ranks."""
    return sum((-1) ** k * v for k, v in g.ranks.items())


def _summand(part: str) -> tuple[int, SphereProduct]:
    """One summand `k*S<m>xS<n>` of a connected sum with its whitespace
    removed: k, m and n decimal digits (any that `str.isdecimal` accepts),
    `k*` optional, and the letters in either case ("s" and "x" match the
    same characters as a case-insensitive regex, U+017F included)."""
    mult, star, product = part.rpartition("*")
    left, x, right = product.replace("X", "x").partition("x")
    factors = (left, right)
    if (star and not mult.isdecimal()) or not x or not all(
        f[:1].upper() == "S" and f[1:].isdecimal() for f in factors
    ):
        raise ValueError(f"bad summand {part!r}: expected k*S<m>xS<n>, e.g. 16*S5xS7")
    return int(mult or 1), SphereProduct(int(left[1:]), int(right[1:]))


def parse_connected_sum(text: str) -> ConnectedSumSpec:
    """Parse the connected-sum grammar: summands joined by `#`, each
    `k*S<m>xS<n>`; whitespace-insensitive; `1*` may be omitted.

    >>> parse_connected_sum("S7xS5").summands
    ((1, SphereProduct(m=5, n=7)),)
    """
    squeezed = "".join(text.split())
    if not squeezed:
        raise ValueError("empty connected-sum description")
    return ConnectedSumSpec(summands=tuple(map(_summand, squeezed.split("#"))))


def format_connected_sum(spec: ConnectedSumSpec) -> str:
    """Canonical text for a spec; parses back to an equal spec."""
    return " # ".join(f"{mult}*{factor}" for mult, factor in spec.summands)
