"""Face combinatorics of cyclic polytopes C(n, d).

Vertices are identified with the indices 1..n, ordered like the curve
parameters they come from.  Whether a subset of vertices spans a face is a
purely order-combinatorial question (Gale's evenness criterion), so no
coordinates are ever materialized: everything here works on sorted integer
tuples.

The criterion counts *proper odd components*: maximal runs of consecutive
indices that have odd length and touch neither vertex 1 nor vertex n.  A
k-subset spans a face of C(n, d) iff k <= d and it has at most d - k proper
odd components.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "CyclicParams",
    "Component",
    "as_subset",
    "components",
    "is_face",
    "enumerate_faces",
    "f_vector",
    "is_q_neighborly",
]


@dataclass(frozen=True)
class CyclicParams:
    """Parameters of a cyclic polytope: n vertices in dimension d >= 2, n >= d+1."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"cyclic polytopes need dimension d >= 2, got d={self.d}")
        if self.n < self.d + 1:
            raise ValueError(
                f"C(n,{self.d}) needs n >= {self.d + 1} vertices, got n={self.n}"
            )


@dataclass(frozen=True)
class Component:
    """A maximal run of consecutive indices inside a vertex subset.

    `proper` means the run contains neither vertex 1 nor vertex n; `odd`
    means the run has an odd number of members.
    """

    run: tuple[int, ...]
    proper: bool
    odd: bool


def as_subset(members, n: int) -> tuple[int, ...]:
    """Normalize a vertex collection to a strictly increasing tuple in 1..n.

    Duplicates and out-of-range members are rejected.

    >>> as_subset([5, 3, 1], 8)
    (1, 3, 5)
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got n={n}")
    xs = tuple(sorted(members))
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate vertices in {xs}")
    if xs and (xs[0] < 1 or xs[-1] > n):
        raise ValueError(f"vertices must lie in 1..{n}, got {xs}")
    return xs


def components(members, n: int) -> list[Component]:
    """Split a vertex subset into its maximal consecutive runs.

    The runs partition the subset in increasing order.

    >>> [c.run for c in components({1, 3, 4, 5}, 8)]
    [(1,), (3, 4, 5)]
    >>> [(c.proper, c.odd) for c in components({2, 6, 8}, 8)]
    [(True, True), (True, True), (False, True)]
    """
    xs = as_subset(members, n)
    out: list[Component] = []
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[j + 1] == xs[j] + 1:
            j += 1
        run = xs[i : j + 1]
        out.append(
            Component(
                run=run,
                proper=(run[0] != 1 and run[-1] != n),
                odd=(len(run) % 2 == 1),
            )
        )
        i = j + 1
    return out


def is_face(members, p: CyclicParams) -> bool:
    """Decide whether a vertex subset spans a face of C(p.n, p.d).

    The empty set counts as a face (standard simplicial convention).

    >>> is_face({1, 3, 5}, CyclicParams(8, 4))
    False
    >>> is_face({1, 3, 8}, CyclicParams(8, 4))
    True
    """
    xs = as_subset(members, p.n)
    if len(xs) > p.d:
        return False
    proper_odd = sum(1 for c in components(xs, p.n) if c.proper and c.odd)
    return proper_odd <= p.d - len(xs)


def enumerate_faces(p: CyclicParams, max_card: int) -> list[tuple[int, ...]]:
    """All nonempty faces with at most `max_card` vertices.

    Output is sorted by cardinality, then lexicographically; deterministic.
    `max_card` may not exceed d (no face of the boundary complex has more
    than d vertices).
    """
    if not 0 <= max_card <= p.d:
        raise ValueError(f"max_card must lie in 0..{p.d}, got {max_card}")
    out: list[tuple[int, ...]] = []
    for k in range(1, max_card + 1):
        out.extend(
            c for c in combinations(range(1, p.n + 1), k) if is_face(c, p)
        )
    return out


def f_vector(p: CyclicParams) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{d-1}) of the boundary complex of C(n, d).

    >>> f_vector(CyclicParams(8, 4))
    (8, 28, 40, 20)
    """
    counts = [0] * p.d
    for face in enumerate_faces(p, p.d):
        counts[len(face) - 1] += 1
    return tuple(counts)


def is_q_neighborly(p: CyclicParams, q: int) -> bool:
    """True iff every q-subset of the vertices spans a face.

    Cyclic polytopes are floor(d/2)-neighborly, which is what makes their
    face rings start in high degree.
    """
    if q < 1:
        raise ValueError(f"neighborliness is asked for q >= 1, got {q}")
    return all(is_face(c, p) for c in combinations(range(1, p.n + 1), q))
