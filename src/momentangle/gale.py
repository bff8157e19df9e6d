"""Face combinatorics of cyclic polytopes C(n, d).

Vertices are identified with the indices 1..n, ordered like the curve
parameters they come from.  Whether a subset of vertices spans a face is a
purely order-combinatorial question (Gale's evenness criterion), so no
coordinates are ever materialized: faces are sorted integer tuples, and
face counts are read off the h-vector (`h_vector`).

The criterion counts *proper odd components*: maximal runs of consecutive
indices that have odd length and touch neither vertex 1 nor vertex n.  A
k-subset spans a face of C(n, d) iff k <= d and it has at most d - k proper
odd components.
"""

from _operator import itemgetter
from itertools import accumulate, combinations, repeat
from math import comb

__all__ = [
    "SUBSET_LIMIT",
    "check_subset_count",
    "comb_floor",
    "Record",
    "CyclicParams",
    "as_subset",
    "is_face",
    "enumerate_faces",
    "h_vector",
    "f_vector",
    "is_q_neighborly",
]


SUBSET_LIMIT = 2**20


def check_subset_count(count: int, what: str, unit: str) -> None:
    """The one work-limit rule: refuse, with ValueError, work of more than
    SUBSET_LIMIT `unit`s, so oversized inputs fail at once.  A count of
    2**64 or more, which may be a lower bound (`comb_floor`), is worded
    "at least 2^k" from its bit length, never in decimal."""
    if count > SUBSET_LIMIT:
        k = count.bit_length() - 1
        shown = f"at least 2^{k}" if k >= 64 else count
        raise ValueError(f"{what} would need {shown} {unit}, above the limit of {SUBSET_LIMIT}")


def comb_floor(a: int, b: int) -> int:
    """comb(a, b) below 64 factors (min(b, a-b) < 64), else its lower bound
    2**64 <= 2**min(b, a-b): a count for `check_subset_count`, never large."""
    return comb(a, b) if min(b, a - b) < 64 else 1 << 64


class Record(tuple):
    """A tuple whose fields are the parameters of its subclass's `__new__`,
    in order, each read by a read-only property.  It equals and hashes as
    the plain tuple of its values and reprs as `Name(field=value, ...)`, so
    its repr evaluates back to it.  The subclass's `__new__`, which checks
    the values, is its only constructor: copies and pickles rebuild through
    it, at every pickle protocol.  Each subclass declares `__slots__ = ()`,
    so no instance has a `__dict__`.

    Records stand in for `collections.namedtuple`: importing `collections`
    and `functools` took about half of this package's import time."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i), doc=f"Field {i}, {name!r}."))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return type(self), tuple(self)


class CyclicParams(Record):
    """Parameters of a cyclic polytope: n vertices in dimension d >= 2, n >= d+1.

    A record, so it equals the plain tuple (n, d); the CLI's caches never
    mix the two."""

    __slots__ = ()

    def __new__(cls, n: int, d: int):
        if d < 2:
            raise ValueError(f"cyclic polytopes need dimension d >= 2, got d={d}")
        if n < d + 1:
            raise ValueError(f"C(n,{d}) needs n >= {d + 1} vertices, got n={n}")
        return super().__new__(cls, (n, d))


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


def is_face(members, p: CyclicParams) -> bool:
    """Decide whether a vertex subset spans a face of C(p.n, p.d).

    One pass over the sorted subset counts its proper odd runs.  The empty
    set counts as a face (standard simplicial convention).

    >>> is_face({1, 3, 5}, CyclicParams(8, 4))
    False
    >>> is_face({1, 3, 8}, CyclicParams(8, 4))
    True
    """
    xs = as_subset(members, p.n)
    if len(xs) > p.d:
        return False
    proper_odd = run = 0
    for i, v in enumerate(xs):
        run += 1
        if i + 1 == len(xs) or xs[i + 1] != v + 1:  # v ends a run of `run` vertices
            if run % 2 and v != run and v != p.n:  # v == run: the run starts at 1
                proper_odd += 1
            run = 0
    return proper_odd <= p.d - len(xs)


def enumerate_faces(p: CyclicParams, max_card: int) -> list[tuple[int, ...]]:
    """All nonempty faces with at most `max_card` vertices.

    Output is sorted by cardinality, then lexicographically; deterministic.
    `max_card` may not exceed d (no face of the boundary complex has more
    than d vertices).
    """
    if not 0 <= max_card <= p.d:
        raise ValueError(f"max_card must lie in 0..{p.d}, got {max_card}")
    # The sum up to k is at least 2**k, so the rule stops this lazy sum by k = 21.
    for k, subsets in enumerate(accumulate(map(comb, repeat(p.n), range(max_card + 1)))):
        what = f"enumerating the faces of C({p.n},{p.d}) with at most {k} vertices"
        check_subset_count(subsets, what, "subsets")
    vertices = range(1, p.n + 1)
    return [c for k in range(1, max_card + 1) for c in combinations(vertices, k) if is_face(c, p)]


def h_vector(p: CyclicParams) -> tuple[int, ...]:
    """The h-vector of the boundary of C(n, d): h_i = C(n-d-1+i, i) for
    i <= d/2, h_i = h_(d-i) (upper bound theorem; Ziegler, Sec. 8.4).

    >>> h_vector(CyclicParams(8, 4))
    (1, 4, 10, 4, 1)
    """
    e, half = p.n - p.d - 1, p.d // 2
    k = min(e, half)  # h_i takes min(i, e) factors, counted first
    what = f"the h-vector of C({p.n},{p.d})"
    check_subset_count(k * (2 * half + 1 - k) // 2, what, "binomial factors")
    low = [comb(e + i, i) for i in range(half + 1)]
    return tuple(low + low[p.d - half - 1 :: -1])


def f_vector(p: CyclicParams) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{d-1}) of the boundary complex of C(n, d).

    Closed form, no enumeration: with h = `h_vector(p)`,
    sum_j f_{j-1} t^(d-j) = sum_i h_i (1+t)^(d-i), evaluated by Horner's
    rule P <- P*(1+t) + h_i: d+1 binomials and (d+1)(d+2)/2 additions,
    counted first, so d >= 1447 is refused with ValueError at once.

    >>> f_vector(CyclicParams(8, 4))
    (8, 28, 40, 20)
    """
    n, d = p.n, p.d
    check_subset_count((d + 1) * (d + 2) // 2, f"the f-vector of C({n},{d})", "additions")
    P: list[int] = []  # coefficients of t^0, t^1, ...
    for h in h_vector(p):
        P = [a + b for a, b in zip(P + [0], [0] + P)]
        P[0] += h
    return tuple(reversed(P[:d]))


def is_q_neighborly(p: CyclicParams, q: int) -> bool:
    """True iff every q-subset of the vertices spans a face.

    Read off the f-vector: C(n, d) has C(n, q) q-subsets, and f_{q-1} of them
    are faces.  No face has more than d vertices, so for q > d the answer is
    false, or vacuously true once q > n leaves no q-subsets at all.  Cyclic
    polytopes are floor(d/2)-neighborly, which is what makes their face rings
    start in high degree.
    """
    if q < 1:
        raise ValueError(f"neighborliness is asked for q >= 1, got {q}")
    if q > p.d:
        return q > p.n
    return f_vector(p)[q - 1] == comb(p.n, q)
