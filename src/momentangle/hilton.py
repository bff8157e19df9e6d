"""Sphere bookkeeping for loop spaces of wedges of odd spheres.

The loop space of a wedge of spheres splits as a product of loop spaces of
single spheres, one per basic product in the free nonassociative algebra on
the wedge summands.  A basic product of generators S^(D_1+1), ..., S^(D_w+1)
contributes a sphere of dimension D_1 + ... + D_w + 1, and the number L_n of
spheres of dimension n + 1 is given by the graded Witt formula (Kang-Kim,
J. Algebra 183, 1996), which reads only the histogram a_D of generators
S^(D+1):

    c_n = n * a_n + sum over 0 < j < n of a_j * c_(n-j)     (c = t a'/(1 - a))
    L_n = (1/n) * sum over d | n of mu(n/d) * c_d

For k copies of S^3 (a = k t^2) it gives the Witt number
W(k, w) = (1/w) * sum over d | w of mu(d) * k^(w/d) at n = 2w.  Everything
here is exact integer arithmetic; spectra are always truncated at an explicit
ceiling so that out-of-range degrees fail loudly instead of answering wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FaceRingPresentation

__all__ = [
    "SphereSpectrum",
    "WedgeModel",
    "moebius",
    "wedge_spectrum",
    "rational_rank_wedge",
    "borel_model",
]


def moebius(n: int) -> int:
    """The Moebius function: 1 at 1, (-1)^k on squarefree n with k prime
    factors, 0 when a square divides n.

    >>> [moebius(n) for n in (1, 2, 6, 12)]
    [1, -1, 1, 0]
    """
    if n < 1:
        raise ValueError(f"moebius is defined on positive integers, got {n}")
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        p += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


@dataclass(frozen=True)
class SphereSpectrum:
    """Multiset of sphere dimensions (all odd, >= 3) with multiplicities,
    truncated at `ceiling`.  Dimensions above the ceiling are unknown, not
    zero."""

    entries: dict[int, int]
    ceiling: int

    def __post_init__(self) -> None:
        for dim, mult in self.entries.items():
            if dim % 2 == 0 or dim < 3:
                raise ValueError(f"sphere dimensions must be odd and >= 3, got {dim}")
            if dim > self.ceiling:
                raise ValueError(f"dimension {dim} exceeds ceiling {self.ceiling}")
            if mult < 1:
                raise ValueError(f"multiplicities are positive, got {mult} at {dim}")


def _check_generator_dim(dim: int) -> None:
    if dim % 2 == 0:
        raise ValueError(
            f"only wedges of odd-dimensional spheres are supported, got S^{dim}"
        )
    if dim < 3:
        raise ValueError(f"generator spheres must be simply connected, got S^{dim}")


def wedge_spectrum(dims, ceiling: int) -> SphereSpectrum:
    """Sphere spectrum of the loop-space splitting of a wedge of odd spheres
    S^dims[0] v S^dims[1] v ..., up to the ceiling.

    Only the histogram a_D (generators S^(D+1)) is read, by the graded Witt
    formula; the work is O(ceiling^2) whatever the generator count.

    >>> wedge_spectrum([5] * 16, 9).entries == {5: 16, 9: 120}
    True
    >>> wedge_spectrum([3, 5], 7).entries == {3: 1, 5: 1, 7: 1}
    True
    """
    dims = list(dims)
    if not dims:
        raise ValueError("need at least one wedge summand")
    for dim in sorted(set(dims)):
        _check_generator_dim(dim)
    a = [0] * ceiling  # a[D] for D < ceiling; larger D cannot reach the ceiling
    for dim in dims:
        if dim <= ceiling:
            a[dim - 1] += 1
    c = [0] * ceiling
    entries: dict[int, int] = {}
    for n in range(1, ceiling):
        c[n] = n * a[n] + sum(a[j] * c[n - j] for j in range(1, n))
        total = sum(moebius(n // d) * c[d] for d in _divisors(n))
        if total < 0 or total % n:
            raise ArithmeticError(f"Witt sum {total} is not a multiple of {n}")
        if total:
            entries[n + 1] = total // n
    return SphereSpectrum(entries=entries, ceiling=ceiling)


def rational_rank_wedge(s: SphereSpectrum, q: int) -> int:
    """Rank of the q-th rational homotopy group of the spectrum's wedge model.

    Rationally an odd sphere S^D contributes rank 1 in degree D and nothing
    else, so the rank is just the multiplicity at q.  Degrees above the
    truncation ceiling are refused.
    """
    if q > s.ceiling:
        raise ValueError(
            f"degree {q} is beyond the spectrum's truncation ceiling {s.ceiling}"
        )
    return s.entries.get(q, 0)


@dataclass(frozen=True)
class WedgeModel:
    """Wedge-of-spheres model of the Borel space of a face ring.

    Valid window: the model computes rational homotopy ranks for degrees
    3 <= q <= q_max where q_max = (minimal relation degree) - 2.  The rank in
    degree 2 is the variable count `m`, tracked apart from the spectrum.
    """

    spectrum: SphereSpectrum
    m: int
    q_max: int
    min_relation_degree: int

    def rank(self, q: int) -> int:
        """Rational homotopy rank in degree q, for q inside the valid window."""
        if not 3 <= q <= self.q_max:
            raise ValueError(
                f"wedge model is valid for 3 <= q <= {self.q_max}, got q={q}"
            )
        return rational_rank_wedge(self.spectrum, q)

    def rank_table(self) -> dict[int, int]:
        return {q: self.rank(q) for q in range(3, self.q_max + 1)}


def borel_model(F: FaceRingPresentation, rmin: int) -> WedgeModel:
    """Build the wedge model for a face ring presentation.

    Each ideal generator r contributes a sphere of dimension deg(r) - 1 (odd,
    since generators have even degree); `rmin` is the minimal relation degree
    and caps the window at q_max = rmin - 2.
    """
    if F.is_trivial:
        raise ValueError("the ideal is empty (full simplex): no wedge model")
    if len(F.generators) < 2:
        raise ValueError(
            "the wedge model needs a minimal relation degree, "
            "which needs at least two ideal generators"
        )
    q_max = rmin - 2
    dims = [g.degree - 1 for g in F.generators]
    spectrum = wedge_spectrum(dims, ceiling=q_max)
    return WedgeModel(spectrum=spectrum, m=F.m, q_max=q_max, min_relation_degree=rmin)
