"""Sphere bookkeeping for loop spaces of wedges of odd spheres.

The loop space of a wedge of spheres splits as a product of loop spaces of
single spheres, one per basic product in the free nonassociative algebra on
the wedge summands.  A basic product of generators S^(D_1+1), ..., S^(D_w+1)
contributes a sphere of dimension D_1 + ... + D_w + 1, and the number L_n of
spheres of dimension n + 1 is given by the graded Witt formula (Kang-Kim,
J. Algebra 183, 1996), which reads only the histogram a_D of generators
S^(D+1), the one argument besides a ceiling that `wedge_spectrum` takes:

    c_n = n * a_n + sum over 0 < j < n of a_j * c_(n-j)     (c = t a'/(1 - a))
    c_n = sum over d | n of d * L_d

so each n * L_n is c_n less the terms of its proper divisors.  For k copies
of S^3 (a = k t^2), c_(2w) = 2 k^w and L_(2w) is the Witt number W(k, w),
with k^w = sum over d | w of d * W(k, d).  Everything here is exact integer
arithmetic; spectra are always truncated at an explicit ceiling, above which
multiplicities are unknown rather than zero.
"""

from .gale import Record, check_subset_count

__all__ = [
    "SphereSpectrum",
    "wedge_spectrum",
]


class SphereSpectrum(Record):
    """Multiset of sphere dimensions (all odd, >= 3) with multiplicities,
    truncated at `ceiling`.  Dimensions above the ceiling are unknown, not
    zero."""

    __slots__ = ()

    def __new__(cls, entries: dict[int, int], ceiling: int):
        if ceiling < 0:
            raise ValueError(f"the ceiling must be nonnegative, got {ceiling}")
        for dim, mult in entries.items():
            if dim % 2 == 0 or dim < 3:
                raise ValueError(f"sphere dimensions must be odd and >= 3, got {dim}")
            if dim > ceiling:
                raise ValueError(f"dimension {dim} exceeds ceiling {ceiling}")
            if mult < 1:
                raise ValueError(f"multiplicities are positive, got {mult} at {dim}")
        return super().__new__(cls, (entries, ceiling))


def wedge_spectrum(histogram, ceiling: int) -> SphereSpectrum:
    """Sphere spectrum of the loop-space splitting of a wedge of odd spheres
    up to the ceiling, the wedge given by its histogram: {D + 1: a_D}, a_D
    summands S^(D+1) for each sphere dimension D + 1.

    The graded Witt formula reads only that histogram.  Its c_n recurrence
    sums over the nonzero a_D alone: at each n below the ceiling, one
    product per sphere dimension of the wedge, whatever the summand count.
    Each c_n has O(n) bits, so the bit work still grows as ceiling^2, and a
    ceiling whose dense recurrence (n - 1 products at each n) would need
    more than SUBSET_LIMIT products is refused before any of it.

    >>> wedge_spectrum({5: 16}, 9).entries == {5: 16, 9: 120}
    True
    >>> wedge_spectrum({3: 1, 5: 1}, 7).entries == {3: 1, 5: 1, 7: 1}
    True
    """
    # The dense c_n recurrence takes n - 1 products at each n below the
    # ceiling; a negative ceiling is left for SphereSpectrum to refuse.
    products = (ceiling - 1) * (ceiling - 2) // 2 if ceiling > 2 else 0
    check_subset_count(products, f"the Witt recurrence up to ceiling {ceiling}", "products")
    if not histogram:
        raise ValueError("need at least one wedge summand")
    a = [0] * ceiling  # a[D] for D < ceiling; larger D cannot reach the ceiling
    support = []  # (D, a_D) for each nonzero a[D], by increasing D
    for dim, count in sorted(histogram.items()):
        if dim % 2 == 0:
            raise ValueError(
                f"only wedges of odd-dimensional spheres are supported, got S^{dim}"
            )
        if dim < 3:
            raise ValueError(f"generator spheres must be simply connected, got S^{dim}")
        if count < 1:
            raise ValueError(f"summand counts are positive, got {count} at S^{dim}")
        if dim <= ceiling:
            a[dim - 1] = count
            support.append((dim - 1, count))
    c = [0] * ceiling
    below = [0] * ceiling  # below[n]: sum of d * L_d over the divisors d < n
    entries: dict[int, int] = {}
    for n in range(1, ceiling):
        c[n] = n * a[n] + sum([count * c[n - j] for j, count in support if j < n])
        total = c[n] - below[n]
        if total < 0 or total % n:
            raise ArithmeticError(f"Witt sum {total} is not a multiple of {n}")
        if total:
            entries[n + 1] = total // n
            for multiple in range(2 * n, ceiling, n):
                below[multiple] += total
    return SphereSpectrum(entries=entries, ceiling=ceiling)
