"""
Independent exact reference for the stationary roof of the semigroup walk.

In semigroup mode column j is in the roof iff it was pushed more
recently than both neighbours, an unpushed column counting as oldest.
Once every column has been pushed, the order of the last pushes is a
uniform random permutation of the n columns, because i.i.d. letters are
exchangeable. So the stationary roof is the peak set of a uniform
permutation of n with both ends padded by 0: position j is a peak when
its value exceeds both neighbours'.

The number P(m, k) of permutations of m with k such peaks obeys

    P(m, k) = 2k P(m-1, k) + (m-2k+2) P(m-1, k-1),    P(1, 1) = 1,

(insert the value m into a permutation of m-1: on either side of one of
its k peaks it keeps the count, in any of the other m - 2k + 2 gaps it
adds a peak), so the exact law of |T| costs O(n^2) integer steps. An
interior position is a peak with probability 1/3 and an end one with
1/2, so E|T| = (n+1)/3 for n >= 2. Deliberately shares no code with the
package under test.
"""

import math
from fractions import Fraction


def peak_counts(m: int) -> list[int]:
    """[P(m, k) for k = 0..m], which sums to m!."""
    if m < 1:
        raise ValueError("need m >= 1")
    counts = [0, 1]  # m = 1
    for size in range(2, m + 1):
        prev = counts + [0]
        counts = [
            2 * k * prev[k] + ((size - 2 * k + 2) * prev[k - 1] if k else 0)
            for k in range(size + 1)
        ]
    return counts


def roof_law(n: int) -> list[Fraction]:
    """[P(|T| = k) for k = 0..n] in the stationary semigroup walk on n columns."""
    total = math.factorial(n)
    return [Fraction(c, total) for c in peak_counts(n)]


def roof_density(n: int) -> Fraction:
    """E|T| / n as an exact Fraction."""
    return sum(k * p for k, p in enumerate(roof_law(n))) / n


def log_roof_mean(n: int) -> float:
    """E[log(n / |T|)], the stationary entropy rate of the semigroup walk."""
    total = math.factorial(n)
    return sum(c / total * math.log(n / k) for k, c in enumerate(peak_counts(n)) if c)
