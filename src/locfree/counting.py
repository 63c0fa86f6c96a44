"""
Exact big-integer word counts, logarithmic volumes, and spectra for
locally free groups and their quotients.

Everything reduces to the succession matrix T_n of normal-form index
sequences: (T_n)_{ab} = 1 iff index b may follow index a, i.e. b = a-1
or b > a. The number of admissible index sequences of length s is

    theta_n(s) = <v, T_n^{s-1} v>,    v = (1, ..., 1),

and summing over exponent choices per syllable gives the element counts
of reduced length exactly K:

    group            V(n, K) = 2 <v, (2 T_n + I)^{K-1} v>
    semigroup        V(n, K) =   <v, (T_n + I)^{K-1} v>
    projective       V(n, K) = theta_n(K)
    restricted (r)   V(n, K) = sum_s N_r(K, s) theta_n(s)

where N_r(K, s) counts tuples of s nonzero exponent classes mod r whose
geodesic lengths sum to K. N_r is extracted from per-syllable
generating polynomials g_r: the z^j coefficient of g_r counts nonzero
classes of Z/rZ with geodesic length j+1, so N_r(K, s) = [z^{K-s}] g_r^s.
Explicitly g_2 = 1, g_{2m} = 2 + 2z + ... + 2z^{m-2} + z^{m-1}, and
g_{2m+1} = 2(1 + z + ... + z^{m-1}).

T_n is never stored. Its action has the suffix-sum form

    (T_n v)_a = v_{a-1} + sum_{b>a} v_b,    v_0 = 0,

one right-to-left pass of n big-int additions, so all four variants
come from one sweep of (c T_n + d I) applied to v, and the counts for
K = 1..K_max cost O(n K_max) exact big-int additions.

The logarithmic volume v = lim_K log(V(K)/V(K-1)) follows from the top
eigenvalue of T_n. The characteristic polynomial a_n(x) = det(T_n - xI)
obeys a_k = -(x+1)(a_{k-1} + a_{k-2}) with a_0 = 1, a_1 = -x, which
substitutes into Chebyshev polynomials of the second kind; its roots are
x = 4 cos^2(pi k / (n+2)) - 1 for k = 1..floor((n+1)/2) plus -1 with
multiplicity n - floor((n+1)/2). The high multiplicity of -1 makes
generic dense eigensolvers useless here (they scatter that cluster by
roughly eps^(1/multiplicity), around 1e-1 for n = 30), so the spectrum
is computed exactly: integer characteristic polynomial, exact division
by (x+1)^m, then the remaining simple roots to high precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from locfree.core import GROUP, SEMIGROUP

PROJECTIVE = "projective"
RESTRICTED = "restricted"

VARIANTS = (GROUP, SEMIGROUP, PROJECTIVE, RESTRICTED)


def _check_variant(variant: str, r) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == RESTRICTED:
        if r is None or r < 2:
            raise ValueError("restricted variant requires r >= 2")
    elif r is not None:
        raise ValueError("r is only meaningful for the restricted variant")


def _succession_step(vec: list[int]) -> list[int]:
    """
    T_n vec in O(n): (T v)_a = v_{a-1} + sum_{b>a} v_b with v_0 = 0,
    one right-to-left pass with a running suffix sum.
    """
    out = [0] * len(vec)
    suffix = 0
    for a in range(len(vec) - 1, -1, -1):
        out[a] = (vec[a - 1] if a else 0) + suffix
        suffix += vec[a]
    return out


def _succession_sweep(n: int, k_max: int, c: int, d: int) -> list[int]:
    """[<v, (c T_n + d I)^k v> for k = 0..k_max-1], v = (1, ..., 1)."""
    vec = [1] * n
    out = [n]
    for _ in range(k_max - 1):
        vec = [c * t + d * x for t, x in zip(_succession_step(vec), vec)]
        out.append(sum(vec))
    return out


def syllable_gf_coefficients(r: int) -> list[int]:
    """
    Coefficients of g_r(z); the z^j entry counts nonzero classes of
    Z/rZ whose geodesic length is j+1.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if r == 2:
        return [1]
    m = r // 2
    if r % 2 == 0:
        return [2] * (m - 1) + [1]
    return [2] * m


def _poly_mul(a, b, trunc=None):
    deg = len(a) + len(b) - 2
    if trunc is not None:
        deg = min(deg, trunc)
    out = [0] * (deg + 1)
    for i, x in enumerate(a):
        if x == 0 or i > deg:
            continue
        for j, y in enumerate(b):
            if i + j > deg:
                break
            out[i + j] += x * y
    return out


def restricted_syllable_count(r: int, K: int, s: int) -> int:
    """
    N_r(K, s): tuples of s nonzero exponent classes mod r with geodesic
    lengths summing to K, as the z^{K-s} coefficient of g_r(z)^s.
    """
    if not 1 <= s <= K:
        raise ValueError("need 1 <= s <= K")
    g = syllable_gf_coefficients(r)
    target = K - s
    power = [1]
    for _ in range(s):
        power = _poly_mul(power, g, trunc=target)
    return power[target] if target < len(power) else 0


def _restricted_counts(n: int, k_max: int, r: int) -> list[int]:
    """[V(n, 1), ..., V(n, k_max)] for the order-r restricted group."""
    thetas = _succession_sweep(n, k_max, 1, 0)
    g = syllable_gf_coefficients(r)
    counts = [0] * k_max
    power = [1]  # g^s, truncated as far as any K <= k_max can use it
    for s in range(1, k_max + 1):
        power = _poly_mul(power, g, trunc=k_max - s)
        for K in range(s, k_max + 1):
            j = K - s
            if j < len(power) and power[j]:
                counts[K - 1] += power[j] * thetas[s - 1]
    return counts


def count_words(n: int, K: int, variant: str, r: int | None = None) -> int:
    """Exact number of distinct elements of reduced length exactly K."""
    return count_words_range(n, K, variant, r)[K - 1]


def count_words_range(n: int, k_max: int, variant: str, r: int | None = None) -> list[int]:
    """
    [V(n, 1), ..., V(n, k_max)], every prefix count from one sweep of
    the suffix-sum succession step: O(n k_max) exact big-int additions.
    """
    _check_variant(variant, r)
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    if variant == GROUP:
        return [2 * x for x in _succession_sweep(n, k_max, 2, 1)]
    if variant == SEMIGROUP:
        return _succession_sweep(n, k_max, 1, 1)
    if variant == PROJECTIVE:
        return _succession_sweep(n, k_max, 1, 0)
    return _restricted_counts(n, k_max, r)


# ---------------------------------------------------------------------------
# Characteristic polynomial and spectrum


def charpoly_coefficients(n: int) -> list[int]:
    """
    Integer coefficients of a_n(x) = det(T_n - xI), highest degree
    first, from the two-term recursion with exact polynomial arithmetic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = [1]  # a_0
    if n == 0:
        return prev
    cur = [-1, 0]  # a_1 = -x
    for _ in range(n - 1):
        s = [0] * len(cur)
        for i, c in enumerate(prev):
            s[i + len(cur) - len(prev)] += c
        for i, c in enumerate(cur):
            s[i] += c
        # multiply by -(x + 1)
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(s):
            nxt[i] -= c
            nxt[i + 1] -= c
        prev, cur = cur, nxt
    return cur


def charpoly_eval(n: int, lam):
    """
    a_n(lam) via the scalar recursion a_k = -(lam+1)(a_{k-1} + a_{k-2}).

    Works over any ring Python arithmetic supports (float, Fraction,
    mpmath); exact for exact inputs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1 + 0 * lam
    a_prev, a = 1, -lam
    for _ in range(n - 1):
        a_prev, a = a, -(lam + 1) * (a + a_prev)
    return a


def _deflate_minus_one(coeffs: list[int]) -> tuple[list[int], int]:
    """Divide out every exact factor of (x + 1); returns (quotient, multiplicity)."""
    mult = 0
    cur = coeffs
    while len(cur) > 1:
        # synthetic division by (x - (-1))
        quot = [cur[0]]
        for c in cur[1:]:
            quot.append(c - quot[-1])
        if quot.pop() != 0:
            break
        cur = quot
        mult += 1
    return cur, mult


@lru_cache(maxsize=None)
def _spectrum(n: int) -> tuple[float, ...]:
    coeffs = charpoly_coefficients(n)
    reduced, mult = _deflate_minus_one(coeffs)
    simple: list[float] = []
    if len(reduced) > 1:
        # Durand-Kerner stalls on this family above degree ~12 at working
        # precision; extra internal precision proportional to the degree
        # restores convergence (verified up to n = 100).
        deg = len(reduced) - 1
        with mpmath.workdps(60):
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in reduced],
                maxsteps=100 + 20 * deg,
                extraprec=10 * deg,
            )
        for z in roots:
            if abs(mpmath.im(z)) > 1e-30:
                raise ArithmeticError(f"unexpected complex root of a_{n}: {z}")
            simple.append(float(mpmath.re(z)))
    eigs = sorted(simple + [-1.0] * mult, reverse=True)
    if len(eigs) != n:
        raise ArithmeticError("eigenvalue count mismatch")
    return tuple(eigs)


def spectrum_numeric(n: int) -> list[float]:
    """
    All n eigenvalues of T_n, descending, accurate to well below 1e-9.

    Exact integer characteristic polynomial, exact deflation of the
    (x+1)^m factor, then the remaining simple roots by high-precision
    polynomial root finding. The closed-form candidate positions
    4 cos^2(pi k/(n+2)) - 1 are deliberately not used here, so the
    cosine formula can be tested against this output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_spectrum(n))


def cosine_formula_spectrum(n: int, offset: int = 2) -> list[float]:
    """
    Closed-form eigenvalue candidates 4 cos^2(pi k/(n+offset)) - 1 for
    k = 1..floor((n+1)/2), padded with -1 to length n, descending.
    offset=2 matches the characteristic polynomial's roots; offset=1 is
    a nearby wrong variant kept as a control so the comparison in the
    spectrum report demonstrably discriminates between the two.
    """
    top = [
        4.0 * math.cos(math.pi * k / (n + offset)) ** 2 - 1.0
        for k in range(1, (n + 1) // 2 + 1)
    ]
    return sorted(top + [-1.0] * (n - len(top)), reverse=True)


# ---------------------------------------------------------------------------
# Logarithmic volume


def lambda_max(n: int) -> float:
    """Top eigenvalue of T_n; increases to 3 as n grows."""
    return spectrum_numeric(n)[0]


def _restricted_growth(lam: float, r: int) -> float:
    """
    Growth base of the order-r restricted group at top eigenvalue lam:
    1/z* where z* is the unique positive root of lam * z * g_r(z) = 1.

    z g_r(z) has nonnegative coefficients, so the left side is strictly
    increasing and bisection on [0, 1] suffices.
    """
    g = syllable_gf_coefficients(r)

    def f(z: float) -> float:
        acc = 0.0
        for c in reversed(g):
            acc = acc * z + c
        return lam * z * acc - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / (0.5 * (lo + hi))


def limit_log_volume(variant: str, r: int | None = None, n: int | None = None) -> float:
    """
    The K -> infinity logarithmic volume lim log(V(K)/V(K-1)).

    With n given this uses the exact finite-n top eigenvalue; with
    n=None it returns the n -> infinity value (top eigenvalue 3):
    log 7 (group), log 4 (semigroup), log 3 (projective), and for the
    restricted variant log 3, log 6, log(3 + 2 sqrt 3), ... increasing
    to log 7 as r grows.
    """
    _check_variant(variant, r)
    lam = 3.0 if n is None else lambda_max(n)
    if variant == GROUP:
        return math.log(2.0 * lam + 1.0)
    if variant == SEMIGROUP:
        return math.log(lam + 1.0)
    if variant == PROJECTIVE:
        return math.log(lam)
    return math.log(_restricted_growth(lam, r))


def log_volume_estimate(n: int, K: int, variant: str, r: int | None = None) -> float:
    """log(V(n, K) / V(n, K-1)) from exact counts."""
    if K < 2:
        raise ValueError("K must be >= 2")
    counts = count_words_range(n, K, variant, r)
    return math.log(float(Fraction(counts[K - 1], counts[K - 2])))


@dataclass(frozen=True)
class VolumeReport:
    """
    Convergence diagnostics for the volume of one variant at fixed n.

    log_ratios[k] is log(V(k+2)/V(k+1)); ratio_accelerated applies one
    Aitken delta-squared step to the last three successive ratios,
    which strips the leading geometric transient (the second eigenvalue
    contracts the raw ratio error only like (lam_2/lam_1)^K, far too
    slowly at large n); finite_n_limit and asymptotic_limit are the
    exact K -> infinity values at this n and at n -> infinity.
    """

    variant: str
    n: int
    k_max: int
    r: int | None
    log_ratios: tuple[float, ...]
    ratio_last: float
    ratio_accelerated: float | None
    finite_n_limit: float
    asymptotic_limit: float


def volume_report(n: int, k_max: int, variant: str, r: int | None = None) -> VolumeReport:
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    counts = count_words_range(n, k_max, variant, r)
    ratios = [
        float(Fraction(counts[k], counts[k - 1])) for k in range(1, k_max)
    ]
    accel = None
    if len(ratios) >= 3:
        r0, r1, r2 = ratios[-3], ratios[-2], ratios[-1]
        denom = r2 - 2.0 * r1 + r0
        if denom != 0.0:
            accel = r0 - (r1 - r0) ** 2 / denom
    return VolumeReport(
        variant=variant,
        n=n,
        k_max=k_max,
        r=r,
        log_ratios=tuple(math.log(x) for x in ratios),
        ratio_last=ratios[-1],
        ratio_accelerated=accel,
        finite_n_limit=limit_log_volume(variant, r, n),
        asymptotic_limit=limit_log_volume(variant, r),
    )
