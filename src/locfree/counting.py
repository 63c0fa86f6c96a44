"""
Exact big-integer word counts, logarithmic volumes, and spectra for
locally free groups and their quotients.

A normal form of s syllables is an admissible index sequence, in which
index b may follow index a iff b = a-1 or b > a, with one nonzero
exponent class per syllable. The succession matrix T_n, (T_n)_{ab} = 1
iff b may follow a, counts the index sequences of length s as
theta_n(s) = <v, T_n^{s-1} v>, v = (1, ..., 1). The variants differ
only in their syllable series h(z), whose z^j coefficient counts the
exponent classes of geodesic length j, and all of them share one form

    h(z) = z A(z) / (1 - d z),    A with at most three terms:

    group                 A = 2,                    d = 1
    semigroup             A = 1,                    d = 1
    projective (f^2 = f)  A = 1,                    d = 0
    restricted, r = 2     A = 1,                    d = 0
    restricted, r = 2m+1  A = 2 - 2 z^m,            d = 1
    restricted, r = 2m    A = 2 - z^(m-1) - z^m,    d = 1   (m >= 2)

since the classes mod r have two of each geodesic length 1..m, except
that an even r has one of length m. The count of reduced length K is
V(n, K) = sum_s [z^K] h^s theta_n(s). The vector series Y = sum_s h^s
T_n^{s-1} v obeys Y = h (v + T_n Y), so with Z_0 = v and Z_K = T_n Y_K

    Y_K = d Y_{K-1} + sum_j A_j Z_{K-1-j},    V(n, K) = sum_a (Y_K)_a.

That is Y_K = (2 T_n + I) Y_{K-1} for the group, (T_n + I) Y_{K-1} for
the semigroup and T_n Y_{K-1} for the projective variant, each from
Y_1 = A_0 v; the restricted variant adds the tail Z_{K-m} and
Z_{K-1-m} from a ring of the last m + 1 Z vectors. The same series
gives the restricted syllable counts N_r(K, s) = [z^{K-s}] g_r^s, with
g_r = A / (1 - d z), and every variant's growth base.

T_n is never stored. Its action has the suffix-sum form

    (T_n v)_a = v_{a-1} + sum_{b>a} v_b,    v_0 = 0,

one right-to-left pass of n big-int additions, so the counts for
K = 1..K_max of every variant cost O(n K_max) exact big-int additions.

The logarithmic volume v = lim_K log(V(K)/V(K-1)) follows from the top
eigenvalue of T_n. The characteristic polynomial a_n(x) = det(T_n - xI)
obeys a_k = -(x+1)(a_{k-1} + a_{k-2}) with a_0 = 1, a_1 = -x, which
substitutes into Chebyshev polynomials of the second kind; its roots are
x = 4 cos^2(pi k / (n+2)) - 1 for k = 1..floor((n+1)/2) plus -1 with
multiplicity n - floor((n+1)/2). The high multiplicity of -1 makes
generic dense eigensolvers useless here (they scatter that cluster by
roughly eps^(1/multiplicity), around 1e-1 for n = 30). So each simple
root is bracketed around its closed-form value and then bisected over
doubles, every step decided by an exact Sturm-type sign count of the
recursion, run in scaled big integers at the double being tested. The
root comes out as the correctly rounded double, certified by the counts
alone, in about 5 counts. The top eigenvalue alone costs one such search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from locfree.core import GROUP, PROJECTIVE, RESTRICTED, SEMIGROUP, _check_variant

# The sweep costs O(n k_max) big-int additions: (n, k_max) = (1000, 1000)
# took 0.97 s, (317, 3940) 3.2 s and (10^6, 2) 0.29 s at 106 MB RSS on a
# 2-vCPU VM with Python 3.11. The restricted ring holds up to m + 1 of the
# Z vectors: at (250, 4000) the peak RSS is 24 MB for r = 5 and 7999 and
# at most 364 MB, near r = 2700 (m about k_max / 3), on the same VM.
COUNT_MAX_K = 4000
COUNT_MAX_WORK = 1_000_000


def _check_count_budget(n: int, k_max: int) -> None:
    """
    Refuse k_max > COUNT_MAX_K or n k_max > COUNT_MAX_WORK, before work.

    The k_max cap keeps every printed count under Python's 4300-digit
    int-to-str limit (sys.get_int_max_str_digits), left as it is. Every
    variant's V(n, K) is at most the group's, sum_s 2^s C(K-1, s-1)
    theta_n(s) (N_r(K, s) <= 2^s C(K-1, s-1): each class mod r has an
    integer of its geodesic length), whose terms grow with n and K; so
    the largest admitted count is the group's on the edge n K =
    COUNT_MAX_WORK. The group grows by a factor tending to 2 lambda_max
    + 1 < 7 per letter, 0.845 digits per K, plus an offset set by n: at
    (n, K) = (253, 4000), 3380 + 71 digits. A scan of the whole edge,
    each block of K bounded by its largest n and K, found 3451 digits
    at most.
    """
    if k_max > COUNT_MAX_K or n * k_max > COUNT_MAX_WORK:
        raise ValueError(
            f"counts are budgeted for k_max <= {COUNT_MAX_K} and "
            f"n * k_max <= {COUNT_MAX_WORK}, got n = {n}, k_max = {k_max}"
        )


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


def _syllable_series(variant: str, r: int | None) -> tuple[tuple[tuple[int, int], ...], int]:
    """
    (A, d) with h(z) = z A(z) / (1 - d z), A as its (j, A_j) terms in
    ascending j; d = 0 only with A = 1.
    """
    if variant == GROUP:
        return ((0, 2),), 1
    if variant == SEMIGROUP:
        return ((0, 1),), 1
    if variant == PROJECTIVE or r == 2:
        return ((0, 1),), 0
    m = r // 2
    if r % 2:
        return ((0, 2), (m, -2)), 1
    return ((0, 2), (m - 1, -1), (m, -1)), 1


def _succession_sweep(n: int, k_max: int, numer, d: int) -> list[int]:
    """
    [V(n, 1), ..., V(n, k_max)] for the syllable series z A(z)/(1 - d z):
    Y_K = d Y_{K-1} + sum_j A_j Z_{K-1-j}, Z_0 = v, Z_K = T_n Y_K.

    Terms with j >= k_max never reach a count. The tail terms (j >= 1)
    read Z_{K-1-j} from a ring of the last max j + 1 Z vectors, ring[j];
    a Z_K that no tail term reads before k_max, K >= k_max - min j, is
    held there as None.
    """
    (_, a0), *tail = [(j, a) for j, a in numer if j < k_max]
    keep = k_max - tail[0][0] if tail else 0
    z = [1] * n
    ring = deque([z], maxlen=tail[-1][0] + 1 if tail else 1)
    y = [0] * n
    out = []
    for K in range(1, k_max + 1):
        y = [u + a0 * w for u, w in zip(y, z)] if d else z
        for j, a in tail:
            if j < K:
                y = [u + a * w for u, w in zip(y, ring[j])]
        out.append(sum(y))
        if K < k_max:
            z = _succession_step(y)
            ring.appendleft(z if K < keep else None)
    return out


def restricted_syllable_count(r: int, K: int, s: int) -> int:
    """
    N_r(K, s): tuples of s nonzero exponent classes mod r with geodesic
    lengths summing to K, as the z^{K-s} coefficient of g_r(z)^s with
    g_r = A / (1 - d z): s passes of the sparse A, each followed by a
    running sum when d = 1.
    """
    if not 1 <= s <= K:
        raise ValueError("need 1 <= s <= K")
    if r < 2:
        raise ValueError("r must be >= 2")
    numer, d = _syllable_series(RESTRICTED, r)
    target = K - s
    power = [1] + [0] * target  # g_r^0, truncated at z^target
    for _ in range(s):
        power = [
            sum(a * power[i - j] for j, a in numer if j <= i) for i in range(target + 1)
        ]
        if d:
            power = list(accumulate(power))
    return power[target]


def count_words(n: int, K: int, variant: str, r: int | None = None) -> int:
    """Exact number of distinct elements of reduced length exactly K."""
    return count_words_range(n, K, variant, r)[K - 1]


def count_words_range(n: int, k_max: int, variant: str, r: int | None = None) -> list[int]:
    """
    [V(n, 1), ..., V(n, k_max)], every prefix count from one sweep of
    the suffix-sum succession step: O(n k_max) exact big-int additions
    for every variant.
    """
    _check_variant(variant, r)
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    _check_count_budget(n, k_max)
    return _succession_sweep(n, k_max, *_syllable_series(variant, r))


# ---------------------------------------------------------------------------
# Spectrum

# Largest n admitted by spectrum_numeric and lambda_max, checked before
# any work. A sign count costs ~n^2 and a root about 5 of them, so the
# spectrum costs ~n^3 and lambda_max ~n^2: 0.9 s at n = 400 and 0.6 s at
# n = 6000 on a 2-vCPU VM with Python 3.11 (4.6 s and 3.7 s with the
# bisection of all of (-1, 3) that the closed-form brackets replaced).
SPECTRUM_MAX_N = 400
LAMBDA_MAX_N = 6000


def _admit(n: int, bound: int, what: str) -> None:
    """The degree budget, then the self-check that no root is >= 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > bound:
        raise ValueError(f"{what} is budgeted for n <= {bound}, got n = {n}")
    if _sign_count(n, 3.0)[0]:
        raise ArithmeticError(f"a_{n} has a root at or above 3")


def _sign_count(n: int, x) -> tuple[int, bool]:
    """
    (number of roots of a_n other than -1 at or above x, whether x is a
    root) for a double or Fraction x = p/q > -1, exactly: b_k = q^k a_k(x)
    obeys b_0 = 1, b_1 = -p, b_k = -(p+q)(b_{k-1} + q b_{k-2}), and the
    count is n minus the sign changes of b_0..b_n, zeros skipped.

    Why: s = sqrt(x+1) and a_k = (-s)^k u_k give u_k = s u_{k-1} - u_{k-2},
    u_0 = 1, u_1 = s - 1/s, the leading minors det(s I - J_k(s)) of the
    Jacobi matrix J(s) with diagonal (1/s, 0, ..., 0) and unit
    off-diagonal. By Sturm, the sign changes of u count the eigenvalues
    of J_n(s) above s, and they are the sign agreements of a. Each
    eigenvalue of J(s) is nonincreasing in s, so it lies above s exactly
    for s below the one point where it crosses s; the crossings are the
    roots of a_n above -1. A zero b_k, k < n, gives b_{k+1} the sign
    opposite to b_{k-1}, one change in a and in u alike; a zero b_n makes
    x a root, and by strict interlacing J_{n-1}(s) has as many
    eigenvalues above s as J_n(s), so skipping it counts x itself.
    """
    p, q = x.as_integer_ratio()
    c = -(p + q)
    prev, cur = 1, -p
    positive = True  # sign of the last nonzero term; b_0 = 1
    changes = 0
    for k in range(n):
        if k:
            prev, cur = cur, c * (cur + q * prev)
        if cur and (cur > 0) != positive:
            positive = not positive
            changes += 1
    return n - changes, cur == 0


def _cosine_root(n: int, k: int, offset: int = 2) -> float:
    """4 cos^2(pi k/(n+offset)) - 1 in doubles: the k-th root of a_n for offset 2."""
    return 4.0 * math.cos(math.pi * k / (n + offset)) ** 2 - 1.0


def _eigenvalue(n: int, k: int) -> float:
    """
    The k-th largest root of a_n other than -1, correctly rounded.

    Keeps at least k roots at or above lo and fewer than k at or above
    hi, from the known ends lo = -1 (every simple root is above it) and
    hi = 3 (_admit counted none at or above it), and moves one end to
    each point counted between them. The first points come from the
    closed-form guess g = 4 cos^2(pi k/(n+2)) - 1 and the absolute unit
    u = ulp(max(|g|, 1)):

    - g's nearest integer, if g is within 4 u of it: the only rational
      roots other than -1 are 0, 1 and 2, as 4 cos^2 t - 1 = 1 + 2 cos 2t,
      and at every admitted n their guesses miss them by at most 2 u;
    - g - u, g + u, g - 4 u, g + 4 u, g - 16 u and g + 16 u: measured
      over every root of a_n for n <= 400 and the top root at every
      multiple of 250 up to n = 6000, the guess misses its root by at
      most 5 u (first at n = 177, k = 44), so the ends meet around it
      within 16 u;
    - 0, so that no guess can leave the root 0 to be bisected down
      through the subnormals (over 1000 counts).

    A point not strictly between the current ends is skipped uncounted.

    Then bisection over doubles runs until the ends are adjacent, and
    the sign count at their exact midpoint picks the nearer one. A
    counted point that is itself the k-th root is returned as is; every
    other root is irrational, so the exact midpoint is never a tie. With
    the closed form's guess a root takes about 5 counts, and a rational
    one 1; a wrong guess costs more counts but no bit of the result,
    which the exact counts alone decide.
    """
    g = _cosine_root(n, k)
    u = math.ulp(max(abs(g), 1.0))
    near = float(round(g))
    first = [near] if abs(g - near) <= 4 * u else []
    points = iter(first + [g - u, g + u, g - 4 * u, g + 4 * u, g - 16 * u, g + 16 * u, 0.0])
    lo, hi = -1.0, 3.0
    while (x := next(points, None)) is not None or lo < (x := (lo + hi) / 2) < hi:
        if not lo < x < hi:
            continue  # a point outside the ends tells nothing new
        count, is_root = _sign_count(n, x)
        if count < k:
            hi = x
        elif is_root and count == k:
            return x
        else:
            lo = x
    return hi if _sign_count(n, (Fraction(lo) + Fraction(hi)) / 2)[0] >= k else lo


def spectrum_numeric(n: int) -> list[float]:
    """
    All n eigenvalues of T_n, descending, each correctly rounded.

    The roots of a_n other than -1, as many as the sign count just
    above -1, come one by one from _eigenvalue, and -1 fills the rest.
    Checked: no root lies at or above 3, and the eigenvalues sum to
    trace(T_n) = 0 within 1e-9 n. The closed form 4 cos^2(pi k/(n+2)) - 1
    is only each root's starting guess: exact sign counts alone certify
    every bit, so the cosine formula can still be tested against this
    output.
    """
    _admit(n, SPECTRUM_MAX_N, "the full spectrum")
    simple = _sign_count(n, math.nextafter(-1.0, 0.0))[0]
    eigs = [_eigenvalue(n, k) for k in range(1, simple + 1)]
    eigs += [-1.0] * (n - simple)
    if abs(math.fsum(eigs)) > 1e-9 * n:
        raise ArithmeticError(f"eigenvalues of T_{n} do not sum to its trace 0")
    return eigs


def cosine_formula_spectrum(n: int, offset: int = 2) -> list[float]:
    """
    Closed-form eigenvalue candidates 4 cos^2(pi k/(n+offset)) - 1 for
    k = 1..floor((n+1)/2), padded with -1 to length n. The list is
    descending as built: pi k/(n+offset) stays in (0, pi/2], where the
    squared cosine falls, and every candidate is >= -1.
    offset=2 matches the characteristic polynomial's roots; offset=1 is
    a nearby wrong variant kept as a control so the comparison in the
    spectrum report demonstrably discriminates between the two.
    """
    top = [_cosine_root(n, k, offset) for k in range(1, (n + 1) // 2 + 1)]
    return top + [-1.0] * (n - len(top))


# ---------------------------------------------------------------------------
# Logarithmic volume


def lambda_max(n: int) -> float:
    """Top eigenvalue of T_n, alone; increases to 3 as n grows."""
    _admit(n, LAMBDA_MAX_N, "the top eigenvalue")
    return _eigenvalue(n, 1)


def limit_log_volume(variant: str, r: int | None = None, n: int | None = None) -> float:
    """
    The K -> infinity logarithmic volume lim log(V(K)/V(K-1)).

    With n given this uses the exact finite-n top eigenvalue; with
    n=None it returns the n -> infinity value (top eigenvalue 3):
    log 7 (group), log 4 (semigroup), log 3 (projective), and for the
    restricted variant log 3, log 6, log(3 + 2 sqrt 3), ... increasing
    to log 7 as r grows. At n = 1 the projective and restricted
    quotients are finite, and this raises ValueError.
    """
    _check_variant(variant, r)
    return _log_growth(variant, r, 3.0 if n is None else lambda_max(n))


def _log_growth(variant: str, r: int | None, lam: float) -> float:
    """
    The logarithmic volume at top eigenvalue lam: log(1/z*), z* the
    positive root of lam h(z) = 1, that is of lam z A(z) = 1 - d z.

    A one-term A = A_0 gives 1/z* = lam A_0 + d exactly. Otherwise h has
    nonnegative coefficients, so lam h is strictly increasing on [0, 1),
    and z* is bisected over doubles until the two ends are adjacent.
    lam = 0 only at n = 1, where the counts are h's coefficients; when h
    is a polynomial (d = 0 or A(1) = 0: the projective and every
    restricted variant) the quotient is finite and this raises ValueError.
    """
    numer, d = _syllable_series(variant, r)
    if lam == 0.0 and (d == 0 or sum(a for _, a in numer) == 0):
        raise ValueError(
            f"volume is undefined for the {variant} variant at n=1: its word counts vanish"
        )
    if len(numer) == 1:
        return math.log(lam * numer[0][1] + d)
    lo, hi = 0.0, 1.0
    while lo < (z := 0.5 * (lo + hi)) < hi:
        if lam * z * sum(a * z**j for j, a in numer) < 1.0 - d * z:
            lo = z
        else:
            hi = z
    return math.log(1.0 / (0.5 * (lo + hi)))


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
    _check_variant(variant, r)
    # first, so that an n over the eigenvalue budget fails before counting
    lam = lambda_max(n)
    counts = count_words_range(n, k_max, variant, r)
    finite_n_limit = _log_growth(variant, r, lam)  # before any ratio of vanishing counts
    ratios = [counts[k] / counts[k - 1] for k in range(1, k_max)]  # int / int rounds correctly
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
        finite_n_limit=finite_n_limit,
        asymptotic_limit=limit_log_volume(variant, r),
    )
