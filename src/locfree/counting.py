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
roughly eps^(1/multiplicity), around 1e-1 for n = 30), so each simple
root is found by bisection on an exact Sturm-type sign count of the
recursion, run in scaled big integers at the double being tested, and
comes out as the correctly rounded double. The top eigenvalue alone
costs one such bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


# The sweep costs O(n k_max) big-int additions: (n, k_max) = (1000, 1000)
# took 0.97 s, (317, 3940) 3.2 s and (10^6, 2) 0.29 s at 106 MB RSS on a
# 2-vCPU VM with Python 3.11.
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
    _check_count_budget(n, k_max)
    if variant == GROUP:
        return [2 * x for x in _succession_sweep(n, k_max, 2, 1)]
    if variant == SEMIGROUP:
        return _succession_sweep(n, k_max, 1, 1)
    if variant == PROJECTIVE:
        return _succession_sweep(n, k_max, 1, 0)
    return _restricted_counts(n, k_max, r)


# ---------------------------------------------------------------------------
# Spectrum

# Largest n admitted by spectrum_numeric and lambda_max, checked before
# any work. The spectrum costs ~n^3 and lambda_max ~n^2: 6.6 s at n = 400
# and 4.8 s at n = 6000 on a 2-vCPU VM with Python 3.11.
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


def _eigenvalue(n: int, k: int) -> float:
    """
    The k-th largest root of a_n other than -1, correctly rounded.

    Bisects over doubles in (-1, 3), keeping at least k roots at or
    above lo and fewer than k at or above hi, until the two ends are
    adjacent doubles; the sign count at their exact midpoint then picks
    the nearer one. A midpoint that is itself the k-th root is returned
    as is (the roots 0, 1 and 2, for 3, 4 or 6 dividing n+2); every
    other root is irrational, so the exact midpoint is never a tie.
    """
    lo, hi = -1.0, 3.0
    while lo < (mid := (lo + hi) / 2) < hi:
        count, is_root = _sign_count(n, mid)
        if count < k:
            hi = mid
        elif is_root and count == k:
            return mid
        else:
            lo = mid
    return hi if _sign_count(n, (Fraction(lo) + Fraction(hi)) / 2)[0] >= k else lo


def spectrum_numeric(n: int) -> list[float]:
    """
    All n eigenvalues of T_n, descending, each correctly rounded.

    The roots of a_n other than -1, as many as the sign count just
    above -1, come one by one from an exact sign-count bisection on the
    recursion, and -1 fills the rest. Checked: no root lies at or above
    3, and the eigenvalues sum to trace(T_n) = 0 within 1e-9 n. The
    closed form 4 cos^2(pi k/(n+2)) - 1 is deliberately not used here,
    so the cosine formula can be tested against this output.
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
    """Top eigenvalue of T_n, alone; increases to 3 as n grows."""
    _admit(n, LAMBDA_MAX_N, "the top eigenvalue")
    return _eigenvalue(n, 1)


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
    # first, so that an n over the eigenvalue budget fails before counting
    finite_n_limit = limit_log_volume(variant, r, n)
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
        finite_n_limit=finite_n_limit,
        asymptotic_limit=limit_log_volume(variant, r),
    )
