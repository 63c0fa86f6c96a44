"""
Bilateral bounds for the braid group B_{n+1} from locally free statistics.

Index convention: the locally free group LF_n at a given n is set
against B_{n+1}, the braid group on n + 1 strands, whose n Artin
generators sigma_1, ..., sigma_n match f_1, ..., f_n. The squares
sigma_i^2 generate a locally free subgroup, so f_i -> sigma_i^2 embeds
LF_n in B_{n+1}; and B_{n+1} is the quotient of LF_n under
f_i -> sigma_i, which adds the braid relations
sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1}.
Squeezing the braid ball between these two yields, at every n,
bilateral estimates in terms of the locally free logarithmic volume
v_LF(n):

    v_LF(n) / 2  <  v(B_{n+1})  <=  v_LF(n),

with the n -> infinity edges (1/2) log 7 and log 7 (and log 2, log 4
for the positive semigroup). The drift of the uniform walk obeys

    (2 - a) / (2 (3 - a))  <  l(B_{n+1})  <=  (2 - a) / (3 - a),

where a is the roof-growth asymmetry measured by walk.alpha_estimate
and |a| < 1/2. Volume v, drift l, and entropy h of any group walk
satisfy l v >= h; the discrepancy of the locally free triple

    eps(a) = ((2 - a) / (3 - a)) log 7 - log(3 - a)

stays strictly positive on |a| < 1/2, which is what makes the drift
bound above nontrivial, while the free group F_2 attains equality:
(1/2) log 3 = h = l v exactly. No entropy bounds for braid groups are offered;
only volume and drift transfer through the embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from locfree import counting
from locfree.core import GROUP, _check_mode

LOG7 = math.log(7.0)


@dataclass(frozen=True)
class BoundsReport:
    """Numeric bounds for B_{n+1} derived from the locally free group LF_n."""

    n: int
    v_lf: float  # exact finite-n locally free volume
    volume_lower: float
    volume_upper: float
    drift_lower: float
    drift_upper: float
    alpha_used: float
    epsilon: float  # l v - h for the reported (v, l, h) triple


def volume_bounds(n: int, variant: str = GROUP) -> tuple[float, float]:
    """
    (v_LF(n)/2, v_LF(n)) squeezing v(B_{n+1}), group or positive semigroup.

    Uses the exact finite-n volume from the spectrum: the embedding
    f_i -> sigma_i^2 and the quotient map f_i -> sigma_i work at every
    fixed n, not just in the limit.
    The lower edge is an open bound; whether it can be attained at
    finite n is not settled.
    """
    if n < 2:
        raise ValueError("braid bounds need n >= 2")
    _check_mode(variant)
    v = counting.limit_log_volume(variant, n=n)
    return v / 2.0, v


def drift_bounds(alpha: float) -> tuple[float, float]:
    """((2-a)/(2(3-a)), (2-a)/(3-a)); requires |alpha| < 1/2."""
    if not abs(alpha) < 0.5:
        raise ValueError("drift bounds require |alpha| < 1/2")
    upper = (2.0 - alpha) / (3.0 - alpha)
    return upper / 2.0, upper


def closed_form_epsilon(alpha: float) -> float:
    """eps(a) = ((2-a)/(3-a)) log 7 - log(3-a)."""
    return (2.0 - alpha) / (3.0 - alpha) * LOG7 - math.log(3.0 - alpha)


@dataclass(frozen=True)
class InequalityReport:
    """Result of checking l v >= h for one (v, l, h) triple."""

    v: float
    l: float
    h: float
    epsilon: float  # l v - h
    grid_min_epsilon: float  # min of eps(a) over the alpha grid
    grid_argmin_alpha: float
    grid_step: float


# inequality_report takes the minimum of eps(a) over alpha = k * GRID_STEP / 2
# for every integer k with alpha strictly inside (-1/2, 1/2).
GRID_STEP = 1e-3


def inequality_report(v: float, l: float, h: float) -> InequalityReport:
    """
    The discrepancy eps = l v - h, together with the minimum of the
    closed form eps(a) over a grid on (-1/2, 1/2). The minimum must come
    out strictly positive (it does, about 0.137); a nonpositive value
    would mean the drift and volume constants are inconsistent, so it
    raises rather than reports.

    eps'(a) = (3 - a - log 7) / (3 - a)^2 > 0 on (-1/2, 1/2), so eps
    increases there and the grid minimum is its first point; the double
    values increase strictly along the grid too.
    """
    if not 0.0 < l <= 1.0:
        raise ValueError("drift l must lie in (0, 1]")
    if v <= 0.0 or not all(map(math.isfinite, (v, l, h))):
        raise ValueError("need finite v > 0, finite h")
    eps = l * v - h
    steps = int(round(1.0 / GRID_STEP))
    best_alpha = 0.5 * (-steps + 1) / steps
    best = closed_form_epsilon(best_alpha)
    if best <= 0.0:
        raise ArithmeticError("eps(alpha) grid minimum failed strict positivity")
    return InequalityReport(
        v=v, l=l, h=h, epsilon=eps,
        grid_min_epsilon=best, grid_argmin_alpha=best_alpha, grid_step=GRID_STEP,
    )


def bounds_report(n: int, alpha: float = 0.0) -> BoundsReport:
    """
    Full numeric report for B_{n+1}: volume bounds from the exact finite-n
    locally free volume, drift bounds at the supplied alpha (measured
    by the walk when available, 0 by default), and the discrepancy of
    the triple (v_lf, drift upper bound, log(3 - alpha)).
    """
    vol_lo, vol_hi = volume_bounds(n, GROUP)
    drift_lo, drift_hi = drift_bounds(alpha)
    eps = drift_hi * vol_hi - math.log(3.0 - alpha)
    return BoundsReport(
        n=n,
        v_lf=vol_hi,
        volume_lower=vol_lo,
        volume_upper=vol_hi,
        drift_lower=drift_lo,
        drift_upper=drift_hi,
        alpha_used=alpha,
        epsilon=eps,
    )
