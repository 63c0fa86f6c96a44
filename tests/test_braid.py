import math

import pytest

from locfree import braid, walk


def test_volume_bounds_free_group_case():
    lo, hi = braid.volume_bounds(2)
    assert hi == pytest.approx(math.log(3), abs=1e-12)
    assert lo == pytest.approx(0.5 * math.log(3), abs=1e-12)


def test_volume_bounds_approach_log7():
    uppers = [braid.volume_bounds(n)[1] for n in (10, 25, 50, 100)]
    assert all(a < b for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] < math.log(7)
    assert math.log(7) - uppers[-1] < 2e-3
    for n in (10, 100):
        lo, hi = braid.volume_bounds(n)
        assert lo == pytest.approx(hi / 2, abs=1e-12)


def test_volume_bounds_semigroup():
    lo, hi = braid.volume_bounds(100, variant="semigroup")
    assert math.log(4) - hi < 1e-2
    assert hi < math.log(4)
    assert lo == pytest.approx(hi / 2, abs=1e-12)


def test_volume_bounds_guard():
    with pytest.raises(ValueError):
        braid.volume_bounds(1)


def test_drift_bounds_values():
    assert braid.drift_bounds(0.0) == pytest.approx((1 / 3, 2 / 3), abs=1e-12)
    assert braid.drift_bounds(0.25) == pytest.approx((7 / 22, 7 / 11), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.7, -2.0])
def test_drift_bounds_domain(alpha):
    # the underlying statement needs |alpha| < 1/2 strictly
    with pytest.raises(ValueError):
        braid.drift_bounds(alpha)


def test_closed_form_epsilon():
    assert braid.closed_form_epsilon(0.0) == pytest.approx(
        (2 / 3) * math.log(7) - math.log(3), abs=1e-12
    )
    assert braid.closed_form_epsilon(0.5) == pytest.approx(0.2513, abs=5e-4)
    assert braid.closed_form_epsilon(-0.5) == pytest.approx(0.1372, abs=5e-4)


def test_inequality_report_paper_constants():
    rep = braid.inequality_report(math.log(7), 2 / 3, math.log(3))
    assert rep.epsilon == pytest.approx(0.199, abs=5e-4)
    assert rep.epsilon > 0
    assert rep.grid_min_epsilon > 0
    # the grid minimum sits at the left edge of (-1/2, 1/2)
    assert rep.grid_min_epsilon == pytest.approx(0.1372, abs=1e-3)
    assert rep.grid_argmin_alpha < -0.49


def test_inequality_free_group_identity():
    rep = braid.inequality_report(math.log(3), 0.5, 0.5 * math.log(3))
    assert abs(rep.epsilon) < 1e-12


def test_inequality_validation(monkeypatch):
    with pytest.raises(ValueError):
        braid.inequality_report(math.log(7), 0.0, 1.0)
    with pytest.raises(ValueError):
        braid.inequality_report(math.log(7), 1.5, 1.0)
    with pytest.raises(ValueError):
        braid.inequality_report(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        braid.inequality_report(math.log(7), 0.5, math.inf)
    # a nonpositive grid minimum is reported as an inconsistency
    monkeypatch.setattr(braid, "closed_form_epsilon", lambda alpha: 0.0)
    with pytest.raises(ArithmeticError, match="strict positivity"):
        braid.inequality_report(math.log(7), 2 / 3, math.log(3))


def test_bounds_report_consistency():
    rep = braid.bounds_report(100)
    assert rep.volume_upper == rep.v_lf
    assert rep.volume_lower == pytest.approx(rep.v_lf / 2, abs=1e-12)
    assert rep.drift_lower, rep.drift_upper == braid.drift_bounds(rep.alpha_used)
    assert rep.epsilon > 0
    assert rep.alpha_used == 0.0


def test_drift_bounds_nest_measured_walk():
    # feeding the measured alpha back, the measured locally-free drift
    # falls inside the predicted braid bracket
    p = walk.WalkParams(n=50, steps=150_000, trials=3, seed=23, mode="group")
    report, _ = walk.run_walk(p)
    lo, hi = braid.drift_bounds(report["alpha_hat"])
    assert lo < report["drift_mean"] <= hi


def _swept_report(v, l, h):
    """inequality_report with its grid minimum found by sweeping the whole grid."""
    steps = int(round(1.0 / braid.GRID_STEP))
    grid = [0.5 * k / steps for k in range(-steps + 1, steps)]
    values = [braid.closed_form_epsilon(a) for a in grid]
    assert all(a < b for a, b in zip(values, values[1:]))  # eps increases along the grid
    best = min(values)
    return braid.InequalityReport(
        v=v, l=l, h=h, epsilon=l * v - h,
        grid_min_epsilon=best, grid_argmin_alpha=grid[values.index(best)],
        grid_step=braid.GRID_STEP,
    )


@pytest.mark.parametrize(
    "v,l,h",
    [(math.log(7), 2 / 3, math.log(3)), (math.log(3), 0.5, 0.5 * math.log(3)), (1.0, 1.0, 2.0)],
)
def test_inequality_grid_minimum_equals_the_sweep(v, l, h):
    rep = braid.inequality_report(v, l, h)
    assert rep == _swept_report(v, l, h)
    assert rep.grid_min_epsilon == 0.13723628335425908
