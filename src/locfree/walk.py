"""
Seeded Monte Carlo random walks on the colored-heap representation.

Each step multiplies the current element by a uniformly chosen letter:
2n choices f_i^{+-1} in group mode, n positive choices in semigroup
mode. The heap makes a step O(1). A push into column i lands strictly
above both neighbours, so it sets the roof marks by rule: i joins, i-1
and i+1 leave. In group mode a letter that meets a roof top of the
opposite colour cancels it instead, and only then are the marks of
columns i-1, i, i+1 recomputed. The semigroup walk is exactly ballistic
deposition: cells only pile up, the word length equals the step count,
and the heap's height and density are surface-growth observables.

Measured quantities, per trial and over a stationary window that
discards the first burn_in steps (default 10 n, the roof's O(n)
relaxation scale):

  drift         final reduced length / steps (identically 1 in
                semigroup mode);
  roof density  time average of #T_j / n, where #T_j is the roof size
                after step j; approaches 1/3 for large n;
  entropy       semigroup: -(1/W) sum_j log(#T_j / n), the window mean
                of log(n / #T_j). It estimates the paper's roof
                functional E log(n/|T|), which tends to log 3 for large
                n; it is not the walk's entropy h(mu). group: the
                plug-in log(3 - alpha) of the measured alpha, since the
                2n-letter walk admits no direct trajectory estimator of
                this form;
  alpha         half the difference of the conditional probabilities
                that a reduction step grows vs shrinks the roof;
  heap geometry semigroup: height coefficient H n / N and cell density
                N / (n H) of the deposit.

Determinism: the letter stream of trial t is Philox counter-based
random bits keyed by the 64-bit pair (seed, t), reduced modulo the
letter count (bias below 2^-53 for n <= 2^10, since 2n divides into
2^64 that evenly). letter_stream is the one-call draw of the whole
stream; the walks read the same codes CHUNK at a time from one Philox
generator, which is counter-based, so the chunks are the one-call codes
bit for bit, and the tests hold the two equal at chunk edges. Identical
(params, trial_index) give bit-identical WalkStats on every platform:
the step kernels manipulate integers only, and every floating point
statistic is derived afterwards from those integers in a fixed order.
Each mode has its own integer loop. The group kernel keeps the heap as
one growable stack per column, so it cannot overflow; the semigroup
loop keeps only the tops and the roof marks, since a positive letter
never cancels and no semigroup statistic reads a buried cell.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from locfree.core import GROUP, SEMIGROUP, _check_mode

OPEN = "open"
PERIODIC = "periodic"

# Budgets per trial and per run, checked before any allocation. A group
# trial holds a 4-byte integer per heap cell, in its column's stack, one
# more list of n + 2 entries (the top colours) and one chunk of decoded
# letters; a semigroup trial holds the tops, the roof marks and the
# chunk; the roof chain only the chunk. Stacks are made in group mode
# only: a column's stack costs about 96 B (sys.getsizeof) once it is
# first pushed, so few steps per column cost more per step, and a group
# trial makes at most min(n, steps) stacks, which the budgets do not
# count. Peak RSS growth over 10^6 steps, measured with Python 3.11 on
# x86-64 Linux: 4.6 B per step at n = 100 and 19.1 B at n = 10^5 for a
# group trial, 0.1 and 4.3 B for a semigroup trial, none for the chain;
# `walk --format csv` takes up to 118 B per stored integer. At the
# bounds that is about 0.1 GB of cells, 0.6 GB of stacks (at the largest
# admitted n, 10^7 - 64, and 10^7 steps a group trial pushes about
# (1 - 1/e) n columns) and 1.2 GB of csv.
MAX_STEPS = 10_000_000
MAX_SLOTS = 10_000_000

# Letter codes per draw of a trial's Philox generator (see _runs).
CHUNK = 1 << 13


def _check_budget(steps: int, slots: int) -> None:
    if steps > MAX_STEPS:
        raise ValueError(f"steps is budgeted at <= {MAX_STEPS} per trial, got {steps}")
    if slots > MAX_SLOTS:
        raise ValueError(f"the run would store {slots} integers, budgeted at <= {MAX_SLOTS}")


@dataclass(frozen=True)
class WalkParams:
    """
    Fully explicit run description; the engine reads only this record.

    burn_in=None resolves to 10 * n at construction (clamped below
    steps for very short runs), so the stored record always shows the
    value actually used. snapshot_every applies to trial 0 alone:
    run_trial records no snapshots for any other trial, and the storage
    budget counts trial 0's only.
    """

    n: int
    steps: int
    trials: int
    seed: int
    mode: str
    snapshot_every: int = 0
    burn_in: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # a float or an out-of-range int would reach Philox as some other key
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2^64), got {self.seed!r}")
        _check_mode(self.mode)
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", min(10 * self.n, self.steps - 1))
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("need 0 <= burn_in < steps")
        snaps = self.steps // self.snapshot_every if self.snapshot_every else 0
        # each trial keeps n + 1 histogram bins and a record of about
        # 400 B, counted as 64 integers; run_trial records the snapshots
        # of trial 0 only, 2 n integers each
        _check_budget(self.steps, self.trials * (self.n + 64) + 2 * self.n * snaps)


@dataclass(frozen=True)
class WalkStats:
    """Integer-exact outcome of one trial plus derived per-trial reals."""

    n: int
    mode: str
    steps: int
    trial_index: int
    burn_in: int
    window_steps: int
    final_length: int
    height: int  # max occupied level
    reductions: int  # cancellation steps, whole run
    reductions_window: int
    roof_delta_plus_given_reduction: int  # window reductions that grew the roof
    roof_delta_minus_given_reduction: int
    roof_hist: tuple[int, ...]  # roof_hist[k] = window steps with roof size k
    snapshots: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]

    @property
    def roof_size_sum(self) -> int:
        return sum(k * c for k, c in enumerate(self.roof_hist))

    @property
    def drift(self) -> float:
        return self.final_length / self.steps


def _draw(params: WalkParams, trial_index: int):
    """
    One trial's draw rule: a function that returns its next `size`
    letter codes as int64, from one Philox generator keyed by the 64-bit
    pair (seed, trial_index), reduced modulo the letter count.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([params.seed, trial_index], dtype=np.uint64)))
    base = np.uint64(2 * params.n if params.mode == GROUP else params.n)

    def draw(size: int) -> np.ndarray:
        return (gen.integers(0, 2**64, size=size, dtype=np.uint64) % base).astype(np.int64)

    return draw


def letter_stream(params: WalkParams, trial_index: int) -> np.ndarray:
    """
    The deterministic letter codes of one trial, drawn in one call:
    values in [0, 2n) for the group (column = code // 2 + 1, sign = +
    for even codes), in [0, n) for the semigroup (column = code + 1).
    The walks read the same codes CHUNK at a time (see _runs) and never
    hold this whole array.
    """
    return _draw(params, trial_index)(params.steps)


def _runs(params: WalkParams, trial_index: int, every: int):
    """
    The trial's letters as consecutive runs (end, letters): the run
    covers the steps up to `end`, and letters iterates over its
    (column, sign) pairs, columns 1-based and signs +-1. A chunk is
    decoded with numpy into two lists, and its runs are consecutive
    slices of one zip over them, so nothing is copied. A run ends at
    each chunk's end, at burn_in and at every multiple of `every` (none
    if every is 0), so no run crosses burn_in and the callers test the
    window and their samples once per run, not once per step. Each run
    must be used up before the next is asked for.
    """
    shift = 1 if params.mode == GROUP else 0
    steps, burn_in = params.steps, params.burn_in
    draw = _draw(params, trial_index)
    step = 0
    while step < steps:
        codes = draw(min(CHUNK, steps - step))
        cols = ((codes >> shift) + 1).tolist()
        signs = (1 - 2 * (codes & shift)).tolist()
        pairs = zip(cols, signs)
        end = step + len(cols)
        while step < end:
            stop = burn_in if step < burn_in < end else end
            if every:
                stop = min(stop, step - step % every + every)
            yield stop, islice(pairs, stop - step)
            step = stop
        # the caller still holds the last run: free the lists before the next draw
        cols.clear()
        signs.clear()


# ---------------------------------------------------------------------------
# The step kernels: integer state only. Do not add floating point:
# the bit identity of WalkStats across platforms depends on it.
#
# Each steps through one run of letters, pairs of a column i (1-based)
# and a sign s. tops[i] is column i's top level or 0, in_roof[i] its
# roof mark; both have sentinels at columns 0 and n + 1 that stay 0.
# counts carries the running height, roof size, reductions and the
# reductions that grew and shrank the roof from one run to the next;
# every step adds one to hist at its roof size, so the caller picks the
# histogram per run.
#
# Adjacent cells never share a level: a push lands one above
# max(tops[i-1], tops[i], tops[i+1]), strictly above both neighbours.
# So a marked top is a strict maximum of its neighbourhood, and the
# neighbours of a roof column are not in the roof. A push changes no
# other neighbourhood: on a roof column it adds one to its top and moves
# no mark; elsewhere it lands one above the higher neighbour, i joins
# the roof and i - 1, i + 1 leave it. No push compares a mark.
#
# _deposit is the semigroup walk, ballistic deposition: every letter
# pushes, nothing cancels, and no statistic reads a buried cell, so it
# keeps no cells at all. Tops never fall, so the height is max(tops) at
# the trial's end and the loop keeps only the roof size of counts.
#
# _steps is the group walk. cols[i] is column i's stack, an array('i')
# of its cells' levels signed by their colours, bottom first (levels are
# at most steps <= MAX_STEPS, within 32 bits), or None until the
# column's first push; colour[i] is the sign of its top cell, 0 when the
# column is empty. Column i's top is removable iff i is in the roof, so
# a letter on a roof column whose top has the opposite colour cancels
# it: the stack pops and the marks of i - 1, i, i + 1 are recomputed. A
# pop that leaves i above both neighbours changes no mark; otherwise i
# leaves, and each neighbour joins iff its top now exceeds both of its
# own neighbours'. A sentinel's top is 0, so tops[i - 2] and tops[i + 2]
# are read only behind a test that the neighbour's top exceeds i's, and
# never from outside the list.


def _deposit(letters, tops, in_roof, hist, counts):
    roof_size = counts[1]
    for i, _ in letters:
        if in_roof[i]:
            tops[i] += 1
        else:
            left = i - 1
            right = i + 1
            a = tops[left]
            c = tops[right]
            tops[i] = (a if a > c else c) + 1
            roof_size += 1 - in_roof[left] - in_roof[right]
            in_roof[left] = 0
            in_roof[i] = 1
            in_roof[right] = 0
        hist[roof_size] += 1
    counts[1] = roof_size


def _steps(letters, cols, tops, colour, in_roof, hist, counts):
    height, roof_size, reductions, plus, minus = counts
    for i, s in letters:
        if in_roof[i]:
            if colour[i] != s:  # cancel the top
                col = cols[i]
                col.pop()
                if col:
                    b = col[-1]
                    if b > 0:
                        colour[i] = 1
                    else:
                        b = -b
                        colour[i] = -1
                else:
                    b = colour[i] = 0
                tops[i] = b
                reductions += 1
                left = i - 1
                right = i + 1
                a = tops[left]
                c = tops[right]
                if b <= a or b <= c:
                    # i leaves the roof; a neighbour joins if it now tops its own neighbourhood
                    in_roof[i] = 0
                    joined = 0
                    if a > b and a > tops[i - 2]:
                        in_roof[left] = 1
                        joined = 1
                    if c > b and c > tops[i + 2]:
                        in_roof[right] = 1
                        joined += 1
                    roof_size += joined - 1
                    if joined == 2:
                        plus += 1
                    elif joined == 0:
                        minus += 1
            else:
                t = tops[i] + 1
                cols[i].append(s * t)
                tops[i] = t
                if t > height:
                    height = t
        else:
            left = i - 1
            right = i + 1
            a = tops[left]
            c = tops[right]
            t = (a if a > c else c) + 1
            col = cols[i]
            if col is None:
                col = cols[i] = array("i")
            col.append(s * t)
            tops[i] = t
            colour[i] = s
            if t > height:
                height = t
            roof_size += 1 - in_roof[left] - in_roof[right]
            in_roof[left] = 0
            in_roof[i] = 1
            in_roof[right] = 0
        hist[roof_size] += 1
    counts[:] = height, roof_size, reductions, plus, minus


def run_trial(params: WalkParams, trial_index: int, engine: str = "auto") -> WalkStats:
    """
    Execute one trial deterministically, through its mode's kernel:
    _steps for the group, which keeps the heap as one stack per column,
    made at the column's first push, and _deposit for the semigroup,
    which keeps tops and roof marks only. The letters arrive in runs
    (see _runs): burn-in runs count their roof sizes into a throwaway
    histogram, and the window's reduction counts are the run totals less
    their values at burn_in. Only trial 0 records snapshots, every
    params.snapshot_every steps; any other trial's snapshots are empty.

    engine: "auto" and "python" run the kernel, "numba" raises
    RuntimeError (no compiled engine exists; callers probe for one this
    way) and any other value ValueError.
    """
    if engine not in ("auto", "numba", "python"):
        raise ValueError("engine must be auto, numba, or python")
    if engine == "numba":
        raise RuntimeError("no numba engine: the kernel runs interpreted only")

    n, burn_in = params.n, params.burn_in
    every = params.snapshot_every if trial_index == 0 else 0
    group = params.mode == GROUP
    if group:
        cols, colour = [None] * (n + 2), [0] * (n + 2)
    tops, in_roof = [0] * (n + 2), [0] * (n + 2)
    hist, burn_hist = [0] * (n + 1), [0] * (n + 1)
    counts = [0] * 5  # height, roof size, reductions, plus, minus
    at_burn_in = counts[:]
    snapshots = []
    for end, letters in _runs(params, trial_index, every):
        run_hist = hist if end > burn_in else burn_hist
        if group:
            _steps(letters, cols, tops, colour, in_roof, run_hist, counts)
        else:
            _deposit(letters, tops, in_roof, run_hist, counts)
        if end == burn_in:
            at_burn_in = counts[:]
        if every and end % every == 0:
            snapshots.append((end, tuple(tops[1:-1]), tuple(in_roof[1:-1])))
    if not group:
        counts[0] = max(tops)  # semigroup tops never fall
    height, _, reductions, plus, minus = counts
    return WalkStats(
        n=n,
        mode=params.mode,
        steps=params.steps,
        trial_index=trial_index,
        burn_in=burn_in,
        window_steps=params.steps - burn_in,
        final_length=params.steps - 2 * reductions,  # a step adds a cell or cancels one
        height=height,
        reductions=reductions,
        reductions_window=reductions - at_burn_in[2],
        roof_delta_plus_given_reduction=plus - at_burn_in[3],
        roof_delta_minus_given_reduction=minus - at_burn_in[4],
        roof_hist=tuple(hist),
        snapshots=tuple(snapshots),
    )


def drift_estimate(runs: list[WalkStats]) -> tuple[float, float]:
    """Mean of final_length/steps across trials, with its standard error."""
    if not runs:
        raise ValueError("no trials")
    drifts = [t.drift for t in runs]
    mean = sum(drifts) / len(drifts)
    if len(drifts) == 1:
        return mean, 0.0
    var = sum((d - mean) ** 2 for d in drifts) / (len(drifts) - 1)
    return mean, math.sqrt(var / len(drifts))


def roof_density_estimate(runs: list[WalkStats]) -> float:
    """Window average of #T_j / n, pooled over trials."""
    if not runs:
        raise ValueError("no trials")
    total = sum(t.roof_size_sum for t in runs)
    steps = sum(t.window_steps for t in runs)
    if steps == 0:
        raise ValueError("empty stationary window")
    return total / (steps * runs[0].n)


def entropy_estimate(runs: list[WalkStats]) -> float:
    """
    The paper's entropy functional, in the trials' own mode. Semigroup
    mode: the window mean of log(n/#T), an estimate of the roof
    functional E log(n/|T|), not of the walk's entropy h(mu). Group mode:
    the plug-in log(3 - alpha_hat), since this functional has no
    single-trajectory form over 2n letters.
    """
    if not runs:
        raise ValueError("no trials")
    if runs[0].mode == SEMIGROUP:
        # the window sum of log(n / #T_j), per trial and then over the
        # trials: the recorded estimates round in this order
        logn = math.log(runs[0].n)
        total = sum(
            sum(c * (logn - math.log(k)) for k, c in enumerate(t.roof_hist) if c) for t in runs
        )
        return total / sum(t.window_steps for t in runs)
    alpha, _ = alpha_estimate(runs)
    return math.log(3.0 - alpha)


def alpha_estimate(runs: list[WalkStats]) -> tuple[float, float]:
    """
    alpha = (p+ - p-)/2, the conditional probabilities that a reduction
    step grows / shrinks the roof, pooled over trials; second value is
    the binomial standard error. Requires at least one reduction, so it
    is undefined in semigroup mode.
    """
    red = sum(t.reductions_window for t in runs)
    if red == 0:
        raise ValueError("alpha is conditioned on reductions and none occurred")
    plus = sum(t.roof_delta_plus_given_reduction for t in runs)
    minus = sum(t.roof_delta_minus_given_reduction for t in runs)
    p_plus = plus / red
    p_minus = minus / red
    alpha = 0.5 * (p_plus - p_minus)
    var = (p_plus + p_minus - (p_plus - p_minus) ** 2) / (4.0 * red)
    return alpha, math.sqrt(max(var, 0.0))


def heap_profile_stats(runs: list[WalkStats]) -> dict:
    """
    Deposit geometry of semigroup trials, averaged over the trials, under
    run_walk's report keys: height_coeff = H n / N and heap_density =
    N / (n H).
    """
    if not runs:
        raise ValueError("no trials")
    if any(t.mode != SEMIGROUP for t in runs):
        raise ValueError("heap profile applies to semigroup (deposition) runs")
    sample = runs[0]
    if sample.steps < 100 * sample.n:
        warnings.warn("fewer than 100 n steps; height statistics not stationary")
    coeffs = [t.height * t.n / t.steps for t in runs]
    densities = [t.steps / (t.n * t.height) for t in runs]
    return {
        "height_coeff": sum(coeffs) / len(coeffs),
        "heap_density": sum(densities) / len(densities),
    }


def run_walk(params: WalkParams) -> tuple[dict, list[WalkStats]]:
    """
    Run all trials in index order; returns (report, per-trial stats).

    The report is the flat record used by the command line: keys mode,
    n, steps, trials, seed, drift_mean, drift_se, roof_density,
    entropy_estimate, alpha_hat, alpha_se, height_coeff, heap_density.
    Inapplicable entries (alpha in semigroup mode, deposit geometry in
    group mode) are None. The trials are run_trial's, so only trial 0
    carries snapshots.
    """
    runs = [run_trial(params, t) for t in range(params.trials)]
    drift_mean, drift_se = drift_estimate(runs)
    report = {
        "mode": params.mode,
        "n": params.n,
        "steps": params.steps,
        "trials": params.trials,
        "seed": params.seed,
        "drift_mean": drift_mean,
        "drift_se": drift_se,
        "roof_density": roof_density_estimate(runs),
        "entropy_estimate": entropy_estimate(runs),
        "alpha_hat": None,
        "alpha_se": None,
        "height_coeff": None,
        "heap_density": None,
    }
    if params.mode == GROUP:
        report["alpha_hat"], report["alpha_se"] = alpha_estimate(runs)
    else:
        report.update(heap_profile_stats(runs))
    return report, runs


# ---------------------------------------------------------------------------
# The roof indicator Markov chain, abstracted away from cell levels.


@dataclass(frozen=True)
class RoofChainResult:
    n: int
    steps: int
    seed: int
    mode: str
    boundary: str
    burn_in: int
    ones_density: float  # window mean of #ones / n
    final: tuple[int, ...]
    series: tuple[tuple[int, int], ...] = field(default=(), repr=False)


def roof_chain_run(
    n: int,
    steps: int,
    seed: int,
    mode: str = SEMIGROUP,
    boundary: str = OPEN,
    burn_in: int | None = None,
    sample_every: int = 0,
) -> RoofChainResult:
    """
    Drive the indicator chain with uniform columns (and, in group mode,
    a fair sign coin deciding whether a letter aimed at a roof column
    reduces or stacks) and measure the stationary ones-density.

    Growth (column not in the roof): the column joins the roof and
    evicts both neighbors. Column already in the roof: a semigroup
    letter changes nothing; a group letter of opposite sign reduces and
    clears the mark. boundary "periodic" joins columns n and 1; the
    open chain is what heap dynamics induce, the periodic one is the
    translation-invariant variant whose ones-density is exactly 1/3.

    The open semigroup chain is exactly the semigroup walk's roof. A
    push lands one level above the highest top of its neighbourhood, so
    its column becomes strictly highest there, and no other column
    changes: the column joins (or stays in) the roof, its neighbours
    leave it, and every other mark stays. The chain is checked, and its
    burn_in=None resolved, as the walk WalkParams(n, steps, 1, seed,
    mode, burn_in=burn_in), and it reads that walk's trial 0 letters in
    the same runs as run_trial. So with the same seed and burn-in
    ones_density equals roof_density_estimate of that trial bit for
    bit, and final its last snapshot's roof. The boundary, sample_every >= 0 and the chain's own
    storage budget are the only checks it adds.
    """
    params = WalkParams(n, steps, 1, seed, mode, burn_in=burn_in)
    burn_in = params.burn_in
    if boundary not in (OPEN, PERIODIC):
        raise ValueError("boundary must be open or periodic")
    if sample_every < 0:
        raise ValueError("sample_every must be >= 0")
    samples = steps // sample_every if sample_every else 0
    _check_budget(steps, 3 * n + 2 * samples)

    # 1-based like the kernel's columns: eps[0] and eps[n + 1] are the
    # always-0 neighbours of the open ends
    eps = [0] * (n + 2)
    if boundary == PERIODIC and n > 1:
        left, right = [0, n, *range(1, n)], [0, *range(2, n + 1), 1]
    else:
        left, right = list(range(-1, n)), list(range(1, n + 2))
    ones = acc = acc_at_burn_in = 0
    series = []
    for end, letters in _runs(params, 0, sample_every):
        for j, s in letters:
            if eps[j] == 0:
                # one after the other: periodic n = 2 has left[j] == right[j]
                k = left[j]
                ones += 1 - eps[k]
                eps[k] = 0
                k = right[j]
                ones -= eps[k]
                eps[k] = 0
                eps[j] = 1
            elif s < 0:  # a group letter's reduce coin; never in semigroup mode
                eps[j] = 0
                ones -= 1
            acc += ones
        if end == burn_in:
            acc_at_burn_in = acc
        if sample_every and end % sample_every == 0:
            series.append((end, ones))
    acc -= acc_at_burn_in
    density = acc / ((steps - burn_in) * n)
    return RoofChainResult(
        n=n,
        steps=steps,
        seed=seed,
        mode=mode,
        boundary=boundary,
        burn_in=burn_in,
        ones_density=density,
        final=tuple(eps[1:-1]),
        series=tuple(series),
    )
