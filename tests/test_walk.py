import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from locfree import core, oracle, walk
from locfree.walk import GROUP, SEMIGROUP, WalkParams

import heapcheck
import rooflaw


def _roof_size_sq_sum(st: walk.WalkStats) -> int:
    """Sum over the trial's window of the squared roof size."""
    return sum(k * k * c for k, c in enumerate(st.roof_hist))


# --- params and streams ----------------------------------------------------


def test_params_validation():
    for bad in (
        dict(n=0, steps=10, trials=1, seed=0, mode=GROUP),
        dict(n=2, steps=0, trials=1, seed=0, mode=GROUP),
        dict(n=2, steps=10, trials=0, seed=0, mode=GROUP),
        dict(n=2, steps=10, trials=1, seed=-1, mode=GROUP),
        dict(n=2, steps=10, trials=1, seed=2**64, mode=GROUP),
        dict(n=2, steps=10, trials=1, seed=1.5, mode=GROUP),
        dict(n=2, steps=10, trials=1, seed="3", mode=GROUP),
        dict(n=2, steps=10, trials=1, seed=0, mode="monoid"),
        dict(n=2, steps=10, trials=1, seed=0, mode=GROUP, snapshot_every=-1),
        dict(n=2, steps=10, trials=1, seed=0, mode=GROUP, burn_in=10),
    ):
        with pytest.raises(ValueError):
            WalkParams(**bad)
    # sizes are plain ints: no bool, float or numpy int
    good = dict(n=2, steps=10, trials=1, seed=0, mode=GROUP)
    for name, value in (
        ("n", 2.5), ("n", True), ("n", np.int64(2)), ("steps", 10.0), ("trials", True),
        ("trials", 1.0), ("snapshot_every", 2.5), ("burn_in", 2.5), ("burn_in", np.int32(2)),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            WalkParams(**{**good, name: value})
    for seed in (True, np.uint64(3)):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\^64\)"):
            WalkParams(**{**good, "seed": seed})
    # the range messages stay
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        WalkParams(**{**good, "n": 0})
    with pytest.raises(ValueError, match="^need 0 <= burn_in < steps$"):
        WalkParams(**{**good, "burn_in": 10})


def test_params_budget_rejects_before_allocation(monkeypatch):
    def boom(*args):
        raise AssertionError("letter codes were drawn")

    monkeypatch.setattr(walk, "letter_stream", boom)
    monkeypatch.setattr(walk, "_draw", boom)
    for bad in (
        dict(n=1, steps=walk.MAX_STEPS + 1),
        dict(n=1, steps=2**64 - 1),
        # 2 n (steps // snapshot_every) snapshot slots over MAX_SLOTS
        dict(n=100, steps=walk.MAX_SLOTS // 200 + 1, snapshot_every=1),
        dict(n=2**32 - 1, steps=1),
        dict(n=1, steps=1, trials=2**32 - 1),
    ):
        with pytest.raises(ValueError, match="budgeted"):
            WalkParams(**{"trials": 1, "seed": 0, "mode": GROUP, **bad})
    for n, steps in ((1, walk.MAX_STEPS + 1), (1, 2**64 - 1), (2**32 - 1, 1)):
        with pytest.raises(ValueError, match="budgeted"):
            walk.roof_chain_run(n, steps, seed=0)
    # the acceptance criteria's runs are admitted
    WalkParams(n=100, steps=10**6, trials=8, seed=0, mode=GROUP)
    WalkParams(n=1, steps=walk.MAX_STEPS, trials=1, seed=0, mode=SEMIGROUP)


def test_params_burn_in_default():
    assert WalkParams(n=7, steps=1000, trials=1, seed=0, mode=GROUP).burn_in == 70
    # clamped for very short runs so the window is never empty
    assert WalkParams(n=7, steps=5, trials=1, seed=0, mode=GROUP).burn_in == 4
    assert WalkParams(n=7, steps=1, trials=1, seed=0, mode=GROUP).burn_in == 0


def test_letter_stream_deterministic():
    p = WalkParams(n=5, steps=64, trials=3, seed=17, mode=GROUP)
    a = walk.letter_stream(p, 1)
    b = walk.letter_stream(p, 1)
    c = walk.letter_stream(p, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 10


def test_letter_codes_match_the_modulo_formula():
    # letter_stream gives the codes of an independent (raw % base).astype(int64)
    for mode in (GROUP, SEMIGROUP):
        for n, seed, stream in ((1, 0, 0), (3, 17, 2), (100, 5, 1), (1000, 2**40 + 3, 7)):
            raw = np.random.Generator(np.random.Philox(key=[seed, stream])).integers(
                0, 2**64, size=5000, dtype=np.uint64
            )
            old = (raw % (2 * n if mode == GROUP else n)).astype(np.int64)
            new = walk.letter_stream(WalkParams(n, 5000, 1, seed, mode), stream)
            assert new.dtype == np.int64 and new.nbytes == old.nbytes
            assert np.array_equal(new, old), (mode, n, seed, stream)


def test_draw_codes_are_the_raw_philox_words():
    # _draw's codes are Philox(key).random_raw(n), whose stream NEP 19
    # freezes, reduced modulo the letter count
    size = 10**5
    for seed, stream in ((0, 0), (1, 7), (2**64 - 1, 3)):
        raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(size)
        for n, mode in itertools.product((5, 10**6), (GROUP, SEMIGROUP)):
            base = np.uint64(2 * n if mode == GROUP else n)
            codes = walk._draw(WalkParams(n, 10, 1, seed, mode), stream)(size)
            assert np.array_equal(codes, (raw % base).astype(np.int64)), (seed, stream, n, mode)


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_letter_stream_is_the_one_shot_draw_at_chunk_edges(mode):
    # the walks read, CHUNK at a time, the letters of letter_stream's one call
    c = walk.CHUNK
    for steps in (c - 1, c, c + 1, 3 * c + 5):
        for n, seed, stream in ((3, 0, 0), (100, 2**63 + 9, 4)):
            p = WalkParams(n, steps, 1, seed, mode)
            codes = walk.letter_stream(p, stream).tolist()
            if mode == GROUP:
                one_shot = [(code // 2 + 1, 1 if code % 2 == 0 else -1) for code in codes]
            else:
                one_shot = [(code + 1, 1) for code in codes]
            ends, read = [], []
            for end, letters in walk._runs(p, stream, 0):
                ends.append(end)
                read.extend(letters)
            assert ends == sorted({p.burn_in, *range(c, steps, c), steps}), (steps, n)
            assert read == one_shot, (steps, n)


def test_seeds_above_2_63_draw_their_own_streams():
    first = lambda seed: walk.letter_stream(WalkParams(5, 10, 1, seed, GROUP), 0).tolist()  # noqa: E731
    assert first(2**63 + 1) != first(2**63 + 2)
    assert first(2**63 + 1) != first(2**63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert first(2**64 - 1) != first(0)


def test_letter_codes_pinned_below_2_63():
    # recorded with the earlier list key [seed, stream]; the 64-bit key
    # keeps every stream of a seed <= 2^63
    assert walk.letter_stream(WalkParams(5, 10, 1, 0, GROUP), 0).tolist() == [9, 8, 9, 6, 3, 5, 7, 6, 5, 0]
    assert walk.letter_stream(WalkParams(5, 10, 1, 0, GROUP), 3).tolist() == [3, 7, 6, 2, 2, 3, 1, 2, 7, 6]
    assert walk.letter_stream(WalkParams(5, 10, 1, 2**63 - 1, GROUP), 0).tolist() == [8, 5, 9, 1, 8, 9, 2, 7, 6, 0]
    assert walk.letter_stream(WalkParams(5, 10, 1, 2**63 - 1, GROUP), 3).tolist() == [4, 8, 4, 2, 2, 2, 7, 9, 7, 0]
    assert walk.letter_stream(WalkParams(5, 10, 1, 2**63, GROUP), 0).tolist() == [8, 8, 9, 9, 6, 8, 7, 2, 9, 4]
    assert walk.letter_stream(WalkParams(5, 10, 1, 2**63, GROUP), 3).tolist() == [8, 5, 8, 5, 4, 8, 5, 3, 2, 1]


# --- run_trial -------------------------------------------------------------


def test_trial_deterministic():
    p = WalkParams(n=8, steps=5000, trials=1, seed=3, mode=GROUP)
    assert walk.run_trial(p, 0) == walk.run_trial(p, 0)
    assert walk.run_trial(p, 0) != walk.run_trial(p, 1)


def test_engine_keyword():
    # only the interpreted kernel exists; "numba" is refused as unavailable
    p = WalkParams(n=5, steps=300, trials=1, seed=2, mode=GROUP, snapshot_every=100)
    assert walk.run_trial(p, 0, engine="auto") == walk.run_trial(p, 0, engine="python") == walk.run_trial(p, 0)
    with pytest.raises(RuntimeError):
        walk.run_trial(p, 0, engine="numba")
    with pytest.raises(ValueError):
        walk.run_trial(p, 0, engine="jit")


def _replay(p: WalkParams, trial: int) -> walk.WalkStats:
    """
    The trial's letters pushed one by one through core.push_letter, with
    every statistic read off core's heap and its roof marks: a reference
    that shares no code with the step kernels. Like run_trial it records
    snapshots for trial 0 only.
    """
    heap = core.ColoredHeap(p.n, p.mode)
    height = reductions = red_window = plus = minus = 0
    hist = [0] * (p.n + 1)
    snapshots = []
    roof = 0
    every = p.snapshot_every if trial == 0 else 0
    for step, code in enumerate(walk.letter_stream(p, trial).tolist()):
        if p.mode == GROUP:
            letter = core.Letter(code // 2 + 1, 1 if code % 2 == 0 else -1)
        else:
            letter = core.Letter(code + 1, 1)
        before = heap.length
        heap = core.push_letter(heap, letter)
        reduced = heap.length < before
        tops = tuple(col[-1][0] if col else 0 for col in heap.columns)
        marks = heapcheck.roof_of(heap)
        height = max(height, *tops)
        reductions += reduced
        if step >= p.burn_in:
            hist[marks.size] += 1
            if reduced:
                red_window += 1
                plus += marks.size > roof
                minus += marks.size < roof
        roof = marks.size
        if every and (step + 1) % every == 0:
            snapshots.append((step + 1, tops, tuple(int(m != 0) for m in marks.marks)))
    return walk.WalkStats(
        n=p.n, mode=p.mode, steps=p.steps, trial_index=trial, burn_in=p.burn_in,
        window_steps=p.steps - p.burn_in, final_length=heap.length, height=height,
        reductions=reductions, reductions_window=red_window,
        roof_delta_plus_given_reduction=plus, roof_delta_minus_given_reduction=minus,
        roof_hist=tuple(hist), snapshots=tuple(snapshots),
    )


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_trial_matches_core_replay(mode):
    for n in (1, 2, 3, 5, 12):
        for seed in (4, 9):
            p = WalkParams(n=n, steps=1500, trials=2, seed=seed, mode=mode, snapshot_every=1)
            for trial in range(p.trials):
                assert walk.run_trial(p, trial) == _replay(p, trial), (n, seed, trial)


# a small prime: runs end at chunk edges that miss the snapshot steps.
# (burn_in, snapshot_every): burn-in at 0, inside a chunk and on a chunk
# edge; snapshots none, at every step, at chunk edges and off them
SMALL_CHUNK = 13
CHUNK_EDGE_CASES = [
    (0, 0), (0, 5), (2 * SMALL_CHUNK, SMALL_CHUNK), (2 * SMALL_CHUNK, 5), (None, 1), (11, 3 * SMALL_CHUNK),
]


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
@pytest.mark.parametrize("burn_in,snapshot_every", CHUNK_EDGE_CASES)
def test_trial_matches_core_replay_across_chunk_edges(monkeypatch, mode, burn_in, snapshot_every):
    monkeypatch.setattr(walk, "CHUNK", SMALL_CHUNK)
    for n, steps in ((1, 100), (3, 300), (12, 401)):
        p = WalkParams(n, steps, 2, 2**63 + n, mode, snapshot_every=snapshot_every, burn_in=burn_in)
        for trial in range(p.trials):
            assert walk.run_trial(p, trial) == _replay(p, trial), (n, trial)


# WalkStats digests, sha256 of repr, recorded with the kernel that held
# the whole letter list: 3 CHUNK + 5 steps cross three chunk edges
@pytest.mark.parametrize("mode,seed,digest", [
    (GROUP, 2**63 + 11, "15e1be285f63a9b1381151f1d39dfcc4b3d00c27eeed20a517a0a1476df163c1"),
    (SEMIGROUP, 12, "bb906819f5f83fa853b08ce06b3e0b827d0b7d0e1c9374c0003242c3947e6bca"),
])
def test_pinned_long_run(mode, seed, digest):
    assert walk.CHUNK == 2**13
    st = walk.run_trial(WalkParams(100, 3 * 2**13 + 5, 1, seed, mode, snapshot_every=97), 0)
    assert len(st.snapshots) == (3 * 2**13 + 5) // 97
    assert hashlib.sha256(repr(st).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_walk_memory_is_bounded_by_a_chunk(mode):
    # a group trial holds one 4-byte integer per heap cell, in its
    # column's stack, and one chunk of letters: about 4.0 B per step,
    # against 9 B when every push took two 4-byte slots. A semigroup
    # trial and the chain hold only the chunk besides O(n) lists: about
    # 1.4 B per step, against 5.3 when the semigroup kept stacks too.
    # Both held all 2 * 10^5 codes as a list, 16 B per step, before the
    # letters were chunked
    steps = 200_000
    walk.run_trial(WalkParams(100, 1000, 1, 0, mode), 0)
    walk.roof_chain_run(100, 1000, 0, mode)
    tracemalloc.start()
    try:
        walk.run_trial(WalkParams(100, steps, 1, 1, mode), 0)
        trial_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        walk.roof_chain_run(100, steps, 1, mode)
        chain_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trial_peak / steps < (7 if mode == GROUP else 2)
    assert chain_peak / steps < 2


def test_deposit_memory_is_linear_in_the_columns():
    # n = steps: the semigroup trial's four lists of n + O(1) 8-byte
    # entries (tops, marks, one working histogram and the stored
    # histogram), 33 B per column; a stack per pushed column took 108.6 B.
    # A short trial first: the first Philox draw imports about 0.7 MB of
    # numpy modules, 7 B per column here
    n = 10**5
    walk.run_trial(WalkParams(3, 20, 1, 0, SEMIGROUP), 0)
    tracemalloc.start()
    try:
        walk.run_trial(WalkParams(n, n, 1, 0, SEMIGROUP), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 36


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_walk_memory_at_large_n_is_linear_in_the_columns(mode):
    # a short trial on 10^6 columns holds lists of n + O(1) 8-byte
    # entries: tops, marks, one working histogram and the stored one, and
    # in group mode stacks and top colours, 48 B per column (32 in
    # semigroup mode). A group trial makes a stack only for each column
    # it pushes on; an empty array('i') per column up front adds 80 B more
    n = 10**6
    walk.run_trial(WalkParams(3, 20, 1, 0, mode), 0)
    tracemalloc.start()
    try:
        walk.run_trial(WalkParams(n, 10, 1, 0, mode), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 64


def _random_words(mode):
    # 300 words on n = 1..6 columns, each with the cut that splits it in
    # two runs as _runs would
    rng = random.Random(17)
    signs = (1, -1) if mode == GROUP else (1,)
    for _ in range(300):
        n = rng.randint(1, 6)
        word = [(rng.randint(1, n), rng.choice(signs)) for _ in range(rng.randint(0, 40))]
        yield n, word, rng.randint(0, len(word))


def test_kernel_stacks_are_core_heap():
    # every cell, buried ones included, and every top's colour against
    # core's heap
    for n, word, cut in _random_words(GROUP):
        cols, tops, colour, in_roof = [None] * (n + 2), [0] * (n + 2), [0] * (n + 2), [0] * (n + 2)
        hist, counts = [0] * (n + 1), [0] * 5
        walk._steps(iter(word[:cut]), cols, tops, colour, in_roof, hist, counts)
        walk._steps(iter(word[cut:]), cols, tops, colour, in_roof, hist, counts)
        heap = core.heap_from_word(word, n, GROUP)
        stacks = tuple(tuple((abs(v), 1 if v > 0 else -1) for v in col or ()) for col in cols[1:-1])
        assert stacks == heap.columns, word
        assert (cols[0], cols[-1]) == (None, None)
        assert tuple(in_roof[1:-1]) == tuple(abs(m) for m in heapcheck.roof_marks(heap.columns)), word
        assert tops[1:-1] == [col[-1][0] if col else 0 for col in heap.columns]
        assert colour[1:-1] == [col[-1][1] if col else 0 for col in heap.columns]
        assert sum(hist) == len(word)


def test_deposit_is_core_heap():
    # the semigroup loop keeps no cells: its tops, roof marks, roof size
    # and height (the highest cell, which run_trial reads as max(tops))
    # against core's heap
    for n, word, cut in _random_words(SEMIGROUP):
        tops, in_roof = [0] * (n + 2), [0] * (n + 2)
        hist, counts = [0] * (n + 1), [0] * 5
        walk._deposit(iter(word[:cut]), tops, in_roof, hist, counts)
        walk._deposit(iter(word[cut:]), tops, in_roof, hist, counts)
        heap = core.heap_from_word(word, n, SEMIGROUP)
        assert tops[1:-1] == [col[-1][0] if col else 0 for col in heap.columns], word
        assert (tops[0], tops[-1]) == (0, 0)
        assert tuple(in_roof[1:-1]) == tuple(abs(m) for m in heapcheck.roof_marks(heap.columns)), word
        assert max(tops) == max((level for col in heap.columns for level, _ in col), default=0)
        assert counts[1] == sum(in_roof)
        assert sum(hist) == len(word)


def test_pinned_stats():
    # recorded from the two-kernel implementation this one replaced
    st = walk.run_trial(WalkParams(n=5, steps=2000, trials=1, seed=3, mode=GROUP, snapshot_every=1000), 0)
    assert (st.final_length, st.height, st.reductions, st.reductions_window) == (1242, 818, 379, 373)
    assert (st.roof_delta_plus_given_reduction, st.roof_delta_minus_given_reduction) == (33, 106)
    assert st.roof_hist == (0, 372, 1351, 227, 0, 0)
    assert st.snapshots == (
        (1000, (395, 394, 404, 402, 400), (1, 0, 1, 0, 0)),
        (2000, (810, 816, 815, 818, 817), (0, 1, 0, 1, 0)),
    )
    st = walk.run_trial(WalkParams(n=4, steps=1500, trials=1, seed=11, mode=SEMIGROUP, snapshot_every=500), 0)
    assert (st.final_length, st.height, st.reductions, st.window_steps) == (1500, 1060, 0, 1460)
    assert st.roof_hist == (0, 553, 907, 0, 0)
    assert st.snapshots == (
        (500, (340, 339, 337, 339), (1, 0, 0, 1)),
        (1000, (709, 707, 708, 709), (1, 0, 0, 1)),
        (1500, (1060, 1059, 1060, 1059), (1, 0, 1, 0)),
    )
    st = walk.run_trial(WalkParams(n=1, steps=300, trials=1, seed=0, mode=GROUP), 0)
    assert (st.final_length, st.height, st.reductions, st.reductions_window) == (6, 13, 147, 143)
    assert (st.roof_delta_plus_given_reduction, st.roof_delta_minus_given_reduction) == (0, 16)
    assert st.roof_hist == (16, 274)


@pytest.mark.parametrize("mode,seed,pinned", [
    (GROUP, 5, (13438, 599, 3281, 3129, 267, 1008, 612360, 19820440)),
    (SEMIGROUP, 6, (20000, 797, 0, 0, 0, 0, 638958, 21563404)),
])
def test_pinned_stats_n100(mode, seed, pinned):
    # recorded from the kernel that recomputed the roof marks on every step
    st = walk.run_trial(WalkParams(n=100, steps=20_000, trials=1, seed=seed, mode=mode), 0)
    assert (
        st.final_length, st.height, st.reductions, st.reductions_window,
        st.roof_delta_plus_given_reduction, st.roof_delta_minus_given_reduction,
        st.roof_size_sum, _roof_size_sq_sum(st),
    ) == pinned


def test_single_step_trial():
    p = WalkParams(n=4, steps=1, trials=1, seed=0, mode=GROUP)
    st = walk.run_trial(p, 0)
    assert st.final_length == 1
    assert st.roof_hist[1] == 1 and sum(st.roof_hist) == 1


def test_semigroup_length_is_steps():
    p = WalkParams(n=9, steps=7777, trials=2, seed=2, mode=SEMIGROUP)
    _, runs = walk.run_walk(p)
    for st in runs:
        assert st.final_length == st.steps == 7777
        assert st.reductions == 0
    assert walk.drift_estimate(runs) == (1.0, 0.0)


def test_group_length_parity():
    p = WalkParams(n=6, steps=30_000, trials=2, seed=8, mode=GROUP)
    for t in range(p.trials):
        st = walk.run_trial(p, t)
        # every step changes the length by exactly +-1
        assert st.final_length == st.steps - 2 * st.reductions


def test_free_group_drift():
    p = WalkParams(n=2, steps=100_000, trials=2, seed=13, mode=GROUP)
    mean, _ = walk.drift_estimate([walk.run_trial(p, t) for t in range(2)])
    assert abs(mean - 0.5) < 0.02


def test_group_drift_interval_n100():
    p = WalkParams(n=100, steps=100_000, trials=6, seed=21, mode=GROUP)
    _, runs = walk.run_walk(p)
    mean, se = walk.drift_estimate(runs)
    assert 3 / 5 < mean <= 5 / 7
    assert se < 0.01


def test_group_reduction_frequency_matches_roof():
    # P(reduce at step) = #T / 2n: compare the window frequency with the
    # window roof density within 3 binomial standard errors
    p = WalkParams(n=40, steps=1_000_000, trials=1, seed=6, mode=GROUP)
    st = walk.run_trial(p, 0)
    w = st.window_steps
    freq = st.reductions_window / w
    predicted = st.roof_size_sum / (w * 2 * p.n)
    se = math.sqrt(predicted * (1 - predicted) / w)
    assert abs(freq - predicted) <= 3 * se


# --- estimators ------------------------------------------------------------


def test_roof_density_single_column():
    p = WalkParams(n=1, steps=500, trials=1, seed=0, mode=SEMIGROUP)
    st = walk.run_trial(p, 0)
    assert walk.roof_density_estimate([st]) == 1.0


def test_alpha_requires_reductions():
    p = WalkParams(n=3, steps=100, trials=1, seed=0, mode=SEMIGROUP)
    with pytest.raises(ValueError):
        walk.alpha_estimate([walk.run_trial(p, 0)])


@pytest.mark.parametrize(
    "estimator",
    ["drift_estimate", "roof_density_estimate", "entropy_estimate", "alpha_estimate",
     "heap_profile_stats"],
)
def test_estimators_reject_no_trials(estimator):
    # alpha_estimate says why it is undefined: it is conditioned on reductions
    match = "reductions" if estimator == "alpha_estimate" else "^no trials$"
    with pytest.raises(ValueError, match=match):
        getattr(walk, estimator)([])


def test_alpha_bounds_and_plugin_entropy():
    p = WalkParams(n=20, steps=200_000, trials=2, seed=30, mode=GROUP)
    _, runs = walk.run_walk(p)
    alpha, se = walk.alpha_estimate(runs)
    assert -0.5 < alpha < 0.5
    assert se > 0
    assert walk.entropy_estimate(runs) == pytest.approx(
        math.log(3 - alpha), abs=1e-12
    )


def test_entropy_semigroup_near_log3():
    p = WalkParams(n=100, steps=200_000, trials=2, seed=7, mode=SEMIGROUP)
    _, runs = walk.run_walk(p)
    assert abs(walk.entropy_estimate(runs) - math.log(3)) < 0.03


def test_entropy_semigroup_n1_is_positive_zero():
    # the roof is the one column at every step: log(n / #T_j) = 0, not -0
    with pytest.warns(UserWarning, match="fewer than 100 n steps"):
        report, _ = walk.run_walk(WalkParams(1, 50, 1, 0, SEMIGROUP))
    assert report["entropy_estimate"] == 0.0
    assert math.copysign(1.0, report["entropy_estimate"]) == 1.0


def test_roof_fluctuations_shrink_with_n():
    ratios = []
    for n in (25, 50, 100, 200):
        p = WalkParams(n=n, steps=300_000, trials=2, seed=4, mode=SEMIGROUP)
        _, runs = walk.run_walk(p)
        mean = sum(t.roof_size_sum for t in runs)
        sq = sum(_roof_size_sq_sum(t) for t in runs)
        w = sum(t.window_steps for t in runs)
        ratios.append((sq / w) / (mean / w) ** 2 - 1)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_heap_profile_single_column():
    p = WalkParams(n=1, steps=50, trials=1, seed=0, mode=SEMIGROUP, burn_in=0)
    with pytest.warns(UserWarning):
        profile = walk.heap_profile_stats([walk.run_trial(p, 0)])
    assert profile["heap_density"] == 1.0
    assert profile["height_coeff"] == 1.0


def test_heap_profile_rejects_group():
    p = WalkParams(n=3, steps=100, trials=1, seed=0, mode=GROUP)
    with pytest.raises(ValueError):
        walk.heap_profile_stats([walk.run_trial(p, 0)])


def test_run_walk_snapshots_trial_zero_only():
    for mode in (GROUP, SEMIGROUP):
        p = WalkParams(n=6, steps=900, trials=3, seed=2, mode=mode, snapshot_every=300)
        _, runs = walk.run_walk(p)
        assert runs == [walk.run_trial(p, t) for t in range(3)]
        assert len(runs[0].snapshots) == 3
        assert runs[1].snapshots == runs[2].snapshots == ()


def test_snapshot_budget_counts_one_trial():
    # 2 n (steps // snapshot_every) = 8 M snapshot integers, once; per
    # trial they would be 40 M
    WalkParams(n=100, steps=40_000, trials=5, seed=0, mode=SEMIGROUP, snapshot_every=1)


def test_snapshot_shape():
    p = WalkParams(n=5, steps=1000, trials=1, seed=1, mode=SEMIGROUP, snapshot_every=250)
    st = walk.run_trial(p, 0)
    assert [s[0] for s in st.snapshots] == [250, 500, 750, 1000]
    for _, tops, roof in st.snapshots:
        assert len(tops) == 5 and len(roof) == 5
        assert all(r in (0, 1) for r in roof)


def test_report_keys_and_order():
    p = WalkParams(n=4, steps=2000, trials=2, seed=0, mode=SEMIGROUP)
    report, _ = walk.run_walk(p)
    assert list(report) == [
        "mode", "n", "steps", "trials", "seed", "drift_mean", "drift_se",
        "roof_density", "entropy_estimate", "alpha_hat", "alpha_se",
        "height_coeff", "heap_density",
    ]
    assert report["alpha_hat"] is None and report["alpha_se"] is None
    assert report["height_coeff"] is not None


# --- roof chain ------------------------------------------------------------


def roof_chain_step(eps, r: int, mode: str = SEMIGROUP, boundary: str = walk.OPEN) -> tuple[int, ...]:
    """
    One update of the roof indicator vector at column r (1-based): the
    chain model that roof_chain_run simulates, one step at a time.

    Growth (column not in the roof): the new top cell of column r joins
    the roof and evicts both neighbors, whatever the surrounding
    pattern. Column already in the roof: a semigroup letter stacks onto
    the same syllable and changes nothing; a group reduction removes
    the roof cell and clears the mark. The caller decides whether a
    group letter hitting the roof reduces (opposite sign, probability
    1/2) or stacks (same sign: no change); this function applies the
    reduction when mode is "group".
    """
    n = len(eps)
    if not 1 <= r <= n:
        raise ValueError(f"column {r} out of range 1..{n}")
    if boundary not in (walk.OPEN, walk.PERIODIC):
        raise ValueError("boundary must be open or periodic")
    core._check_mode(mode)
    out = list(eps)
    if any(x not in (0, 1) for x in out):
        raise ValueError("indicator entries must be 0 or 1")

    def nbrs(j0):  # 0-based neighbor indices
        if boundary == walk.PERIODIC:
            return ((j0 - 1) % n, (j0 + 1) % n) if n > 1 else ()
        return tuple(k for k in (j0 - 1, j0 + 1) if 0 <= k < n)

    for j0 in range(n):
        if out[j0] == 1 and any(out[k] for k in nbrs(j0)):
            raise ValueError("adjacent columns cannot both be in the roof")

    j = r - 1
    if out[j] == 1:
        if mode == GROUP:
            out[j] = 0
        return tuple(out)
    out[j] = 1
    for k in nbrs(j):
        out[k] = 0
    return tuple(out)


def test_chain_step_rules():
    step = roof_chain_step
    assert step((0, 0, 0, 0, 0), 3) == (0, 0, 1, 0, 0)
    assert step((0, 1, 0, 1, 0), 3) == (0, 0, 1, 0, 0)
    assert step((0, 0, 1, 0, 0), 3, SEMIGROUP) == (0, 0, 1, 0, 0)
    assert step((0, 0, 1, 0, 0), 3, GROUP) == (0, 0, 0, 0, 0)
    assert step((1, 0, 0, 0, 1), 2) == (0, 1, 0, 0, 1)


def test_chain_step_boundaries():
    # periodic joins columns n and 1; open does not
    assert roof_chain_step((0, 0, 0, 0, 1), 1, boundary="periodic") == (1, 0, 0, 0, 0)
    assert roof_chain_step((0, 0, 0, 0, 1), 1, boundary="open") == (1, 0, 0, 0, 1)


def test_chain_step_validation():
    with pytest.raises(ValueError):
        roof_chain_step((1, 1, 0), 1)
    with pytest.raises(ValueError):
        roof_chain_step((0, 0, 2), 1)
    with pytest.raises(ValueError):
        roof_chain_step((0, 0, 0), 4)
    with pytest.raises(ValueError):
        roof_chain_step((0, 0, 0), 1, boundary="reflecting")


def test_chain_run_validation():
    for bad in (
        dict(n=5, steps=200, seed=1, boundary="reflecting"),
        dict(n=5, steps=200, seed=1, mode="grp"),
        dict(n=0, steps=200, seed=1),
        dict(n=5, steps=0, seed=1),
        dict(n=5, steps=100, seed=-1),
        dict(n=5, steps=100, seed=2**64),
        dict(n=5, steps=100, seed=1.5),
        dict(n=5, steps=100, seed=1, sample_every=-1),
        dict(n=2.5, steps=10, seed=0),
        dict(n=5, steps=10.0, seed=0),
        dict(n=5, steps=100, seed=True),
        dict(n=5, steps=100, seed=1, burn_in=2.5),
    ):
        with pytest.raises(ValueError):
            walk.roof_chain_run(**bad)
    for every in (1.5, True, np.int64(2)):
        with pytest.raises(ValueError, match="^sample_every must be an int, got "):
            walk.roof_chain_run(5, 100, 1, sample_every=every)
    with pytest.raises(ValueError, match="^n must be an int, got 2.5$"):
        walk.roof_chain_run(2.5, 10, 0)
    # the chain resolves its burn-in through the walk's own rule
    assert walk.roof_chain_run(7, 1000, 0).burn_in == WalkParams(7, 1000, 1, 0, GROUP).burn_in == 70
    assert walk.roof_chain_run(7, 5, 0).burn_in == WalkParams(7, 5, 1, 0, GROUP).burn_in == 4


def test_chain_periodic_density_third():
    res = walk.roof_chain_run(99, 60_000, seed=3, boundary="periodic")
    assert abs(res.ones_density - 1 / 3) < 0.01


def test_chain_conditional_drift_exact_form():
    # under periodic boundaries E[delta #T | #T = k] = (n - 3k)/n exactly
    n, steps = 30, 40_000
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    cols = (rng.integers(0, 2**64, size=steps, dtype=np.uint64) % n).astype(int)
    eps = (0,) * n
    deltas: dict[int, list[int]] = {}
    for c in cols:
        k = sum(eps)
        nxt = roof_chain_step(eps, int(c) + 1, SEMIGROUP, "periodic")
        deltas.setdefault(k, []).append(sum(nxt) - k)
        eps = nxt
    checked = 0
    for k, d in deltas.items():
        if len(d) < 300:
            continue
        mean = sum(d) / len(d)
        se = float(np.std(d)) / math.sqrt(len(d))
        assert abs(mean - (1 - 3 * k / n)) <= 4 * se, k
        checked += 1
    assert checked >= 4


def test_walk_conditional_drift_near_chain_form():
    # the heap walk has open boundaries, so 1 - 3k/n holds only up to
    # O(1/n) edge corrections; measured offset at n=25 is about 0.04
    p = WalkParams(n=25, steps=6000, trials=1, seed=9, mode=SEMIGROUP, snapshot_every=1)
    st = walk.run_trial(p, 0)
    sizes = [sum(roof) for _, _, roof in st.snapshots]
    buckets: dict[int, list[int]] = {}
    for a, b in zip(sizes, sizes[1:]):
        buckets.setdefault(a, []).append(b - a)
    tot = dev = 0
    for k, d in buckets.items():
        if len(d) < 200:
            continue
        dev += abs(sum(d) / len(d) - (1 - 3 * k / 25)) * len(d)
        tot += len(d)
    assert tot > 2000
    assert dev / tot < 0.08


def test_walk_and_chain_densities_agree():
    p = WalkParams(n=50, steps=200_000, trials=1, seed=14, mode=SEMIGROUP)
    walk_density = walk.roof_density_estimate([walk.run_trial(p, 0)])
    chain = walk.roof_chain_run(50, 100_000, seed=15, boundary="open")
    assert abs(walk_density - chain.ones_density) < 0.01


@pytest.mark.parametrize("n,steps,seed", [
    (1, 300, 4), (2, 10, 0), (7, 5000, 1), (25, 20000, 3), (100, 50000, 9),
])
def test_semigroup_chain_is_the_walk_roof(n, steps, seed):
    # a semigroup push makes its column strictly highest in its
    # neighbourhood and changes no other column, so the open chain driven
    # by the walk's letters is the walk's roof, step by step
    p = WalkParams(n, steps, 1, seed, SEMIGROUP, snapshot_every=steps)
    stats = walk.run_trial(p, 0)
    chain = walk.roof_chain_run(n, steps, seed)
    assert chain.ones_density == walk.roof_density_estimate([stats])
    assert chain.final == stats.snapshots[-1][2]


def _fold_chain(n, steps, seed, mode, boundary, burn_in, sample_every):
    """
    roof_chain_step folded over the chain's letters one step at a time:
    (final, series, ones_density). In group mode a letter aimed at a
    roof column reduces only on its coin, code & 1.
    """
    codes = walk.letter_stream(WalkParams(n, steps, 1, seed, mode), 0).tolist()
    eps, series, acc = (0,) * n, [], 0
    for step, code in enumerate(codes):
        if mode == GROUP:
            j, rule = code // 2, GROUP if code & 1 else SEMIGROUP
        else:
            j, rule = code, SEMIGROUP
        eps = roof_chain_step(eps, j + 1, rule, boundary)
        if step >= burn_in:
            acc += sum(eps)
        if sample_every and (step + 1) % sample_every == 0:
            series.append((step + 1, sum(eps)))
    return eps, tuple(series), acc / ((steps - burn_in) * n)


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
@pytest.mark.parametrize("boundary", [walk.OPEN, walk.PERIODIC])
def test_chain_run_is_the_chain_model(mode, boundary):
    for n in (1, 2, 3, 12):
        steps, seed = 3000, n + 20
        res = walk.roof_chain_run(n, steps, seed, mode, boundary, sample_every=1)
        ref = _fold_chain(n, steps, seed, mode, boundary, res.burn_in, 1)
        assert (res.final, res.series, res.ones_density) == ref, n


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
@pytest.mark.parametrize("boundary", [walk.OPEN, walk.PERIODIC])
@pytest.mark.parametrize("burn_in,sample_every", CHUNK_EDGE_CASES)
def test_chain_run_across_chunk_edges(monkeypatch, mode, boundary, burn_in, sample_every):
    monkeypatch.setattr(walk, "CHUNK", SMALL_CHUNK)
    for n, steps in ((1, 100), (2, 200), (12, 401)):
        seed = 2**63 + n
        res = walk.roof_chain_run(n, steps, seed, mode, boundary, burn_in, sample_every)
        ref = _fold_chain(n, steps, seed, mode, boundary, res.burn_in, sample_every)
        assert (res.final, res.series, res.ones_density) == ref, n


def test_walk_roof_mean_matches_exact_law():
    # trial means of |T| and |T|^2 over 48 independent semigroup trials,
    # against the first two moments of the permutation peak law; the
    # first is (n + 1) / 3
    n = 10
    _, runs = walk.run_walk(WalkParams(n=n, steps=20_000, trials=48, seed=12, mode=SEMIGROUP))
    moments = {
        1: [t.roof_size_sum / t.window_steps for t in runs],
        2: [_roof_size_sq_sum(t) / t.window_steps for t in runs],
    }
    for power, means in moments.items():
        exact = float(sum(k**power * p for k, p in enumerate(rooflaw.roof_law(n))))
        mean = sum(means) / len(means)
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        assert abs(mean - exact) <= 4 * se, power


def test_walk_drift_matches_exact_finite_n():
    # 2000 group trials of N = 8 steps at n = 3 against the exact E|W_8|/8
    report, _ = walk.run_walk(WalkParams(n=3, steps=8, trials=2000, seed=5, mode=GROUP))
    exact = float(oracle.exact_drift_series(3, 8, GROUP)[-1])
    assert abs(report["drift_mean"] - exact) <= 4 * report["drift_se"]


@pytest.mark.parametrize("boundary,exact", [
    (walk.PERIODIC, Fraction(1, 3)),
    (walk.OPEN, Fraction(12 + 1, 3 * 12)),
], ids=[walk.PERIODIC, walk.OPEN])
def test_chain_density_matches_exact_law(boundary, exact):
    # on the periodic chain every column is a peak of a cyclic permutation
    # of the last pushes with probability exactly 1/3; the open chain is
    # the walk's roof, whose peak law pads both ends and gives (n+1)/(3n)
    densities = [
        walk.roof_chain_run(12, 20_000, seed, boundary=boundary).ones_density
        for seed in range(24)
    ]
    mean = sum(densities) / len(densities)
    se = float(np.std(densities, ddof=1)) / math.sqrt(len(densities))
    assert abs(mean - float(exact)) <= 4 * se


def test_roof_law_is_the_permutation_peak_law():
    for m in range(1, 8):
        brute = [0] * (m + 1)
        for perm in itertools.permutations(range(1, m + 1)):
            padded = (0, *perm, 0)
            brute[sum(padded[j - 1] < padded[j] > padded[j + 1] for j in range(1, m + 1))] += 1
        assert rooflaw.peak_counts(m) == brute, m


def test_roof_law_totals_and_mean():
    for m in range(1, 30):
        counts = rooflaw.peak_counts(m)
        assert sum(counts) == math.factorial(m), m
        if m >= 2:
            mean = Fraction(sum(k * c for k, c in enumerate(counts)), math.factorial(m))
            assert mean == Fraction(m + 1, 3), m
            assert rooflaw.roof_density(m) == Fraction(m + 1, 3 * m), m


def test_chain_group_mode_runs():
    res = walk.roof_chain_run(20, 20_000, seed=1, mode=GROUP)
    assert 0 < res.ones_density < 1
    assert len(res.final) == 20
