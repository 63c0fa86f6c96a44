import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from locfree import core, counting, oracle
from locfree.core import GROUP, SEMIGROUP

import freechain

FREE_GROUP_DRIFT_6 = [
    Fraction(1),
    Fraction(3, 4),
    Fraction(17, 24),
    Fraction(21, 32),
    Fraction(407, 640),
    Fraction(157, 256),
]


def _brute_fold(word, n, variant, r):
    """
    The state of a letter word, folded here without the explorer: through
    core.heap_from_word for group and semigroup, and through
    core._drop_push with the merge rule written out below for the
    projective (f_i^2 = f_i) and restricted (f_i^r = 1) variants.
    """
    if variant in (GROUP, SEMIGROUP):
        return core.heap_from_word(word, n, variant).columns
    if variant == "projective":
        merge = lambda top, label: top  # noqa: E731
    else:
        merge = lambda top, label: (top + label) % r  # noqa: E731
    state = ((),) * n
    for i, label in word:
        state = core._drop_push(state, i, label, merge)
    return state


def _brute_letters(n, variant, r):
    if variant == GROUP:
        labels = (1, -1)
    elif variant == "restricted":
        labels = (1 % r, -1 % r)
    else:
        labels = (1,)
    return [(i, s) for i in range(1, n + 1) for s in labels]


def _brute_census(n, radius, variant, r=None):
    """state -> reduced length: the fewest letters of any word reaching it."""
    letters = sorted(set(_brute_letters(n, variant, r)))
    lengths = {}
    for k in range(radius + 1):
        for word in itertools.product(letters, repeat=k):
            lengths.setdefault(_brute_fold(word, n, variant, r), k)
    return lengths


def _brute_distribution(n, steps, mode):
    """Per-state probabilities after `steps` uniform letters, word by word."""
    letters = _brute_letters(n, mode, None)
    paths = Counter(
        _brute_fold(word, n, mode, None) for word in itertools.product(letters, repeat=steps)
    )
    denom = len(letters) ** steps
    return {state: Fraction(c, denom) for state, c in paths.items()}


def test_ball_group_n3():
    assert oracle.ball_counts(3, 4, GROUP) == {0: 1, 1: 6, 2: 26, 3: 110, 4: 466}


def test_ball_free_group_and_semigroup():
    g = oracle.ball_counts(2, 5, GROUP)
    s = oracle.ball_counts(2, 6, SEMIGROUP)
    for k in range(1, 6):
        assert g[k] == 4 * 3 ** (k - 1)
    for k in range(1, 7):
        assert s[k] == 2**k


@pytest.mark.parametrize("variant,r", [
    (GROUP, None),
    (SEMIGROUP, None),
    ("projective", None),
    ("restricted", 2),
    ("restricted", 3),
    ("restricted", 4),
    ("restricted", 5),
])
def test_ball_matches_count_words(variant, r):
    # small corner of the criterion-1 grid; oracle-verify runs it in full
    for n in (1, 2, 3):
        counts = oracle.ball_counts(n, 4, variant, r)
        for k in range(1, 5):
            expected = counting.count_words(n, k, variant, r)
            assert counts.get(k, 0) == expected, (variant, r, n, k)


def test_restricted_letters_are_distinct():
    # at r = 2 the labels 1 and -1 are one class, so each column has one letter
    for r in (2, 3, 5):
        letters = oracle._letters(4, counting.RESTRICTED, r)[0]
        assert len(set(letters)) == len(letters) == 4 * min(r - 1, 2), r
    # recorded before the duplicate r = 2 letters were dropped
    assert {n: oracle.ball_counts(n, 8, counting.RESTRICTED, 2) for n in (1, 2, 3, 4)} == {
        1: {0: 1, 1: 1},
        2: {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2},
        3: {0: 1, 1: 3, 2: 5, 3: 8, 4: 13, 5: 21, 6: 34, 7: 55, 8: 89},
        4: {0: 1, 1: 4, 2: 9, 3: 18, 4: 36, 5: 72, 6: 144, 7: 288, 8: 576},
    }


def test_ball_restricted_large_order():
    # classes up to r - 1 = 299 must survive the state key
    counts = oracle.ball_counts(2, 3, counting.RESTRICTED, r=300)
    assert [counts[k] for k in range(1, 4)] == counting.count_words_range(
        2, 3, counting.RESTRICTED, 300
    )


@pytest.mark.parametrize("n,mode,signs", [(2, GROUP, (1, -1)), (3, SEMIGROUP, (1,))])
def test_ball_states_are_heap_columns(n, mode, signs):
    # the orbits of the table tile the heaps of every word of <= 3 letters
    letters = [(i, s) for i in range(1, n + 1) for s in signs]
    words = itertools.chain.from_iterable(
        itertools.product(letters, repeat=k) for k in range(4)
    )
    heaps = {core.heap_from_word(w, n, mode).columns for w in words}
    table = oracle._Interned(n, 3, mode, rows=False)
    states = set()
    for rep, size in zip(table.states, table.sizes):
        orbit = oracle._orbit(rep, table.flip)
        assert len(orbit) == size and not orbit & states
        states |= orbit
    assert states == heaps


def test_ball_budget():
    with pytest.raises(oracle.BudgetExceeded):
        oracle.ball_counts(3, 3, GROUP, max_states=10)


QUOTIENT_VARIANTS = [
    (GROUP, None),
    (SEMIGROUP, None),
    ("projective", None),
    *(("restricted", r) for r in (2, 3, 4, 5, 6)),
]


@pytest.mark.parametrize("variant,r", QUOTIENT_VARIANTS)
def test_ball_counts_match_full_census(variant, r):
    radius = 5 if r is None else 4
    for n in (1, 2, 3, 4):
        full = Counter(_brute_census(n, radius, variant, r).values())
        assert oracle.ball_counts(n, radius, variant, r) == full, (n, variant, r)


def _orbit(state, flip):
    """Every image of a state under the column flips and the reflection."""
    images = set()
    for mirror in (state, state[::-1]):
        choices = [
            {col, tuple((level, flip[c]) for level, c in col)} if flip else {col}
            for col in mirror
        ]
        images.update(itertools.product(*choices))
    return images


@pytest.mark.parametrize("variant,r", QUOTIENT_VARIANTS)
def test_orbit_representatives_and_sizes(variant, r):
    # the representative is the smallest state of its orbit, the stored
    # size and oracle._orbit are the orbit's (a column of class r/2 cells
    # at even r is its own flip), and the orbits tile the brute-force ball
    flip = oracle._letters(1, variant, r)[2]
    for n in (1, 2, 3):
        table = oracle._Interned(n, 4, variant, r, rows=False)
        full = _brute_census(n, 4, variant, r)
        covered = set()
        for rep, size in zip(table.states, table.sizes):
            orbit = _orbit(rep, flip)
            assert rep == min(orbit) and size == len(orbit), (n, rep)
            assert oracle._orbit(rep, table.flip) == orbit
            covered |= orbit
        assert covered == set(full) and sum(table.sizes) == len(full)


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_orbit_mass_is_a_multiple_of_orbit_size(mode):
    for n in (1, 2, 3, 4):
        table = oracle._Interned(n, 5, mode)
        for masses in table.path_counts():
            assert all(c % size == 0 for c, size in zip(masses, table.sizes)), n


@pytest.mark.parametrize("mode", [GROUP, SEMIGROUP])
def test_quotient_drift_and_entropy_equal_full_table(mode):
    # the reference is the per-state distribution of every letter word
    budget = 100_000
    for n, steps in ((1, 5), (2, 6), (3, 5), (4, 4)):
        series = oracle.exact_drift_series(n, steps, mode, budget)
        for t in range(1, steps + 1):
            probs = _brute_distribution(n, t, mode)
            assert oracle.exact_distribution(n, t, mode, budget).probabilities == probs
            length = sum(p * sum(map(len, cols)) for cols, p in probs.items())
            assert series[t - 1] == length / t, (n, t)
        acc = sum(float(p) * math.log(p) for p in probs.values())
        entropy = oracle.exact_entropy(n, steps, mode, budget)
        assert entropy == pytest.approx(-acc / steps, abs=1e-12), (n, steps)


def test_entropy_rejects_an_orbit_mass_off_its_size(monkeypatch):
    monkeypatch.setattr(oracle, "_orbit_size", lambda state, flip: 3)
    with pytest.raises(AssertionError, match="not a multiple of its size 3"):
        oracle.exact_entropy(2, 3, GROUP)


def test_distribution_checks_its_normalisation(monkeypatch):
    real = oracle._Interned.path_counts

    def leaky(self):
        per_step = real(self)
        per_step[-1][-1] += 1
        return per_step

    monkeypatch.setattr(oracle._Interned, "path_counts", leaky)
    with pytest.raises(AssertionError, match="do not sum to 64"):
        oracle.exact_distribution(2, 3, GROUP)


def test_quotient_budget_counts_orbits():
    # 1 + 4 + 12 + 36 states, but 1 + 1 + 2 + 5 orbits of (Z/2)^2 x Z/2
    assert sum(oracle.ball_counts(2, 3, GROUP, max_states=9).values()) == 53
    with pytest.raises(oracle.BudgetExceeded):
        oracle.ball_counts(2, 3, GROUP, max_states=8)


def test_distribution_two_steps():
    dist = oracle.exact_distribution(2, 2, GROUP)
    key_id = core.empty_heap(2).columns
    key_f1f2 = core.heap_from_word([(1, 1), (2, 1)], 2).columns
    assert dist.probabilities[key_id] == Fraction(1, 4)
    assert dist.probabilities[key_f1f2] == Fraction(1, 16)
    assert sum(dist.probabilities.values()) == 1


def test_distribution_path_counts_semigroup():
    dist = oracle.exact_distribution(3, 3, SEMIGROUP)
    paths = [p * 27 for p in dist.probabilities.values()]
    assert all(p.denominator == 1 for p in paths)
    assert sum(paths) == 27


def test_roof_recursion_check_catches_corruption():
    table = oracle._Interned(3, 5, SEMIGROUP)
    good = table.path_counts()
    table.check_roof_recursion(good)
    depth = 2
    sid = table.depth_of.index(depth)
    for t in (depth, depth + 1):  # a count on its own length, and off it
        bad = [row[:] for row in good]
        bad[t][sid] += 1
        with pytest.raises(AssertionError):
            table.check_roof_recursion(bad)


def test_ball_keeps_no_transition_rows():
    assert oracle._Interned(3, 3, GROUP, rows=False).succ is None
    table = oracle._Interned(3, 3, GROUP)
    assert len(table.succ) == len(table.states)


def test_distribution_support_within_ball():
    n, steps = 2, 5
    dist = oracle.exact_distribution(n, steps, GROUP)
    ball = _brute_census(n, steps, GROUP)
    for key in dist.probabilities:
        assert ball[key] <= steps


def test_distribution_budget_gate():
    with pytest.raises(oracle.BudgetExceeded):
        oracle.exact_distribution(2, 9, GROUP)
    dist = oracle.exact_distribution(2, 9, GROUP, max_states=200_000)
    assert sum(dist.probabilities.values()) == 1
    # an explicit budget is honoured, even 0
    with pytest.raises(oracle.BudgetExceeded):
        oracle.exact_distribution(2, 3, GROUP, max_states=0)


def test_distribution_budget_counts_its_support():
    # the 9 orbits of the radius-3 table fit max_states=9, but the 4 + 36
    # states of odd length 1 and 3 that carry mass do not
    assert oracle.ball_counts(2, 3, GROUP, max_states=9)
    with pytest.raises(oracle.BudgetExceeded, match="support of 40 states exceeds 39"):
        oracle.exact_distribution(2, 3, GROUP, max_states=39)
    dist = oracle.exact_distribution(2, 3, GROUP, max_states=40)
    assert len(dist.probabilities) == 40


def test_distribution_rejects_an_orbit_mass_off_its_size(monkeypatch):
    monkeypatch.setattr(oracle, "_orbit_size", lambda state, flip: 3)
    with pytest.raises(AssertionError, match="not a multiple of its size 3"):
        oracle.exact_distribution(2, 3, GROUP)


def test_drift_semigroup_is_one():
    for n, steps in ((1, 4), (2, 6), (4, 5)):
        assert oracle.exact_drift_series(n, steps, SEMIGROUP) == [1] * steps


def _length_and_roof(dist):
    """E|W| and E|T(W)| of an exact distribution, as Fractions."""
    length = roof = Fraction(0)
    for columns, p in dist.probabilities.items():
        length += p * sum(map(len, columns))
        roof += p * sum(1 for m in core._roof_marks(columns) if m)
    return length, roof


@pytest.mark.parametrize("n, n_steps", [(1, 7), (2, 7), (3, 5)])
def test_group_drift_increment_is_one_minus_mean_roof(n, n_steps):
    # a group letter cancels iff its column is in the roof and it has the
    # top's opposite colour: one of that column's two letters, so
    # E|W_{N+1}| - E|W_N| = 1 - E|T(W_N)|/n exactly
    length, roof = Fraction(0), Fraction(0)  # N = 0: the empty heap
    for N in range(n_steps + 1):
        next_length, next_roof = _length_and_roof(oracle.exact_distribution(n, N + 1, GROUP))
        assert next_length - length == 1 - roof / n, (n, N)
        length, roof = next_length, next_roof


def test_drift_series_free_group():
    series = oracle.exact_drift_series(2, 6, GROUP)
    assert series == FREE_GROUP_DRIFT_6
    assert all(a > b for a, b in zip(series, series[1:]))


def test_free_chain_reference():
    # the birth-death reference behind criterion 8, pinned to the literal
    # series above, to the exact sphere counts and to the DP at N = 8
    assert freechain.drift_series(6) == FREE_GROUP_DRIFT_6
    for k in range(1, 13):
        assert freechain.sphere_size(k) == counting.count_words(2, k, GROUP)
    assert freechain.drift_series(8) == oracle.exact_drift_series(2, 8, GROUP)
    assert freechain.entropy_rate(8) == pytest.approx(
        oracle.exact_entropy(2, 8, GROUP), abs=1e-12
    )


def test_free_chain_length_distribution():
    steps = 5
    dist = oracle.exact_distribution(2, steps, GROUP)
    ball = _brute_census(2, steps, GROUP)
    by_length = [Fraction(0)] * (steps + 1)
    for key, p in dist.probabilities.items():
        by_length[ball[key]] += p
    assert by_length == freechain.length_distribution(steps)


def test_drift_group_interior():
    for n, steps in ((2, 5), (3, 4)):
        series = oracle.exact_drift_series(n, steps, GROUP)
        assert all(0 < d < 1 for d in series[1:])
        assert series[0] == 1


def test_entropy_single_step():
    assert oracle.exact_entropy(2, 1, GROUP) == pytest.approx(math.log(4), abs=1e-12)
    assert oracle.exact_entropy(3, 1, GROUP) == pytest.approx(math.log(6), abs=1e-12)
    assert oracle.exact_entropy(3, 1, SEMIGROUP) == pytest.approx(math.log(3), abs=1e-12)
    for dp in (oracle.exact_distribution, oracle.exact_drift_series, oracle.exact_entropy):
        for steps in (0, -1):
            with pytest.raises(ValueError, match="N must be >= 1"):
                dp(2, steps, GROUP)


def test_entropy_free_group_value():
    # converges to (1/2) log 3 ~ 0.5493 from above, but only like log N / N;
    # the N=8 value itself is a frozen regression anchor
    h8 = oracle.exact_entropy(2, 8, GROUP)
    h7 = oracle.exact_entropy(2, 7, GROUP)
    assert h8 < h7
    assert h8 == pytest.approx(0.8583, abs=5e-4)
    assert h8 > 0.5 * math.log(3)


def test_entropy_semigroup_vs_walk():
    from locfree import walk

    params = walk.WalkParams(n=4, steps=60_000, trials=2, seed=5, mode=SEMIGROUP)
    _, runs = walk.run_walk(params)
    measured = sum(walk.entropy_estimate(s, SEMIGROUP) for s in runs) / len(runs)
    # H(mu_N)/N still carries a log(N)/N transient at N=10 (measured gap
    # 0.119), so the stationary rate is cross-validated through the
    # per-step increment H(mu_10) - H(mu_9), which has shed it
    increment = 10 * oracle.exact_entropy(4, 10, SEMIGROUP) - (
        9 * oracle.exact_entropy(4, 9, SEMIGROUP)
    )
    assert abs(increment - measured) < 0.1
    gaps = [
        abs(oracle.exact_entropy(4, N, SEMIGROUP) - measured) for N in (4, 7, 10)
    ]
    assert gaps[2] < gaps[1] < gaps[0]


def test_brute_restricted_examples():
    for k in range(1, 7):
        for s in range(1, k + 1):
            assert oracle.brute_restricted(2, k, s) == (1 if k == s else 0)
    assert oracle.brute_restricted(4, 3, 2) == 4
    assert oracle.brute_restricted(5, 2, 1) == 2


def test_brute_restricted_matches_generating_function():
    for r in range(2, 8):
        for k in range(1, 9):
            for s in range(1, k + 1):
                assert oracle.brute_restricted(r, k, s) == (
                    counting.restricted_syllable_count(r, k, s)
                ), (r, k, s)


def test_brute_restricted_guards():
    with pytest.raises(ValueError):
        oracle.brute_restricted(8, 3, 1)
    with pytest.raises(ValueError):
        oracle.brute_restricted(3, 13, 1)
