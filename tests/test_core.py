import math
import random

import pytest

from locfree import braid, core, oracle, walk
from locfree.core import GROUP, SEMIGROUP, Letter, Syllable

import heapcheck
import wordref

F1, F2, F3 = Letter(1), Letter(2), Letter(3)

N_CASES = 2000  # the acceptance suite reruns these invariants at >= 10^4


def random_word(rng, n, max_len, signed=True):
    length = rng.randrange(max_len + 1)
    signs = (1, -1) if signed else (1,)
    return [(rng.randint(1, n), rng.choice(signs)) for _ in range(length)]


# --- push_letter -----------------------------------------------------------


def test_push_single_letter():
    h = core.push_letter(core.ColoredHeap(3), F1)
    assert h.columns[0] == ((1, 1),)
    assert h.length == 1


def test_push_cancels_inverse():
    h = core.heap_from_word([F1, F1.inverse()], 3)
    assert h.is_empty


def test_push_no_cancel_under_cover():
    # column-1 top is not in the roof once column 2 is higher, so the
    # inverse letter lands instead of cancelling: K(f1 f2 f1^-1) = 3
    h = core.heap_from_word([F1, F2, F1.inverse()], 3)
    assert h.length == 3
    assert wordref.reduced_length([(1, 1), (2, 1), (1, -1)]) == 3


def test_push_rejects_bad_letters():
    # the same messages from push_letter and from heap_from_word, for
    # Letter values and bare pairs, anywhere in a word; a letter failing
    # two checks reports the first: the index before the sign, and a
    # sign outside {+1, -1} before the semigroup's rule
    for bad, mode, message in [
        ((4, 1), GROUP, "letter index 4 out of range 1..3"),
        ((0, 1), GROUP, "letter index 0 out of range 1..3"),
        ((1, 0), GROUP, "letter sign must be"),
        ((1, -1), SEMIGROUP, "semigroup heaps accept only positive letters"),
        ((0, 2), GROUP, "letter index 0 out of range 1..3"),
        ((1, 2), SEMIGROUP, r"letter sign must be \+1 or -1"),
    ]:
        with pytest.raises(ValueError, match=message):
            core.push_letter(core.ColoredHeap(3, mode), Letter(*bad))
        for letter in (bad, Letter(*bad)):
            with pytest.raises(ValueError, match=message):
                core.heap_from_word([(2, 1), letter], 3, mode)


def test_letters_are_index_sign_pairs():
    assert Letter(2, -1) == (2, -1)
    assert hash(Letter(2, -1)) == hash((2, -1))
    assert repr(Letter(1)) == "Letter(index=1, sign=1)"
    assert Letter(2, -1).inverse() == Letter(2, 1)
    # a letter is a pair: a longer tuple is an error, not its first two entries
    with pytest.raises(ValueError):
        core.heap_from_word([(1, 1, 9)], 2)
    # of ints, not bools: a float index, a bare int, a float or bool sign
    # is an error, not a TypeError deep in the fold or a cell's label
    for bad in [(1.0, 1), 5, (1, 1.0), (1, True)]:
        with pytest.raises(ValueError, match="pair|ints"):
            core.heap_from_word([bad], 2)
        with pytest.raises(ValueError, match="pair|ints"):
            core.push_letter(core.ColoredHeap(2), bad)


def test_semigroup_never_cancels():
    h = core.heap_from_word([F1] * 5, 3, SEMIGROUP)
    assert h.length == 5
    assert [lvl for lvl, _ in h.columns[0]] == [1, 2, 3, 4, 5]


# --- heap_from_word --------------------------------------------------------


def test_commute_then_cancel():
    h = core.heap_from_word([F1, F3, F1.inverse()], 3)
    assert h.length == 1
    assert h.columns == core.heap_from_word([F3], 3).columns


def test_levels_f1_f2_f1():
    h = core.heap_from_word([F1, F2, F1], 3)
    assert [lvl for lvl, _ in h.columns[0]] == [1, 3]
    assert [lvl for lvl, _ in h.columns[1]] == [2]
    assert h.columns[2] == ()


def test_commuting_inputs_same_heap():
    a = core.heap_from_word([F2, F3, F1], 3)
    b = core.heap_from_word([F2, F1, F3], 3)
    assert a == b


# --- normal_form_readout ---------------------------------------------------


def test_readout_succession_order():
    w = core.normal_form_readout(core.heap_from_word([F2, F1, F3], 3))
    assert tuple(s.index for s in w.syllables) == (2, 1, 3)
    # the other linearization of the same heap is not a normal form
    bad = core.NormalWord((Syllable(2, 1), Syllable(3, 1), Syllable(1, 1)), 3)
    with pytest.raises(ValueError):
        core.validate_normal_word(bad)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: core.validate_normal_word(core.NormalWord((), 0)), "alphabet size"),
        (
            lambda: core.validate_normal_word(core.NormalWord((Syllable(3, 1),), 2)),
            "syllable index 3 out of range 1..2",
        ),
        (
            lambda: core.validate_normal_word(core.NormalWord((Syllable(1, 0),), 2)),
            "exponent must be nonzero",
        ),
        (lambda: core.ColoredHeap(0), "n must be >= 1"),
        (lambda: core.ColoredHeap(2.0), "n must be an int, got 2.0"),
        (lambda: core.ColoredHeap(True), "n must be an int, got True"),
        (lambda: core.ColoredHeap(2, GROUP, ((),)), "columns length must equal n"),
        # two cells side by side at level 1: neither can be emitted first
        (
            lambda: core.normal_form_readout(core.ColoredHeap(2, GROUP, (((1, 1),), ((1, 1),)))),
            "no emittable cell",
        ),
    ],
    ids=["alphabet", "index", "exponent", "heap-n", "heap-float-n", "heap-bool-n", "heap-columns", "readout"],
)
def test_structural_checks_fire(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_readout_empty():
    w = core.normal_form_readout(core.ColoredHeap(4))
    assert w.syllables == ()
    assert w.length == 0


def test_word_letters_one_per_unit_of_length():
    # one Letter per unit of each syllable's exponent, signed by it
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        word = core.normal_form_readout(core.heap_from_word(random_word(rng, n, 30), n))
        spelled = [Letter(s.index, 1 if s.exponent > 0 else -1)
                   for s in word.syllables for _ in range(abs(s.exponent))]
        letters = word.letters()
        assert letters == spelled and len(letters) == word.length
        assert all(type(g) is Letter for g in letters)


def test_readout_merges_syllables():
    w = core.normal_form_readout(core.heap_from_word([F1, F1, F2], 3))
    assert w.syllables == (Syllable(1, 2), Syllable(2, 1))


def test_readout_negative_syllable():
    w = core.normal_form_readout(core.heap_from_word([F1, F2, F1.inverse()], 3))
    assert w.syllables == (Syllable(1, 1), Syllable(2, 1), Syllable(1, -1))
    assert w.length == 3


# --- roof_of ---------------------------------------------------------------


def test_roof_examples():
    assert heapcheck.roof_of(core.ColoredHeap(3)).size == 0
    r = heapcheck.roof_of(core.heap_from_word([F1, F3], 3))
    assert r.columns() == (1, 3)
    r = heapcheck.roof_of(core.heap_from_word([F1, F2], 3))
    assert r.columns() == (2,)
    assert r.marks == (0, 1, 0)


def test_roof_single_column():
    # n=1: the lone column is the entire roof whenever nonempty
    h = core.heap_from_word([F1, F1], 1)
    assert heapcheck.roof_of(h).columns() == (1,)


# --- state key -------------------------------------------------------------


def test_key_distinguishes():
    def k(word):
        return core.heap_from_word(word, 3).columns

    assert k([F1, F3]) == k([F3, F1])
    assert k([F1]) != k([F1.inverse()])
    assert k([F1, F2]) != k([F2, F1])


# --- mode checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda mode: core.ColoredHeap(3, mode),
        lambda mode: walk.WalkParams(n=3, steps=10, trials=1, seed=0, mode=mode),
        lambda mode: oracle.exact_drift_series(2, 2, mode),
        lambda mode: braid.volume_bounds(3, mode),
    ],
    ids=["ColoredHeap", "WalkParams", "exact_drift_series", "volume_bounds"],
)
def test_mode_check_is_shared(build):
    with pytest.raises(ValueError) as expected:
        core._check_mode("grp")
    with pytest.raises(ValueError) as got:
        build("grp")
    assert str(got.value) == str(expected.value)


# --- succession table ------------------------------------------------------


@pytest.mark.parametrize(
    "a,allowed",
    [(1, {2, 3}), (2, {1, 3}), (3, {2})],
)
def test_succession_table_n3(a, allowed):
    assert {b for b in range(1, 4) if core.succession_allowed(3, a, b)} == allowed


def test_succession_rule_matches_three_cases():
    def literal(n, a, b):
        if a == 1:
            return 2 <= b <= n
        if a == n:
            return b == n - 1
        if 2 <= a <= n - 1:
            return b == a - 1 or a < b <= n
        return False  # a is no index on n columns

    for n in range(1, 7):
        for a in range(-1, n + 3):
            for b in range(-1, n + 3):
                assert core.succession_allowed(n, a, b) == literal(n, a, b), (n, a, b)


def test_degenerate_n1():
    h = core.heap_from_word([F1, F1, F1, F1.inverse(), F1.inverse()], 1)
    assert h.length == 1
    assert core.normal_form_readout(h).syllables == (Syllable(1, 1),)


# --- randomized invariants -------------------------------------------------


def test_round_trip_random():
    rng = random.Random(101)
    for _ in range(N_CASES):
        n = rng.randint(1, 8)
        signed = rng.random() < 0.5
        mode = GROUP if signed else rng.choice([GROUP, SEMIGROUP])
        word = random_word(rng, n, 200 if rng.random() < 0.02 else 12, signed)
        h = core.heap_from_word(word, n, mode)
        heapcheck.validate_heap(h)
        w = core.normal_form_readout(h)
        assert w.length == h.length
        assert core.heap_from_word(w.letters(), n, mode) == h


def test_round_trip_wide_strips():
    # n up to 40 with long words: the readout's scan resumes at i - 1
    # after most emissions, far from column 1
    rng = random.Random(404)
    for _ in range(500):
        n = rng.randint(1, 40)
        h = core.heap_from_word(random_word(rng, n, 200), n)
        letters = core.normal_form_readout(h).letters()
        assert core.heap_from_word(letters, n).columns == h.columns


def test_cancellation_random():
    rng = random.Random(202)
    for _ in range(N_CASES):
        n = rng.randint(1, 6)
        h = core.heap_from_word(random_word(rng, n, 10), n)
        g = Letter(rng.randint(1, n), rng.choice((1, -1)))
        assert core.push_letter(core.push_letter(h, g), g.inverse()) == h


def test_commutation_random():
    rng = random.Random(303)
    for _ in range(N_CASES):
        n = rng.randint(3, 6)
        word = random_word(rng, n, 10)
        p = rng.randrange(max(1, len(word) - 1))
        if len(word) < 2 or abs(word[p][0] - word[p + 1][0]) < 2:
            continue
        swapped = word[:p] + [word[p + 1], word[p]] + word[p + 2:]
        assert core.heap_from_word(word, n) == core.heap_from_word(swapped, n)


def test_reduced_length_matches_rewriting():
    rng = random.Random(404)
    for _ in range(400):
        n = rng.randint(1, 4)
        word = random_word(rng, n, 8)
        h = core.heap_from_word(word, n)
        assert h.length == wordref.reduced_length(word)


def test_equality_matches_rewriting():
    rng = random.Random(505)
    for _ in range(300):
        n = rng.randint(2, 4)
        a = random_word(rng, n, 6)
        b = random_word(rng, n, 6)
        ha = core.heap_from_word(a, n)
        hb = core.heap_from_word(b, n)
        assert (ha.columns == hb.columns) == wordref.same_element(a, b)


def test_roof_bounds_random():
    rng = random.Random(606)
    for _ in range(N_CASES):
        n = rng.randint(1, 9)
        h = core.heap_from_word(random_word(rng, n, 30), n)
        roof = heapcheck.roof_of(h)
        cols = roof.columns()
        assert all(b - a >= 2 for a, b in zip(cols, cols[1:]))
        assert roof.size <= math.ceil((n + 1) / 2)
        if not h.is_empty:
            assert roof.size >= 1


def test_roof_is_where_inverses_shorten():
    # marked columns are exactly those where the inverse of the top
    # color shortens the word, and there cancellation equals naive
    # top-cell removal; everywhere else every push grows the heap
    rng = random.Random(707)
    for _ in range(500):
        n = rng.randint(2, 6)
        h = core.heap_from_word(random_word(rng, n, 12), n)
        roof = heapcheck.roof_of(h)
        for i in range(1, n + 1):
            col = h.columns[i - 1]
            shrinkers = [
                s for s in (1, -1)
                if core.push_letter(h, Letter(i, s)).length == h.length - 1
            ]
            if roof.marks[i - 1]:
                assert shrinkers == [-col[-1][1]]
                stripped = core.ColoredHeap(
                    h.n, h.mode,
                    h.columns[: i - 1] + (col[:-1],) + h.columns[i:],
                )
                heapcheck.validate_heap(stripped)
                assert core.push_letter(h, Letter(i, -col[-1][1])) == stripped
            else:
                assert shrinkers == []


def test_cell_count_vs_word_length():
    rng = random.Random(808)
    for _ in range(N_CASES):
        n = rng.randint(1, 6)
        word = random_word(rng, n, 12, signed=False)
        h = core.heap_from_word(word, n, SEMIGROUP)
        assert h.length == len(word)
        g = core.heap_from_word(random_word(rng, n, 12), n, GROUP)
        assert g.length <= 12


def test_semigroup_equality_is_swap_equality():
    rng = random.Random(909)
    for _ in range(300):
        n = rng.randint(2, 4)
        a = random_word(rng, n, 7, signed=False)
        b = random_word(rng, n, 7, signed=False)
        ha = core.heap_from_word(a, n, SEMIGROUP)
        hb = core.heap_from_word(b, n, SEMIGROUP)
        assert (ha.columns == hb.columns) == wordref.same_element(a, b)
