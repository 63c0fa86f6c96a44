import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from locfree import core, counting
from locfree.counting import GROUP, PROJECTIVE, RESTRICTED, SEMIGROUP

import densematrix
import graphproduct


# --- succession operator --------------------------------------------------


def test_transfer_matrix_small():
    assert densematrix.transfer_matrix(1) == ((0,),)
    assert densematrix.transfer_matrix(2) == ((0, 1), (1, 0))
    assert densematrix.transfer_matrix(3) == ((0, 1, 1), (1, 0, 1), (0, 1, 0))


def test_transfer_matrix_row_sums():
    n = 8
    sums = [sum(row) for row in densematrix.transfer_matrix(n)]
    assert sums[0] == n - 1
    assert sums[-1] == 1
    assert sums[1:-1] == [n - i + 1 for i in range(2, n)]


def test_transfer_matrix_rejects_zero():
    with pytest.raises(ValueError):
        densematrix.transfer_matrix(0)


def test_succession_step_columns_are_the_rule():
    # column b of T_n is the step applied to e_b; entry a is the core rule
    for n in range(1, 9):
        dense = densematrix.transfer_matrix(n)
        for b in range(1, n + 1):
            unit = [1 if j == b else 0 for j in range(1, n + 1)]
            column = counting._succession_step(unit)
            for a in range(1, n + 1):
                allowed = int(core.succession_allowed(n, a, b))
                assert column[a - 1] == allowed == dense[a - 1][b - 1], (n, a, b)


# --- theta -----------------------------------------------------------------


def test_theta_two_columns():
    assert counting.count_words_range(2, 10, PROJECTIVE) == [2] * 10


def test_theta_three_columns():
    assert counting.count_words_range(3, 3, PROJECTIVE) == [3, 5, 8]


def test_theta_range_matches_pointwise():
    for n in (1, 2, 3, 5):
        rng = counting.count_words_range(n, 9, PROJECTIVE)
        assert rng == [densematrix.theta(n, s) for s in range(1, 10)]


# --- count_words -----------------------------------------------------------


def test_count_examples():
    assert counting.count_words(2, 2, GROUP) == 12
    assert counting.count_words(3, 2, GROUP) == 26
    assert counting.count_words(2, 3, SEMIGROUP) == 8
    assert counting.count_words(3, 3, PROJECTIVE) == 8


def test_count_length_one():
    for n in (1, 2, 5, 9):
        assert counting.count_words(n, 1, GROUP) == 2 * n
        assert counting.count_words(n, 1, SEMIGROUP) == n


def test_free_group_and_semigroup_closed_forms():
    group = counting.count_words_range(2, 256, GROUP)
    semi = counting.count_words_range(2, 256, SEMIGROUP)
    for k in range(1, 257):
        assert group[k - 1] == 4 * 3 ** (k - 1)
        assert semi[k - 1] == 2**k
    # ratio -> 3 exactly for the free group
    assert Fraction(group[100], group[99]) == 3


def test_range_matches_single_calls():
    k_max = 12
    restricted = ((RESTRICTED, r) for r in (*range(2, 13), 2 * k_max + 1, 2 * k_max + 2))
    for variant, r in ((GROUP, None), (SEMIGROUP, None), (PROJECTIVE, None), *restricted):
        for n in (1, 2, 3, 4, 8):
            dense = [densematrix.count_words(n, k, variant, r) for k in range(1, k_max + 1)]
            assert counting.count_words_range(n, k_max, variant, r) == dense, (variant, r, n)
            singles = [counting.count_words(n, k, variant, r) for k in range(1, k_max + 1)]
            assert singles == dense, (variant, r, n)


@pytest.mark.parametrize(
    "variant, r",
    [(GROUP, None), (SEMIGROUP, None), (PROJECTIVE, None), *((RESTRICTED, r) for r in range(2, 7))],
)
def test_counts_match_graph_product_series(variant, r):
    # far past the dense matrix powers: the coefficients of Chiswell's series
    for n, k_max in ((1, 10), (7, 40), (60, 200)):
        want = graphproduct.count_words_range(n, k_max, variant, r)
        assert counting.count_words_range(n, k_max, variant, r) == want, (n, k_max)


def test_variant_validation():
    with pytest.raises(ValueError):
        counting.count_words(3, 2, "ring")
    with pytest.raises(ValueError):
        counting.count_words(3, 2, RESTRICTED)  # r missing
    with pytest.raises(ValueError):
        counting.count_words(3, 2, RESTRICTED, 1)
    with pytest.raises(ValueError):
        counting.count_words(3, 2, GROUP, 4)  # stray r


def test_large_r_restriction_is_vacuous():
    # classes mod r with r > 2K cannot wrap at length <= K, so the
    # restricted count collapses to the plain group count
    for k_max in (4, 6, 12):
        for r in (2 * k_max + 1, 2 * k_max + 2):
            for n in (1, 2, 3, 4, 8):
                assert counting.count_words_range(n, k_max, RESTRICTED, r) == (
                    counting.count_words_range(n, k_max, GROUP)
                ), (k_max, r, n)


def test_huge_r_allocates_nothing_in_r():
    # the restricted series has at most three terms whatever r is, and
    # the terms past k_max are dropped, so no buffer grows with r
    r = 10**7 + 1
    tracemalloc.start()
    try:
        counts = counting.count_words_range(1, 10, RESTRICTED, r)
        volume = counting.limit_log_volume(RESTRICTED, r, n=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert counts == counting.count_words_range(1, 10, GROUP)
    assert volume == pytest.approx(counting.limit_log_volume(GROUP, n=5), rel=1e-12)


# --- restricted syllable counts --------------------------------------------


def _series_coefficients(variant, r, terms):
    """The first terms coefficients of A / (1 - d z) for the variant's (A, d)."""
    numer, d = counting._syllable_series(variant, r)
    coeffs = [0] * terms
    for j, a in numer:
        if j < terms:
            coeffs[j] += a
    return list(accumulate(coeffs)) if d else coeffs


def test_syllable_gf_coefficients():
    literals = {2: [1], 3: [2], 4: [2, 1], 5: [2, 2], 6: [2, 2, 1], 7: [2, 2, 2]}
    assert {r: densematrix.syllable_gf_coefficients(r) for r in literals} == literals
    for r in range(2, 41):
        want = densematrix.syllable_gf_coefficients(r)
        assert _series_coefficients(RESTRICTED, r, len(want) + 3) == want + [0] * 3
    assert _series_coefficients(GROUP, None, 6) == [2] * 6
    assert _series_coefficients(SEMIGROUP, None, 6) == [1] * 6
    assert _series_coefficients(PROJECTIVE, None, 6) == [1] + [0] * 5


def test_restricted_syllable_examples():
    for k in range(1, 9):
        for s in range(1, k + 1):
            assert counting.restricted_syllable_count(2, k, s) == (1 if k == s else 0)
    assert counting.restricted_syllable_count(3, 2, 2) == 4
    assert counting.restricted_syllable_count(4, 3, 2) == 4


def test_restricted_syllable_bounds():
    with pytest.raises(ValueError):
        counting.restricted_syllable_count(1, 3, 2)
    with pytest.raises(ValueError):
        counting.restricted_syllable_count(4, 2, 3)


def test_restricted_syllable_count_matches_direct():
    for r in range(2, 13):
        for k in range(1, 13):
            for s in range(1, k + 1):
                assert counting.restricted_syllable_count(r, k, s) == (
                    densematrix.restricted_syllable_count(r, k, s)
                ), (r, k, s)


# --- spectrum --------------------------------------------------------------


def test_spectrum_small_exact():
    assert counting.spectrum_numeric(1) == [0.0]
    s2 = counting.spectrum_numeric(2)
    assert s2 == pytest.approx([1.0, -1.0], abs=1e-12)
    s3 = counting.spectrum_numeric(3)
    golden = (1 + math.sqrt(5)) / 2
    assert s3 == pytest.approx([golden, 1 - golden, -1.0], abs=1e-12)
    s6 = counting.spectrum_numeric(6)
    assert s6 == pytest.approx(
        [1 + math.sqrt(2), 1.0, 1 - math.sqrt(2), -1.0, -1.0, -1.0], abs=1e-12
    )


def test_spectrum_matches_cosine_form():
    for n in (2, 5, 10, 17, 30, 45):
        numeric = counting.spectrum_numeric(n)
        closed = counting.cosine_formula_spectrum(n)
        assert max(abs(a - b) for a, b in zip(numeric, closed)) < 1e-9
        wrong = counting.cosine_formula_spectrum(n, offset=1)
        assert max(abs(a - b) for a, b in zip(numeric, wrong)) > 1e-2


@pytest.mark.parametrize("offset", [1, 2])
def test_cosine_formula_spectrum_descends_as_built(offset):
    # the candidates fall in k and stay >= -1, so the padded list needs no sort
    for n in (*range(1, 401), 1000, 6000):
        spec = counting.cosine_formula_spectrum(n, offset)
        assert len(spec) == n
        assert spec == sorted(spec, reverse=True), n


def test_lambda_max_monotone_to_three():
    lams = [counting.lambda_max(n) for n in (2, 5, 10, 25, 60, 100)]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 3.0
    assert 3.0 - lams[-1] < 4 * math.pi**2 / 102**2 + 1e-6


def _sympy_real_roots(n):
    import sympy

    return sympy.Poly(densematrix.charpoly_from_matrix(n), sympy.Symbol("x")).real_roots()


def test_spectrum_correctly_rounded_against_sympy():
    # each root to 60 digits, taken as an exact rational and rounded
    # once by float(Fraction): the spectrum must equal it bit for bit
    import sympy

    for n in range(1, 25):
        want = []
        for root in _sympy_real_roots(n):
            q = sympy.Rational(root.evalf(60))
            want.append(float(Fraction(int(q.p), int(q.q))))
        assert counting.spectrum_numeric(n) == sorted(want, reverse=True)


@pytest.mark.parametrize("n", [4, 10, 22, 100])
def test_spectrum_exact_rational_roots(n):
    eigs = counting.spectrum_numeric(n)
    expected = [v for v, d in ((0.0, 3), (1.0, 4), (2.0, 6)) if (n + 2) % d == 0]
    assert expected
    for v in expected:
        assert eigs.count(v) == 1
    assert all(math.copysign(1.0, e) == 1.0 for e in eigs if e == 0.0)


def test_lambda_max_is_top_of_spectrum():
    for n in range(1, 61):
        assert counting.lambda_max(n).hex() == counting.spectrum_numeric(n)[0].hex()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30])
def test_lambda_max_from_independence_polynomial(n):
    # 1/(lambda_max + 1) is the smallest positive root of the independence
    # polynomial I(P_n, -t) = sum_k C(n-k+1, k) (-t)^k, isolated exactly
    # (floats lose that root to cancellation by n = 60); lambda_max must
    # be 1/root - 1 correctly rounded, with no sign count involved
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly(sum(math.comb(n - k + 1, k) * (-t) ** k for k in range(n + 2)), t)
    root = min(x for x in poly.real_roots() if x > 0)
    q = sympy.Rational(sympy.N(1 / root - 1, 60))
    assert counting.lambda_max(n) == float(Fraction(int(q.p), int(q.q)))


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_count_matches_sympy_and_recursion(n):
    import sympy

    roots = _sympy_real_roots(n)
    for x in (-0.875, -0.5, Fraction(-1, 3), 0.0, 0.25, 1.0, 1.5, 2.0, 2.9375):
        exact = sympy.Rational(*x.as_integer_ratio())
        count, is_root = counting._sign_count(n, x)
        assert count == sum(1 for r in roots if r != -1 and r >= exact)
        assert is_root == any(r == exact for r in roots)
        # the sign sequence of b_0..b_n, rebuilt from the prefix counts
        signs, last, changes = [1], 1, 0
        for k in range(1, n + 1):
            count_k, zero = counting._sign_count(k, x)
            if zero:
                signs.append(0)
                continue
            if k - count_k != changes:
                last, changes = -last, k - count_k
            signs.append(last)
        ref = [densematrix.charpoly_eval(k, Fraction(x)) for k in range(n + 1)]
        assert signs == [(v > 0) - (v < 0) for v in ref]


def test_spectrum_self_checks_fire(monkeypatch):
    eigenvalue, sign_count = counting._eigenvalue, counting._sign_count
    monkeypatch.setattr(counting, "_eigenvalue", lambda n, k: eigenvalue(n, k) + 1e-6)
    with pytest.raises(ArithmeticError):
        counting.spectrum_numeric(30)
    monkeypatch.setattr(counting, "_eigenvalue", eigenvalue)
    monkeypatch.setattr(
        counting, "_sign_count", lambda n, x: (1, False) if x == 3.0 else sign_count(n, x)
    )
    with pytest.raises(ArithmeticError):
        counting.lambda_max(30)
    with pytest.raises(ArithmeticError):
        counting.spectrum_numeric(30)


def test_eigenvalue_sign_counts_are_bounded(monkeypatch):
    # _eigenvalue counts a rational root (0, 1 or 2) first, at the
    # integer its closed-form guess rounds to, and returns it there;
    # without that exit the root 0 is bisected down through the
    # subnormals, over 1000 sign counts. Every other root is bracketed
    # around its guess: 8 counts at most at n = 100 and 4 for the top
    # root at n = 6000, against about 55 for a bisection of (-1, 3).
    calls = []
    sign_count, eigenvalue = counting._sign_count, counting._eigenvalue
    monkeypatch.setattr(counting, "_sign_count", lambda n, x: calls.append(x) or sign_count(n, x))
    exact = 0
    for n in range(1, 41):
        eigs = counting.spectrum_numeric(n)
        for v, d in ((0.0, 3), (1.0, 4), (2.0, 6)):
            if (n + 2) % d == 0:
                calls.clear()
                assert eigenvalue(n, eigs.index(v) + 1) == v
                assert len(calls) <= 1, (n, v)
                exact += 1
    assert exact == 14 + 10 + 7  # multiples of 3, 4 and 6 in 3..42

    per_call = []

    def counted(n, k):
        calls.clear()
        value = eigenvalue(n, k)
        per_call.append(len(calls))
        return value

    monkeypatch.setattr(counting, "_eigenvalue", counted)
    counting.spectrum_numeric(100)
    assert len(per_call) == 50
    assert max(per_call) <= 10
    calls.clear()
    eigenvalue(6000, 1)
    assert len(calls) <= 8


@pytest.mark.parametrize("wrong", ["offset1", "constant"])
def test_wrong_guess_changes_no_bit(monkeypatch, wrong):
    # the guess only orders the sign counts; the counts alone decide
    sizes = (1, 2, 4, 10, 22, 45, 100)  # the roots 0, 1 and 2 among them
    want = [[x.hex() for x in counting.spectrum_numeric(n)] for n in sizes]
    top = counting.lambda_max(1000).hex()
    cosine_root = counting._cosine_root
    guess = {
        "offset1": lambda n, k, offset=2: cosine_root(n, k, 1),  # the wrong closed form
        "constant": lambda n, k, offset=2: 2.9,  # a constant, far from most roots
    }[wrong]
    monkeypatch.setattr(counting, "_cosine_root", guess)
    # and it costs counts, but never the subnormal walk to the root 0:
    # 63 counts at most here, over 1000 without the count at 0
    calls, per_root = [], []
    sign_count, eigenvalue = counting._sign_count, counting._eigenvalue
    monkeypatch.setattr(counting, "_sign_count", lambda n, x: calls.append(x) or sign_count(n, x))

    def counted(n, k):
        calls.clear()
        value = eigenvalue(n, k)
        per_root.append(len(calls))
        return value

    monkeypatch.setattr(counting, "_eigenvalue", counted)
    assert [[x.hex() for x in counting.spectrum_numeric(n)] for n in sizes] == want
    assert counting.lambda_max(1000).hex() == top
    assert max(per_root) <= 70


def test_sign_count_total_pinned(monkeypatch):
    # the work is pinned, not only the bits: about 5 sign counts per root,
    # plus _admit's count at 3 once per call and spectrum_numeric's count
    # just above -1
    calls = []
    sign_count = counting._sign_count
    monkeypatch.setattr(counting, "_sign_count", lambda n, x: calls.append(x) or sign_count(n, x))
    for n in range(1, 101):
        counting.spectrum_numeric(n)
    counting.lambda_max(6000)
    assert len(calls) == 12793


def _hex_digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_spectrum_bits_pinned():
    # recorded from the bisection of all of (-1, 3) that the guessed
    # brackets replaced: every bit of every eigenvalue is unchanged
    spectra = (
        f"{n} " + " ".join(x.hex() for x in counting.spectrum_numeric(n)) for n in range(1, 121)
    )
    assert _hex_digest(spectra) == (
        "bc6ad5522661a0d35c175332f84addf7575ec5a2958f31126b54999e5c0b0397"
    )
    assert _hex_digest([" ".join(x.hex() for x in counting.spectrum_numeric(400))]) == (
        "1a5e18e40b2dd9ac6817d67fa4318709c65ebe63dd1b8f85c5d0e59662ff316f"
    )
    assert counting.lambda_max(1000).hex() == "0x1.7ffeb6271f710p+1"
    assert counting.lambda_max(6000).hex() == "0x1.7ffff6ce970f4p+1"


def test_count_budget():
    for n, k_max in (
        (1, counting.COUNT_MAX_K + 1),
        (counting.COUNT_MAX_WORK + 1, 1),
        (counting.COUNT_MAX_WORK // 2 + 1, 2),
    ):
        for variant in (GROUP, SEMIGROUP, PROJECTIVE):
            with pytest.raises(ValueError, match="budgeted"):
                counting.count_words_range(n, k_max, variant)
        with pytest.raises(ValueError, match="budgeted"):
            counting.count_words(n, k_max, RESTRICTED, r=3)


def test_spectrum_degree_budget():
    with pytest.raises(ValueError, match="budgeted"):
        counting.spectrum_numeric(counting.SPECTRUM_MAX_N + 1)
    with pytest.raises(ValueError, match="budgeted"):
        counting.lambda_max(counting.LAMBDA_MAX_N + 1)
    with pytest.raises(ValueError, match="budgeted"):
        counting.volume_report(counting.LAMBDA_MAX_N + 1, 2, GROUP)
    with pytest.raises(ValueError):
        counting.lambda_max(0)


# --- characteristic polynomial ---------------------------------------------


def test_charpoly_eval_examples():
    assert densematrix.charpoly_eval(1, 7) == -7
    assert densematrix.charpoly_eval(2, 2) == 3  # a_2 = x^2 - 1
    assert densematrix.charpoly_eval(3, -1) == 0
    assert densematrix.charpoly_eval(3, Fraction(1, 2)) == Fraction(15, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 21, 30])
def test_charpoly_recursion_certified_by_matrix(n):
    assert densematrix.charpoly_coefficients(n) == densematrix.charpoly_from_matrix(n)


def test_charpoly_eval_matches_coefficients():
    for n in (4, 9):
        coeffs = densematrix.charpoly_coefficients(n)
        for lam in (Fraction(-3), Fraction(1, 3), Fraction(2), Fraction(7, 2)):
            horner = Fraction(0)
            for c in coeffs:
                horner = horner * lam + c
            assert densematrix.charpoly_eval(n, lam) == horner


def charpoly_closed_form(n: int, lam: float) -> float:
    """
    a_n(lam) for -1 < lam < 3 via Chebyshev polynomials of the second
    kind: with 2 cos(t) = sqrt(lam + 1),

        a_n = (-1)^n (lam+1)^{n/2} (U_n(cos t) - U_{n-1}(cos t)/sqrt(lam+1)).
    """
    if not -1 < lam < 3:
        raise ValueError("closed form valid for -1 < lam < 3")
    root = math.sqrt(lam + 1.0)
    t = math.acos(root / 2.0)
    if t == 0.0:
        raise ValueError("lam too close to 3 for the sine form")
    u_n = math.sin((n + 1) * t) / math.sin(t)
    u_n1 = math.sin(n * t) / math.sin(t)
    return (-1.0) ** n * root**n * (u_n - u_n1 / root)


def test_charpoly_closed_form_agrees():
    for n in (2, 5, 11, 24):
        for lam in (-0.75, -0.2, 0.5, 1.3, 2.4, 2.9):
            rec = densematrix.charpoly_eval(n, lam)
            closed = charpoly_closed_form(n, lam)
            assert closed == pytest.approx(rec, rel=1e-9, abs=1e-9)


def test_eigenvalues_are_charpoly_roots():
    # normalized backward error: raw a_n values are astronomically
    # scaled, so divide by the Horner magnitude of the evaluation
    for n in (6, 14, 30):
        coeffs = densematrix.charpoly_coefficients(n)
        for lam in counting.spectrum_numeric(n):
            mag = 0.0
            for c in coeffs:
                mag = mag * abs(lam) + abs(c)
            assert abs(densematrix.charpoly_eval(n, lam)) <= 1e-9 * mag


# --- volumes ---------------------------------------------------------------


def test_limit_log_volume_constants():
    assert counting.limit_log_volume(GROUP) == pytest.approx(math.log(7), abs=1e-12)
    assert counting.limit_log_volume(SEMIGROUP) == pytest.approx(math.log(4), abs=1e-12)
    assert counting.limit_log_volume(PROJECTIVE) == pytest.approx(math.log(3), abs=1e-12)
    assert counting.limit_log_volume(RESTRICTED, 2) == pytest.approx(math.log(3), abs=1e-10)
    assert counting.limit_log_volume(RESTRICTED, 3) == pytest.approx(math.log(6), abs=1e-10)
    assert counting.limit_log_volume(RESTRICTED, 4) == pytest.approx(
        math.log(3 + 2 * math.sqrt(3)), abs=1e-10
    )


def test_limit_log_volume_finite_n():
    assert counting.limit_log_volume(GROUP, n=2) == pytest.approx(math.log(3), abs=1e-12)
    vols = [counting.limit_log_volume(GROUP, n=n) for n in (2, 4, 8, 16, 64)]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    assert vols[-1] < math.log(7)
    # a one-term syllable series gives the growth base exactly
    for n in (1, 2, 5, 60, None):
        lam = 3.0 if n is None else counting.lambda_max(n)
        assert counting.limit_log_volume(GROUP, n=n) == math.log(2.0 * lam + 1.0)
        assert counting.limit_log_volume(SEMIGROUP, n=n) == math.log(lam + 1.0)
        if n != 1:
            assert counting.limit_log_volume(PROJECTIVE, n=n) == math.log(lam)
    # the bisected restricted growth bases, to the last bit
    for (r, n), expected in {
        (3, 5): 1.502734096604658,
        (3, 60): 1.7883331550397308,
        (3, None): 1.7917594692280554,
        (4, 5): 1.5989978864178616,
        (4, 60): 1.8630675645403412,
        (4, None): 1.8662640412588716,
        (5, 5): 1.674501471180733,
        (5, 60): 1.9245585610701181,
        (5, None): 1.9275982690618079,
        (12, 5): 1.703552524707952,
        (12, 60): 1.942944453010682,
        (12, None): 1.9458810019006552,
    }.items():
        assert counting.limit_log_volume(RESTRICTED, r, n) == expected, (r, n)


def test_restricted_order_two_volume_is_projective():
    # f^2 = 1 and f^2 = f have the same syllable series, hence the same
    # growth base, bit for bit
    for n in [*range(2, 61), None]:
        assert counting.limit_log_volume(RESTRICTED, 2, n) == (
            counting.limit_log_volume(PROJECTIVE, n=n)
        ), n
    # at n = 1 (lambda_max 0) the projective and every restricted quotient
    # is finite, so none has a volume; the group and semigroup grow by 1
    for variant, r in ((PROJECTIVE, None), *((RESTRICTED, r) for r in range(2, 9))):
        with pytest.raises(ValueError, match="volume is undefined"):
            counting.limit_log_volume(variant, r, 1)
    for variant in (GROUP, SEMIGROUP):
        assert counting.limit_log_volume(variant, n=1) == 0.0


def test_log_volume_estimate_free_group():
    assert counting.volume_report(2, 40, GROUP).log_ratios[-1] == pytest.approx(
        math.log(3), abs=1e-12
    )


def test_volume_ratio_error_shrinks():
    # ratios oscillate around the limit (NOT monotone: the subdominant
    # eigenvalues of 2T+I alternate in sign), but the error contracts
    # geometrically and is < 1e-6 by K = 8n at these sizes
    for variant in (GROUP, SEMIGROUP):
        for n in (3, 6):
            limit = counting.limit_log_volume(variant, n=n)
            errs = [
                abs(counting.volume_report(n, k, variant).log_ratios[-1] - limit)
                for k in (2 * n, 4 * n, 8 * n)
            ]
            assert errs[2] <= errs[1] <= errs[0]
            assert errs[2] < 1e-6


def test_volume_report_shape_and_acceleration():
    rep = counting.volume_report(8, 48, GROUP)
    assert rep.variant == GROUP and rep.n == 8 and rep.k_max == 48
    assert len(rep.log_ratios) == 47
    assert rep.log_ratios[-1] == pytest.approx(math.log(rep.ratio_last), abs=1e-12)
    limit_ratio = math.exp(rep.finite_n_limit)
    assert abs(rep.ratio_accelerated - limit_ratio) < abs(rep.ratio_last - limit_ratio)
    assert rep.asymptotic_limit == pytest.approx(math.log(7), abs=1e-12)


def test_theta_ratio_converges_to_lambda_max():
    thetas = counting.count_words_range(30, 161, PROJECTIVE)
    lam = counting.lambda_max(30)
    errs = [abs(thetas[s] / thetas[s - 1] - lam) for s in (40, 80, 160)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[0] < 0.1
