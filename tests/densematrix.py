"""
Dense reference for the succession matrix T_n, built from its definition.

(T_n)_{ab} = 1 iff normal-form index b may follow index a (1-based),
that is b = a - 1 or b > a. Word counts come from one exact integer
matrix power per length K, by repeated squaring:

    group            V(n, K) = 2 <v, (2 T_n + I)^{K-1} v>
    semigroup        V(n, K) =   <v, (T_n + I)^{K-1} v>
    projective       V(n, K) = theta_n(K) = <v, T_n^{K-1} v>
    restricted (r)   V(n, K) = sum_s N_r(K, s) theta_n(s)

with v = (1, ..., 1). N_r(K, s) and the per-syllable series g_r are
counted directly from the geodesic length min(c, r - c) of each nonzero
class c mod r. The characteristic polynomial det(T_n - xI) comes from
sympy's fraction-free Berkowitz algorithm, independent of the two-term
recursion a_k = -(x+1)(a_{k-1} + a_{k-2}), a_0 = 1, a_1 = -x, whose
coefficient expansion and scalar evaluation are also kept here as
references for the package's sign-count eigenvalue routine.
Deliberately shares no code with the package under test.
"""


def transfer_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """T_n as rows of 0/1 entries; row sums are n-1, then n-i+1, then 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        tuple(1 if (b == a - 1 or b > a) else 0 for b in range(1, n + 1))
        for a in range(1, n + 1)
    )


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_pow(m, k):
    n = len(m)
    result = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    while k:
        if k & 1:
            result = _mat_mul(result, m)
        m = _mat_mul(m, m)
        k >>= 1
    return result


def _ones_form(m, k, scale, shift) -> int:
    """<v, (scale m + shift I)^k v>: the sum of all entries of the power."""
    base = tuple(
        tuple(scale * x + (shift if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(m)
    )
    return sum(map(sum, _mat_pow(base, k)))


def theta(n: int, s: int) -> int:
    """Number of admissible index sequences of length s."""
    return _ones_form(transfer_matrix(n), s - 1, 1, 0)


def syllable_gf_coefficients(r: int) -> list[int]:
    """
    Coefficients of g_r(z); the z^j entry counts the nonzero classes of
    Z/rZ whose geodesic length is j+1.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    lengths = [min(c, r - c) for c in range(1, r)]
    return [lengths.count(j) for j in range(1, max(lengths) + 1)]


def restricted_syllable_count(r: int, K: int, s: int) -> int:
    """Tuples of s nonzero classes mod r whose geodesic lengths sum to K."""
    lengths = [min(c, r - c) for c in range(1, r)]
    ways = {0: 1}
    for _ in range(s):
        nxt: dict[int, int] = {}
        for total, w in ways.items():
            for ell in lengths:
                if total + ell <= K:
                    nxt[total + ell] = nxt.get(total + ell, 0) + w
        ways = nxt
    return ways.get(K, 0)


def count_words(n: int, K: int, variant: str, r: int | None = None) -> int:
    """V(n, K) by dense matrix powers, one power per length."""
    t = transfer_matrix(n)
    if variant == "group":
        return 2 * _ones_form(t, K - 1, 2, 1)
    if variant == "semigroup":
        return _ones_form(t, K - 1, 1, 1)
    if variant == "projective":
        return theta(n, K)
    if variant == "restricted":
        return sum(
            restricted_syllable_count(r, K, s) * theta(n, s) for s in range(1, K + 1)
        )
    raise ValueError(f"unknown variant {variant!r}")


def charpoly_from_matrix(n: int) -> list[int]:
    """
    det(T_n - xI), highest degree first, from the matrix by sympy's
    Berkowitz algorithm. Slow beyond n around 40.
    """
    import sympy

    x = sympy.Symbol("x")
    coeffs = [int(c) for c in sympy.Matrix(transfer_matrix(n)).charpoly(x).all_coeffs()]
    # sympy returns the monic det(xI - T); det(T - xI) differs by (-1)^n
    return [-c for c in coeffs] if n % 2 else coeffs


def charpoly_coefficients(n: int) -> list[int]:
    """
    Integer coefficients of a_n(x) = det(T_n - xI), highest degree
    first, from the two-term recursion with exact polynomial arithmetic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = [1]  # a_0
    if n == 0:
        return prev
    cur = [-1, 0]  # a_1 = -x
    for _ in range(n - 1):
        s = [0] * len(cur)
        for i, c in enumerate(prev):
            s[i + len(cur) - len(prev)] += c
        for i, c in enumerate(cur):
            s[i] += c
        # multiply by -(x + 1)
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(s):
            nxt[i] -= c
            nxt[i + 1] -= c
        prev, cur = cur, nxt
    return cur


def charpoly_eval(n: int, lam):
    """
    a_n(lam) via the scalar recursion a_k = -(lam+1)(a_{k-1} + a_{k-2}).

    Works over any ring Python arithmetic supports (int, float,
    Fraction); exact for exact inputs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1 + 0 * lam
    a_prev, a = 1, -lam
    for _ in range(n - 1):
        a_prev, a = a, -(lam + 1) * (a + a_prev)
    return a
