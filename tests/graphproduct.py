"""
Growth series of LF_n as a graph product: a count reference for every
variant at sizes the dense matrix powers cannot reach.

LF_n is the graph product over the path P_n of one vertex monoid per
column, with non-adjacent columns commuting. Chiswell (The growth series
of a graph product, 1994) and the Cartier-Foata inversion (1969) give

    1/W(t) = sum_k C(n - k + 1, k) (1/W_v(t) - 1)^k,

where C(n - k + 1, k) counts the k-subsets of P_n with no two adjacent
vertices, and W_v is the vertex series:

    group            (1 + t) / (1 - t)
    semigroup        1 / (1 - t)
    projective       1 + t
    restricted (r)   1 + sum_{e=1}^{r-1} t^min(e, r - e)

All series are integer power series truncated at t^k_max, with constant
term 1, so every inverse is exact. Stdlib only; deliberately shares no
code with the package under test.
"""

from math import comb


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two series of equal length, truncated to that length."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _inverse(a: list[int]) -> list[int]:
    """1/a truncated to len(a) terms; a[0] must be 1."""
    inv = [1] + [0] * (len(a) - 1)
    for m in range(1, len(a)):
        inv[m] = -sum(a[j] * inv[m - j] for j in range(1, m + 1))
    return inv


def vertex_series(variant: str, k_max: int, r: int | None = None) -> list[int]:
    """W_v(t) up to t^k_max."""
    if variant == "group":
        return [1] + [2] * k_max
    if variant == "semigroup":
        return [1] * (k_max + 1)
    w = [1] + [0] * k_max
    if variant == "projective":
        w[1] = 1
    elif variant == "restricted":
        for e in range(1, r):
            if min(e, r - e) <= k_max:
                w[min(e, r - e)] += 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return w


def count_words_range(n: int, k_max: int, variant: str, r: int | None = None) -> list[int]:
    """[V(n, 1), ..., V(n, k_max)] from the coefficients of W(t)."""
    u = _inverse(vertex_series(variant, k_max, r))
    u[0] -= 1  # 1/W_v - 1, which starts at t^1
    denom = [0] * (k_max + 1)
    power = [1] + [0] * k_max  # u^k, which starts at t^k
    for k in range(min((n + 1) // 2, k_max) + 1):
        c = comb(n - k + 1, k)
        denom = [d + c * p for d, p in zip(denom, power)]
        power = _mul(power, u)
    return _inverse(denom)[1:]
