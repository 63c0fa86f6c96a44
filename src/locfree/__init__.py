"""
locfree: exact and Monte Carlo statistics of locally free groups.

The locally free group LF_n is generated by f_1, ..., f_n with
f_i f_j = f_j f_i whenever |i - j| >= 2 and no other relations. The
package computes exact word counts and logarithmic volumes for LF_n,
its positive semigroup, its restricted-order and projective quotients
(counting module), runs seeded random walks on the colored-heap
representation to measure drift, roof density, entropy, and heap
geometry (walk module), verifies everything against brute-force
enumeration at small sizes (oracle module), and turns the results into
bilateral volume and drift bounds for the braid group B_{n+1}, which
LF_n maps onto by f_i -> sigma_i and into by the embedding
f_i -> sigma_i^2 (braid module).
"""

from locfree.core import (
    GROUP,
    SEMIGROUP,
    ColoredHeap,
    Letter,
    NormalWord,
    Syllable,
    heap_from_word,
    normal_form_readout,
    push_letter,
)

__version__ = "0.1.0"

__all__ = [
    "GROUP",
    "SEMIGROUP",
    "ColoredHeap",
    "Letter",
    "NormalWord",
    "Syllable",
    "heap_from_word",
    "normal_form_readout",
    "push_letter",
    "__version__",
]
