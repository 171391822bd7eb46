"""Exponential-time reference for Bethe vectors, used only by the tests."""

import itertools

import numpy as np

from vermasig.shapovalov import compositions


def bethe_vector_closed_form(cfg, t):
    """b_Q from the assignment-sum expansion: the coefficient of the basis
    vector with multiplicities (a_1, ..., a_n) is
    sum over maps sigma (with |sigma^{-1}(i)| = a_i) of prod_j 1/(t_j - z_{sigma(j)})."""
    n, m = cfg.n, cfg.m
    z = [complex(v) for v in cfg.z]
    tv = [complex(x) for x in t]
    comps = compositions(m, n)
    out = np.zeros(len(comps), dtype=complex)
    for idx, comp in enumerate(comps):
        total = 0.0 + 0.0j
        for word in itertools.product(range(n), repeat=m):
            counts = [0] * n
            for w in word:
                counts[w] += 1
            if tuple(counts) != comp:
                continue
            prod = 1.0 + 0.0j
            for j, w in enumerate(word):
                prod /= tv[j] - z[w]
            total += prod
        out[idx] = total
    return out
