"""Independent brute-force oracles shared by the test modules."""

import numpy as np


def eq3_oracle(series):
    """Pearson matrix by direct term-by-term summation in extended precision.

    Standardizes each series by its mean and ddof=1 standard deviation and
    accumulates the products one term at a time in longdouble, independent
    of the vectorized implementation under test.
    """
    rows = [np.asarray(s, dtype=np.longdouble) for s in series]
    m, n = len(rows), rows[0].size
    out = np.full((m, m), np.nan, dtype=np.longdouble)
    mus = [r.mean() for r in rows]
    sds = []
    for r, mu in zip(rows, mus):
        acc = np.longdouble(0)
        for x in r:
            acc += (x - mu) ** 2
        sds.append(np.sqrt(acc / (n - 1)))
    for i in range(m):
        for j in range(m):
            if sds[i] == 0 or sds[j] == 0:
                continue
            acc = np.longdouble(0)
            for k in range(n):
                acc += ((rows[i][k] - mus[i]) / sds[i]) * ((rows[j][k] - mus[j]) / sds[j])
            out[i, j] = acc / (n - 1)
    return np.asarray(out, dtype=float)


def first_order_cascade_oracle(u, zeros, poles, gain, state):
    """Cascade of first-order sections (1 - zeros[k]/z) / (1 - poles[k]/z),
    ``gain`` on the first, run sample by sample in direct form II transposed
    in extended precision from the section states ``state``."""
    cur = np.asarray(u, dtype=np.longdouble) * np.longdouble(gain)
    for zero, pole, x in zip(zeros, poles, state):
        zero, pole, x = np.longdouble(zero), np.longdouble(pole), np.longdouble(x)
        out = np.empty_like(cur)
        for t, v in enumerate(cur):
            out[t] = v + x
            x = pole * out[t] - zero * v
        cur = out
    return np.asarray(cur, dtype=float)
