"""The dense eliminators over Z_{p^k}, kept as independent references for
the tests: `_snf_local` diagonalizes a numpy matrix by min-valuation
pivoting, and `_kernel_mod` reads generators of a kernel off it.  The
package reads every cokernel with the sparse `abelian.snf`, which shares
no code with these."""

import numpy as np


def _snf_local(a, p: int, k: int, track=None):
    """Diagonalize over Z_{p^k} by min-valuation pivoting.

    Returns (diagonal valuations, V^T @ track) where the column change of
    basis satisfies A_new = U A V for some invertible U; neither U nor V is
    materialized.  A column operation on A is a row operation on V^T, so
    only V^T @ track is carried along (None: nothing is).  With the
    global-minimum pivot, one sweep of row operations clears the pivot's
    column and one sweep of column operations its row, exactly (all
    quotients divide out), so no Euclid iteration is needed, and the
    valuations come out ascending.  Entries stay below m = p^k, so every
    product is below m^2: int64 while m^2 < 2^63, Python ints (object
    dtype) past that, so the result is exact at every modulus.
    """
    m = p ** k
    dtype = np.int64 if m * m < 2 ** 63 else object
    a = np.asarray(a, dtype=dtype) % m
    rows, cols = a.shape
    x = None if track is None else np.asarray(track, dtype=dtype) % m
    diag_vals: list[int] = []
    t = 0
    limit = min(rows, cols)
    while t < limit:
        sub = a[t:, t:]
        # least p-adic valuation, searching unit entries first
        pi = pj = -1
        pv = k
        for v in range(k):
            mask = (sub % (p ** (v + 1))) != 0
            if mask.any():
                idx = int(np.argmax(mask))
                pi, pj = divmod(idx, cols - t)
                pi += t
                pj += t
                pv = v
                break
        if pi < 0:
            break
        if pi != t:
            a[[t, pi]] = a[[pi, t]]
        if pj != t:
            a[:, [t, pj]] = a[:, [pj, t]]
            if x is not None:
                x[[t, pj]] = x[[pj, t]]
        e = int(a[t, t])
        unit = e // (p ** pv)
        if unit != 1:
            a[t] = (a[t] * pow(unit, -1, m)) % m
        nzr = t + 1 + np.nonzero(a[t + 1:, t])[0]
        if nzr.size:
            q = (a[nzr, t] // (p ** pv)) % m
            a[nzr, t:] = (a[nzr, t:] - q[:, None] * a[t, t:]) % m
        # column t is now zero outside row t, so the column operations that
        # clear row t change nothing else; only V^T @ track records them
        cols_idx = t + 1 + np.nonzero(a[t, t + 1:])[0]
        if x is not None and cols_idx.size:
            q = (a[t, cols_idx] // (p ** pv)) % m
            x[cols_idx] = (x[cols_idx] - q[:, None] * x[t]) % m
        a[t, t + 1:] = 0
        diag_vals.append(pv)
        t += 1
    return diag_vals, x


def _kernel_mod(rows, width: int, p: int, k: int):
    """Generators (columns) of the solutions of rows @ u = 0 over Z_{p^k}.

    With U rows V = diag(p^{a_j}), u = V w solves it exactly when each
    p^{a_j} w_j vanishes, i.e. w_j is a multiple of p^{k-a_j}; coordinates
    past the last pivot are free (a_j = k), and a unit pivot admits only 0.
    """
    diag_vals, v_t = _snf_local(rows, p, k, np.eye(width, dtype=np.int64))
    a = np.array(diag_vals + [k] * (width - len(diag_vals)), dtype=v_t.dtype)
    keep = a > 0
    return (v_t[keep] * p ** (k - a[keep, None]) % p ** k).T
