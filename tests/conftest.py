"""Shared helpers: random isometries and brute-force metric oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


def random_rotation(rng, n):
    """Haar-random rotation matrix in O(n) with det +1."""
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_isometry(rng, n, allow_reflection=True):
    """Random isometry (rotation matrix, translation vector)."""
    q = random_rotation(rng, n)
    if allow_reflection and rng.random() < 0.5:
        q[:, 0] *= -1.0
    return q, rng.normal(size=n)


def emd_oracle(wp, wq, costs):
    """Exact EMD by enumerating spanning bases of the transportation LP.

    Every vertex of the balanced transportation polytope is supported on
    m + n - 1 cells; the minimum objective over feasible basic solutions is
    the exact optimum.
    """
    wp = np.asarray(wp, dtype=float)
    wq = np.asarray(wq, dtype=float)
    costs = np.asarray(costs, dtype=float)
    m, n = costs.shape
    if m == 1:
        return float(wq @ costs[0])
    if n == 1:
        return float(wp @ costs[:, 0])
    k = m + n - 1
    ncell = m * n
    # equality rows: all m supplies, first n-1 demands
    A = np.zeros((k, ncell))
    for i in range(m):
        A[i, i * n : (i + 1) * n] = 1.0
    for j in range(n - 1):
        A[m + j, j::n] = 1.0
    b = np.concatenate([wp, wq[:-1]])
    c = costs.ravel()
    combos = np.array(list(itertools.combinations(range(ncell), k)))
    mats = A[:, combos].transpose(1, 0, 2)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    rhs = np.broadcast_to(b[:, None], (int(ok.sum()), k, 1)).copy()
    sols = np.linalg.solve(mats[ok], rhs)[:, :, 0]
    feasible = (sols >= -1e-12).all(axis=1)
    if not feasible.any():
        raise RuntimeError("no feasible basis found")
    values = (sols * c[combos[ok]]).sum(axis=1)
    return float(values[feasible].min())


def bottleneck_oracle(A, B, ground_q=math.inf):
    """Exhaustive bottleneck distance over all bijections (≤ 8 points)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    assert len(A) == len(B) <= 8
    diffs = np.abs(A[:, None, :] - B[None, :, :])
    if ground_q == math.inf:
        costs = diffs.max(axis=2)
    else:
        costs = (diffs**ground_q).sum(axis=2) ** (1.0 / ground_q)
    best = math.inf
    for perm in itertools.permutations(range(len(A))):
        best = min(best, max(costs[i, p] for i, p in enumerate(perm)))
    return best


def _ref_bottleneck_from_costs(costs):
    """Binary search over all distinct costs, with no bound step."""
    costs = np.asarray(costs, dtype=float)
    cand = np.unique(costs)
    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        above = costs > cand[mid]
        if above[linear_sum_assignment(above)].any():
            lo = mid + 1
        else:
            hi = mid
    return float(cand[lo])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
