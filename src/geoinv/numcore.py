"""Exact metric and combinatorial-optimization kernel.

Minkowski/Chebyshev norms, Hausdorff distance, exact bound-first bottleneck
matching, Linear Assignment Cost and exact Earth Mover's Distance on weighted
distributions.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist


class Exponent(enum.Enum):
    """Explicit variant for the infinite exponent (never a float sentinel)."""

    INF = "inf"


INF = Exponent.INF

#: tolerance for weight-vector normalization
WEIGHT_TOL = 1e-9


def norm_exponent(q):
    """Normalize an exponent to a float >= 1 or the explicit INF variant.

    Accepts the INF enum, float('inf'), the string 'inf', or a real q >= 1.
    """
    if q is INF:
        return INF
    if isinstance(q, str):
        if q.strip().lower() in ("inf", "infinity", "+inf"):
            return INF
        q = float(q)
    if isinstance(q, (int, float, np.integer, np.floating)):
        q = float(q)
        if q == np.inf:
            return INF
        if not q >= 1.0:
            raise ValueError(f"exponent q must satisfy q >= 1, got {q}")
        return q
    raise TypeError(f"cannot interpret exponent {q!r}")


def lq_norm(v, q=2.0):
    """L_q norm of a vector, with q = INF meaning the Chebyshev norm."""
    q = norm_exponent(q)
    v = np.abs(np.asarray(v, dtype=float))
    if v.size == 0:
        return 0.0
    if q is INF:
        return float(v.max())
    if q == 1.0:
        return float(v.sum())
    if q == 2.0:
        return float(np.sqrt((v * v).sum()))
    return float((v**q).sum() ** (1.0 / q))


def minkowski(u, v, q=2.0):
    """Minkowski distance L_q(u, v); q = INF gives max |u_i - v_i|."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("non-finite coordinates")
    return lq_norm(u - v, q)


def _pairwise(A, B, q=2.0):
    """Matrix of L_q distances between rows of A and rows of B."""
    q = norm_exponent(q)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("non-finite coordinates")
    if q is INF:
        return cdist(A, B, "chebyshev")
    return cdist(A, B, "minkowski", p=q)


def hausdorff(A, B, q=2.0):
    """Hausdorff distance between two finite non-empty point sets."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("hausdorff requires non-empty sets")
    d = _pairwise(A, B, q)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _feasible(costs, t):
    """Whether a perfect matching inside ``costs <= t`` exists, that is
    whether the 0/1 matrix ``costs > t`` has a zero-cost assignment."""
    above = costs > t
    return not above[linear_sum_assignment(above)].any()


def bottleneck_from_costs(costs):
    """Minimum over perfect matchings of the maximum matched cost.

    Exact and bound-first.  Every matching uses an entry of each row and of
    each column, so no matching beats the bound max(largest row minimum,
    largest column minimum), which is itself a cost.  When the bound is
    feasible (``_feasible``) it is the answer after one assignment;
    otherwise a binary search over the sorted costs above the bound finds
    the smallest feasible one.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError("bottleneck needs a square cost matrix")
    if costs.size == 0:
        raise ValueError("bottleneck requires non-empty sets")
    if np.isnan(costs).any():
        raise ValueError("NaN in bottleneck costs")
    bound = max(costs.min(axis=1).max(), costs.min(axis=0).max())
    if _feasible(costs, bound):
        return float(bound)
    cand = np.unique(costs[costs > bound])
    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(costs, cand[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cand[lo])


def bottleneck(A, B, ground_q=2.0):
    """Bottleneck distance min over bijections g of max_a d(a, g(a)).

    Returns float('inf') when |A| != |B| (no bijection exists).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] != B.shape[0]:
        return float("inf")
    return bottleneck_from_costs(_pairwise(A, B, ground_q))


def lac(costs):
    """Linear Assignment Cost: (1/k) * minimal total assignment cost."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError("lac needs a square cost matrix")
    if costs.size == 0:
        raise ValueError("lac requires non-empty sets")
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / costs.shape[0])


def _check_weights(w, n=None):
    w = np.asarray(w, dtype=float)
    if n is not None and len(w) != n:
        raise ValueError("weights do not match items")
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    s = w.sum()
    if abs(s - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights sum to {s}, not 1 within {WEIGHT_TOL}")
    return w / s


def emd(P, Q, costs):
    """Exact Earth Mover's Distance between weighted distributions.

    ``P`` and ``Q`` are weight vectors summing to 1; ``costs`` is the
    |P| x |Q| ground-metric matrix.  Returns ``(value, flow)`` where the
    flow satisfies the transportation constraints within 1e-12 and
    minimises sum f_ij * costs_ij exactly.

    When |P| = |Q| = m and both weight vectors are constant (every weight
    1/m), the transportation polytope is the Birkhoff polytope scaled by
    1/m.  By Birkhoff-von Neumann its vertices are permutation matrices,
    so the linear assignment optimum ``lac(costs)`` is the exact EMD and
    the flow is that permutation matrix divided by m.  One-point sides have
    a closed form; every other input is solved as the transportation LP by
    the HiGHS dual simplex.
    """
    wp = _check_weights(P)
    wq = _check_weights(Q)
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (len(wp), len(wq)):
        raise ValueError(f"cost matrix shape {costs.shape} != ({len(wp)}, {len(wq)})")
    if not np.isfinite(costs).all():
        raise ValueError("non-finite costs")
    if (costs < 0).any():
        raise ValueError("negative costs")
    m, n = costs.shape

    if m == 1:
        flow = wq[None, :].copy()
        return float((flow * costs).sum()), flow
    if n == 1:
        flow = wp[:, None].copy()
        return float((flow * costs).sum()), flow
    if m == n and (wp == wp[0]).all() and (wq == wq[0]).all():
        rows, cols = linear_sum_assignment(costs)
        flow = np.zeros((m, n))
        flow[rows, cols] = 1.0 / m
        return float(costs[rows, cols].sum() / m), flow

    # Balanced transportation LP: row sums = wp, column sums = wq (the
    # inequality form of the definition collapses to equalities because the
    # total flow 1 equals the sum of either marginal).  One constraint is
    # redundant; drop the last column constraint for a full-rank system.
    A_eq = np.vstack(
        [np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))[:-1]]
    )
    b_eq = np.concatenate([wp, wq[:-1]])
    res = linprog(
        costs.ravel(),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, 1),
        method="highs-ds",
    )
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"transportation LP failed: {res.message}")
    flow = res.x.reshape(m, n)
    return float((flow * costs).sum()), flow
