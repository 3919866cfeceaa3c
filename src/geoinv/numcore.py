"""Exact metric and combinatorial-optimization kernel.

Minkowski/Chebyshev norms, Hausdorff distance, exact bound-first bottleneck
matching of one cost matrix or a stack of them (one Hopcroft-Karp matching
per search step for a stack), Linear Assignment Cost and exact Earth Mover's
Distance on weighted distributions.  All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

import enum
import operator

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial.distance import cdist


class Exponent(enum.Enum):
    """Explicit variant for the infinite exponent (never a float sentinel)."""

    INF = "inf"


INF = Exponent.INF

#: tolerance for weight-vector normalization
WEIGHT_TOL = 1e-9
#: most cells, (m + n - 1) * m * n, of the dense constraint matrix of one
#: transportation LP; at the budget (about 203 x 202) an LP takes about a
#: second and 0.5 GiB at peak
EMD_CELL_BUDGET = 2**24


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


def _as_index(value, what):
    """``value`` as a Python integer; ValueError for any non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def lq_norm(v, q=2.0):
    """L_q norm of a vector, with q = INF meaning the Chebyshev norm.

    Finite q is (sum v^q)^(1/q), which for q = 1 is the plain sum, since
    x**1.0 == x; q = 2 keeps ``sqrt``, as pow(x, 0.5) need not round like it.
    """
    q = norm_exponent(q)
    v = np.abs(np.asarray(v, dtype=float))
    if v.size == 0:
        return 0.0
    if q is INF:
        return float(v.max())
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
    """Whether each matrix of the stack ``costs`` (n, k, k) has a perfect
    matching inside ``costs <= t``, for per-matrix thresholds ``t`` (n,).

    One matrix is tested by a zero-cost assignment of the 0/1 matrix
    ``costs > t``.  A larger stack is one Hopcroft-Karp maximum matching of
    the block-diagonal bipartite graph of ``costs <= t``: row u of matrix i
    is vertex i k + u on one side, column v is vertex i k + v on the other.
    Hopcroft-Karp alone would do for one matrix too, with the same results,
    but the assignment is faster there: the 60 single-matrix bottlenecks
    (k = 16..160) of a seed-0 ``cloud_match`` bench batch take about 6 ms
    with it and 7-8 ms without it, enough to raise the median op time.
    """
    n, k = costs.shape[:2]
    if n == 1:
        above = costs[0] > t[0]
        return np.array([not above[linear_sum_assignment(above)].any()])
    # int32 indices, when they fit, spare the constructor a downcasting copy
    index = np.int32 if n * k * k < 1 << 31 else np.int64
    edges = np.flatnonzero(costs <= t[:, None, None]).astype(index)  # (i k + u) k + v
    rows = edges // k
    indptr = np.zeros(n * k + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n * k), out=indptr[1:])
    cols = rows // k * k + edges - rows * k  # i k + v
    graph = csr_matrix((np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(n * k, n * k))
    matched = maximum_bipartite_matching(graph, perm_type="column")
    return (matched.reshape(n, k) >= 0).all(axis=1)


def bottleneck_from_costs(costs):
    """Minimum over perfect matchings of the maximum matched cost.

    ``costs`` is one square matrix (k, k), which gives a float, or a stack
    (..., k, k), which gives a float array of shape (...).  Exact and
    bound-first.  Every matching uses an entry of each row and of each
    column, so no matching beats the bound max(largest row minimum, largest
    column minimum), which is itself a cost.  All matrices are tested at
    their bound in one ``_feasible`` call; those it does not settle
    binary-search their sorted costs above the bound together, one
    ``_feasible`` call per step, for the smallest feasible one.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim < 2 or costs.shape[-1] != costs.shape[-2]:
        raise ValueError("bottleneck needs a square cost matrix")
    if costs.shape[-1] == 0:
        raise ValueError("bottleneck requires non-empty sets")
    if np.isnan(costs).any():
        raise ValueError("NaN in bottleneck costs")
    k = costs.shape[-1]
    flat = costs.reshape(-1, k, k)
    out = np.maximum(flat.min(axis=2).max(axis=1), flat.min(axis=1).max(axis=1))
    todo = np.flatnonzero(~_feasible(flat, out))
    if len(todo):
        sub = flat[todo]
        cand = np.sort(sub.reshape(len(todo), k * k), axis=1)
        lo = (cand <= out[todo, None]).sum(axis=1)  # first cost above the bound
        hi = np.full(len(todo), k * k - 1)  # the largest cost is always feasible
        for _ in range((k * k).bit_length()):  # halvings enough for k^2 costs
            step = np.flatnonzero(lo < hi)
            if not step.size:
                break
            mid = (lo[step] + hi[step]) // 2
            ok = _feasible(sub if len(step) == len(sub) else sub[step], cand[step, mid])
            hi[step[ok]] = mid[ok]
            lo[step[~ok]] = mid[~ok] + 1
        out[todo] = cand[np.arange(len(todo)), lo]
    return float(out[0]) if costs.ndim == 2 else out.reshape(costs.shape[:-2])


def bottleneck(A, B, ground_q=2.0):
    """Bottleneck distance min over bijections g of max_a d(a, g(a)).

    Returns float('inf') when |A| != |B| (no bijection exists).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("bottleneck requires non-empty sets")
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
    the flow is that permutation matrix divided by m.  When one side is a
    single point, its weight is exactly 1 and the only feasible flow is
    ``outer(wp, wq)``.  Every other input is solved as the transportation LP
    by the HiGHS dual simplex, whose (m + n - 1) x mn constraint matrix over
    EMD_CELL_BUDGET cells raises ValueError before it is built.
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

    if m == 1 or n == 1:
        flow = np.outer(wp, wq)
        return float((flow * costs).sum()), flow
    if m == n and (wp == wp[0]).all() and (wq == wq[0]).all():
        rows, cols = linear_sum_assignment(costs)
        flow = np.zeros((m, n))
        flow[rows, cols] = 1.0 / m
        return float(costs[rows, cols].sum() / m), flow

    cells = (m + n - 1) * m * n
    if cells > EMD_CELL_BUDGET:
        raise ValueError(
            f"EMD of {m} x {n} weighted rows needs a transportation LP of {cells:.3g} "
            f"constraint cells, over the budget of {EMD_CELL_BUDGET}"
        )
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
