"""Exact metric and combinatorial-optimization kernel.

Minkowski/Chebyshev norms, Hausdorff distance, exact bottleneck matching of
one cost matrix or a stack of them, Linear Assignment Cost and exact Earth
Mover's Distance on weighted distributions.  The bottleneck of k x k matrices
with k <= ENUMERATION_MAX_K (5) is the least over all k! permutations of the
largest assigned cost, gathered in blocks; larger matrices are searched
bound-first, with one Hopcroft-Karp matching per search step for a stack.
A near copy, whose row-argmin map is a permutation, needs no solver for its
EMD or its single-matrix bottleneck.  ``emd_from_bounds``
gives the EMD of two uniform distributions of m items from bounds and
exact entries taken on demand, with as few exact entries as the bounds
allow.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
import sys

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
#: most cells of one point distance matrix (``_pairwise``), 128 MiB of floats
PAIRWISE_CELL_BUDGET = 2**24
#: the real types, concrete ones first: a numbers.Real ABC check costs about 0.5 us
_REALS = (float, int, numbers.Real)
#: the largest finite float; a Python int above it has no float
_FLOAT_MAX = sys.float_info.max
#: largest k whose k x k bottleneck is taken over all k! permutations
ENUMERATION_MAX_K = 5
#: the k! permutations of k columns, one row each, for k <= ENUMERATION_MAX_K
PERMS = {
    k: np.array(list(itertools.permutations(range(k))))
    for k in range(1, ENUMERATION_MAX_K + 1)
}
#: most float cells (matrices x k!) of one enumeration block; the gathered
#: column and the running maximum hold two such blocks, 512 KiB at most
ENUMERATION_BLOCK = 1 << 15
#: relative slack of the candidate test of ``emd_from_bounds``, far above
#: the rounding of its sums of m bounds
PRUNE_SLACK = 1e-9
#: relative slack of the stop test of ``periodic.lnd``, per motif point: the
#: plain column mean of m rows of entries at most x and the weighted mean of
#: their collapsed rows (weights summed from copies of 1/m) each round to
#: within (m + 1) 2**-53 x of the exact mean, so the L_inf gaps between such
#: means of sets of at most m points, less asymptotics at most x, differ by
#: less than 8 (m + 1) 2**-53 x
MEAN_SLACK = 8 * 2.0**-53


def norm_exponent(q):
    """Normalize an exponent to a float >= 1 or the explicit INF variant.

    Accepts the INF enum, a real q >= 1 or float('inf'), or a string that
    ``float`` reads as one of these; ValueError for anything else.
    """
    if q is INF:
        return INF
    if isinstance(q, str):
        try:
            q = float(q)
        except ValueError:
            raise ValueError(f"cannot interpret exponent {q!r}") from None
    if isinstance(q, _REALS):
        try:
            q = float(q)
        except OverflowError:
            raise ValueError("exponent q is beyond the float range") from None
        if q == np.inf:
            return INF
        if not q >= 1.0:
            raise ValueError(f"exponent q must satisfy q >= 1, got {q}")
        return q
    raise ValueError(f"cannot interpret exponent {q!r}")


def _as_index(value, what, lo=None):
    """``value`` as a Python integer; ValueError for a non-integer or one below ``lo``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be >= {lo}")
    return value


def _real(value, what, positive=False, signed=False):
    """``value`` as a finite float, >= 0 unless ``signed`` (> 0 if ``positive``);
    ValueError naming ``what``, also for an integer beyond the float range."""
    if not isinstance(value, _REALS):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{what} must be finite")
    if not (signed or (value > 0 if positive else value >= 0)):
        raise ValueError(f"{what} must be {'positive' if positive else 'non-negative'}")
    return float(value)


def _within(cells, budget, need):
    """ValueError "{need()}, over the budget of {budget}" unless cells <= budget."""
    if not cells <= budget:
        raise ValueError(f"{need()}, over the budget of {budget}")


def lq_norm(v, q=2.0):
    """L_q norm of a vector, with q = INF meaning the Chebyshev norm.

    Finite q is (sum v^q)^(1/q), which for q = 1 is the plain sum, since
    x**1.0 == x; q = 2 keeps ``sqrt``, as pow(x, 0.5) need not round like it.
    """
    q = norm_exponent(q)
    v = np.abs(np.asarray(v, dtype=float))
    if q is INF:
        return float(v.max())
    if q == 2.0:
        return float(np.sqrt((v * v).sum()))
    return float((v**q).sum() ** (1.0 / q))


def minkowski(u, v, q=2.0):
    """Minkowski distance L_q(u, v) of two vectors of one length; q = INF
    gives max |u_i - v_i|."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}, need two vectors of one length")
    return lq_norm(_rows(u, "coordinates") - _rows(v, "coordinates"), q)


def _rows(a, what, width=None, finite=True):
    """``a`` as a float array of m >= 1 rows of n >= 1 (or ``width``) numbers,
    a 1-D input being one row; ValueError naming ``what`` for any other shape
    and, unless ``finite`` is false, for a non-finite entry."""
    rows = np.asarray(a, dtype=float)
    if rows.ndim < 2:
        rows = rows.reshape(1, -1)  # as np.atleast_2d, at less call overhead
    if rows.ndim != 2 or not rows.size or (width is not None and rows.shape[1] != width):
        need = "non-empty rows" if width is None else f"rows of {width} numbers"
        raise ValueError(f"{what} requires non-empty sets: 2-D point arrays of at least one "
                         f"point, m >= 1 {need}, got shape {rows.shape}")
    if finite and not np.isfinite(rows).all():
        raise ValueError(f"non-finite {what}")
    return rows


def _pairwise(A, B, q=2.0):
    """Matrix of L_q distances between rows of A and rows of B; over
    PAIRWISE_CELL_BUDGET cells raises ValueError before it is allocated."""
    q = norm_exponent(q)
    A, B = _rows(A, "coordinates"), _rows(B, "coordinates")
    cells = len(A) * len(B)
    _within(cells, PAIRWISE_CELL_BUDGET,
            lambda: f"distances of {len(A)} x {len(B)} points need {cells:.3g} matrix cells")
    if q is INF:
        return cdist(A, B, "chebyshev")
    return cdist(A, B, "minkowski", p=q)


def hausdorff(A, B, q=2.0):
    """Hausdorff distance between two finite non-empty point sets."""
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


def _argmin_map(costs):
    """The row-argmin map σ of one matrix (m, n) or of each matrix of a stack
    (..., m, n), σ(i) the first column of a least cost of row i, and whether
    σ is a permutation (m = n, no column twice).  If it is, no assignment
    beats it at any row, so it is optimal for every objective that grows
    with each assigned cost."""
    sigma = costs.argmin(axis=-1)
    hit = np.zeros(costs.shape[:-2] + costs.shape[-1:], dtype=bool)
    if sigma.ndim == 1:
        hit[sigma] = True
    else:  # a stack (s, m, n)
        hit[np.arange(len(sigma))[:, None], sigma] = True
    return sigma, costs.shape[-2] == costs.shape[-1] and hit.all(axis=-1)


def _enumerated(flat):
    """Bottlenecks of a stack (n, k, k), k <= ENUMERATION_MAX_K, as the least
    over the k! permutations p of max_j costs[p_j, j].

    Only maxima and minima of the costs are taken, so each value is one of
    its matrix's costs.  The stack is gathered ENUMERATION_BLOCK cells at a
    time, with one running maximum over the columns j.
    """
    n, k = flat.shape[:2]
    perms = PERMS[k]
    out = np.empty(n)
    step = max(1, ENUMERATION_BLOCK // len(perms))
    for lo in range(0, n, step):
        block = flat[lo : lo + step]
        worst = block[:, perms[:, 0], 0]
        for j in range(1, k):
            np.maximum(worst, block[:, perms[:, j], j], out=worst)
        worst.min(axis=1, out=out[lo : lo + step])
    return out


def _searched(flat):
    """Bottlenecks of a stack (n, k, k) by the bound-first search.

    Every matching uses an entry of each row and of each column, so no
    matching beats the bound max(largest row minimum, largest column
    minimum), which is itself a cost.  All matrices are tested at their bound
    in one ``_feasible`` call; those it does not settle binary-search their
    sorted costs above the bound together, one ``_feasible`` call per step,
    for the smallest feasible one.

    A single matrix whose row-argmin or column-argmin map is a permutation
    (see ``_argmin_map``) needs no matching: that permutation's largest cost
    is the largest row (or column) minimum, at most the bound, so the bound
    is its exact bottleneck.  A stack is always tested, as the maps settled
    too few of its matrices to pay for the check.
    """
    n, k = flat.shape[:2]
    out = np.maximum(flat.min(axis=2).max(axis=1), flat.min(axis=1).max(axis=1))
    if n == 1 and (_argmin_map(flat[0])[1] or _argmin_map(flat[0].T)[1]):
        return out
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
    return out


def _square_costs(costs):
    """``costs`` as a float array of one square matrix (k, k) or a stack
    (..., k, k), k >= 1, with no NaN; infinite costs are allowed."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim < 2 or costs.shape[-1] != costs.shape[-2] or not costs.shape[-1]:
        raise ValueError(f"need non-empty square cost matrices, got shape {costs.shape}")
    if costs.size and np.isnan(costs.min()):  # min propagates NaN, with no mask
        raise ValueError("NaN in costs")
    return costs


def bottleneck_from_costs(costs):
    """Minimum over perfect matchings of the maximum matched cost.

    ``costs`` is one square matrix (k, k), which gives a float, or a stack
    (..., k, k), which gives a float array of shape (...).  Exact: the value
    is always one of the matrix's costs.  For k <= ENUMERATION_MAX_K (5) it
    is the least over all k! permutations of the largest assigned cost,
    taken in blocks of ENUMERATION_BLOCK cells; above that, the matrices are
    searched bound-first (see ``_searched``).
    """
    costs = _square_costs(costs)
    k = costs.shape[-1]
    flat = costs.reshape(-1, k, k)
    out = _enumerated(flat) if k <= ENUMERATION_MAX_K else _searched(flat)
    return float(out[0]) if costs.ndim == 2 else out.reshape(costs.shape[:-2])


def bottleneck(A, B, ground_q=2.0):
    """Bottleneck distance min over bijections g of max_a d(a, g(a)).

    Returns float('inf') when |A| != |B| (no bijection exists).
    """
    A, B = _rows(A, "bottleneck"), _rows(B, "bottleneck")
    ground_q = norm_exponent(ground_q)
    if A.shape[0] != B.shape[0]:
        return float("inf")
    return bottleneck_from_costs(_pairwise(A, B, ground_q))


def lac(costs):
    """Linear Assignment Cost: (1/k) * minimal total assignment cost, solved
    on ``costs`` or its transpose, whichever has the lesser bytes, so that
    ``lac(C) == lac(C.T)`` exactly; the assigned costs are summed exactly
    (``math.fsum``)."""
    costs = _square_costs(costs)
    flipped = np.swapaxes(costs, -1, -2)  # a stack stays one, and raises below
    if flipped.tobytes() < costs.tobytes():
        costs = flipped
    rows, cols = linear_sum_assignment(costs)
    return math.fsum(costs[rows, cols].tolist()) / costs.shape[0]


def _check_weights(w, n=None):
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or n is not None and len(w) != n:
        raise ValueError(f"weights of shape {w.shape} do not match items")
    if not (w > 0).all():  # NaN is not positive either
        raise ValueError("weights must be positive")
    s = w.sum()
    if abs(s - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights sum to {s}, not 1 within {WEIGHT_TOL}")
    return w / s


def _swapped(wp, wq, costs):
    """Whether (wq, wp, costs.T) has a lesser key than (wp, wq, costs): the
    size of the first side, then the bytes of its weights, then those of the
    costs, which are copied only when sizes and weights tie."""
    if len(wp) != len(wq):
        return len(wq) < len(wp)
    p, q = wp.tobytes(), wq.tobytes()
    if p != q:
        return q < p
    return costs.T.tobytes() < costs.tobytes()


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

    Before the assignment or the LP runs, a certificate may settle the pair
    (m = n): every flow pays at least sum_i wp_i min_j costs_ij, as row i
    ships its weight wp_i at no less than its least cost.  If the row-argmin
    map σ is a permutation (see ``_argmin_map``), the flow wp_i on (i, σ(i))
    pays exactly that bound, so it is optimal wherever it is feasible:
    always with constant weights, where the value keeps the assignment's
    formula, and with other weights when wq[σ] == wp exactly, where it keeps
    the LP's.  This is the near-copy case, each row's nearest partner being
    its own copy.  The LP certificate runs after the budget check.

    Each pair is solved in one orientation (see ``_swapped``), so the value
    is symmetric and the flow transposes exactly when P and Q swap.
    """
    wp = _check_weights(P)
    wq = _check_weights(Q)
    costs = _rows(costs, "costs", len(wq))
    if len(costs) != len(wp):
        raise ValueError(f"cost matrix shape {costs.shape} != ({len(wp)}, {len(wq)})")
    if (costs < 0).any():
        raise ValueError("negative costs")
    m, n = costs.shape
    if swap := _swapped(wp, wq, costs):
        wp, wq, costs = wq, wp, costs.T
    if m == 1 or n == 1:
        flow = np.outer(wp, wq)
        return float((flow * costs).sum()), flow.T if swap else flow
    if m == n and (wp == wp[0]).all() and (wq == wq[0]).all():
        rows, cols = np.arange(m), _assignment(costs)
        flow = np.zeros((m, n))
        flow[rows, cols] = 1.0 / m
        return math.fsum(costs[rows, cols].tolist()) / m, flow.T if swap else flow

    cells = (m + n - 1) * m * n
    _within(cells, EMD_CELL_BUDGET, lambda: f"EMD of {m} x {n} weighted rows needs a "
            f"transportation LP of {cells:.3g} constraint cells")
    a, b = costs.shape  # (m, n) in the solved orientation
    sigma, certified = _argmin_map(costs)
    if certified and (wq[sigma] == wp).all():
        flow = np.zeros((a, b))
        flow[np.arange(a), sigma] = wp
        return float((flow * costs).sum()), flow.T if swap else flow
    # Balanced transportation LP: row sums = wp, column sums = wq (the
    # inequality form of the definition collapses to equalities because the
    # total flow 1 equals the sum of either marginal).  One constraint is
    # redundant; drop the last column constraint for a full-rank system.
    A_eq = np.vstack(
        [np.kron(np.eye(a), np.ones(b)), np.kron(np.ones(a), np.eye(b))[:-1]]
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
    flow = res.x.reshape(a, b)
    return float((flow * costs).sum()), flow.T if swap else flow


def _assignment(costs):
    """The columns σ of an optimal assignment of one square matrix, row i to
    column σ(i): the row-argmin map when it is a permutation (see
    ``_argmin_map``), else ``linear_sum_assignment``."""
    sigma, certified = _argmin_map(costs)
    return sigma if certified else linear_sum_assignment(costs)[1]


def emd_from_bounds(P, Q, costs):
    """``emd(P, Q, C)[0]`` of a cost matrix C known by bounds and on demand.

    ``costs`` has the ``shape`` (m, n) of C and five methods: ``lower()``,
    an (m, n) matrix of lower bounds on C; ``bounds(rows, cols)``, a lower
    and an upper bound on each entry C[rows, cols] of two index arrays,
    which is exact where they are equal; ``exact(rows, cols)``, those
    entries; ``full()``, C itself; and ``transposed()``, the same for C.T,
    whose ``lower()`` is ``lower().T``.  Unless P and Q are one vector of
    m = n > 1 equal weights (equal bytes), C goes to ``emd``.  Otherwise the
    optimal assignment is found with as few exact entries as the bounds
    allow (``_assigned_from_bounds``), on C or on C.T, the one whose lower
    bounds have the lesser bytes: swapping P and Q transposes C, so both
    argument orders run the same steps on the same matrix.  When the lower
    bounds equal their transpose, or leave more than half of C as
    candidates, C goes to ``emd``.

    Where several assignments are optimal, this may sum another one than
    ``emd`` picks; the two values agree within 1e-12 relative.
    """
    p, q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    m, n = costs.shape
    if m == n == len(p) > 1 and p.tobytes() == q.tobytes() and (p == p[0]).all():
        _check_weights(p)  # as emd checks both; Q has the same bytes
        low = costs.lower()
        lb, lt = low.tobytes(), low.T.tobytes()
        if lb != lt:
            value = _assigned_from_bounds(costs, low.T if lt < lb else low, lt < lb)
            if value is not None:
                return value
    return emd(P, Q, costs.full())[0]


def _assigned_from_bounds(costs, low, transpose):
    """``emd``'s value of the m x m matrix C of ``emd_from_bounds`` with
    constant weights, or None when the bounds prune too little.  C is the
    matrix of ``costs`` or, if ``transpose``, of ``costs.transposed()``,
    which is taken only once the bounds prune enough; ``low`` holds its
    lower bounds.

    1. σ is an optimal assignment of the lower bounds L.
    2. U = Σ_i hi(i, σ(i)) over upper bounds hi is at least the cost of an
       assignment, so no optimum costs more.  Every other row i' (column
       j') pays at least its least lower bound, so an assignment through
       (i, j) costs at least L_ij + Σ_{i' != i} rowmin_i' and
       L_ij + Σ_{j' != j} colmin_j'.  An entry for which either sum is over
       U (1 + PRUNE_SLACK) is in no optimum; σ and the others are the
       candidates.  If they are more than half of the m² entries, the
       bounds prune too little: None, at about no more cost than C itself,
       as no exact entry has been taken.  The entries whose sums are at most
       Σ_i L(i, σ(i)) <= U are candidates whatever U is, so when they alone
       are more than half, U is not taken.
    3. The candidates whose bounds differ are taken exactly in one
       ``exact`` call.  Then the assignment is solved on M, which is C where
       known and L elsewhere, again while it uses an entry not yet known
       (which is then taken); this guards step 2 against rounding.  M <= C
       entrywise, and the final σ costs the same under M and C, so no
       assignment beats it under C: σ is optimal.
    4. The value is Σ_i C(i, σ(i)) / m, summed exactly (``math.fsum``), as
       ``emd`` sums it, so it does not depend on the orientation.
    """
    m = len(low)
    at = np.arange(m)
    sigma = _assignment(low)
    row_least, col_least = low.min(axis=1), low.min(axis=0)
    # fl(low + t) grows with t, so this is the larger of the two sums
    need = low + np.maximum((row_least.sum() - row_least)[:, None], col_least.sum() - col_least)
    if 2 * np.count_nonzero(need <= low[at, sigma].sum()) > m * m:
        return None
    if transpose:
        costs = costs.transposed()
    lo, hi = costs.bounds(at, sigma)
    keep = need <= hi.sum() * (1.0 + PRUNE_SLACK)
    keep[at, sigma] = True
    if 2 * np.count_nonzero(keep) > m * m:
        return None
    est, known = low.copy(), np.zeros((m, m), dtype=bool)  # M and its known entries

    def take(rows, cols):
        est[rows, cols] = costs.exact(rows, cols)
        known[rows, cols] = True

    exact = lo == hi
    est[at[exact], sigma[exact]] = hi[exact]
    known[at[exact], sigma[exact]] = True
    keep &= ~known
    if keep.any():
        take(*np.nonzero(keep))
    while True:
        sigma = _assignment(est)
        missing = ~known[at, sigma]
        if not missing.any():
            break
        take(at[missing], sigma[missing])
    return math.fsum(est[at, sigma].tolist()) / m
