"""Convex solvers: dense exact QP, 1-D total-variation prox, method A's
L1 fit, IRLS.

All quadratic problems use the convention  minimize 0.5*x'Hx - f'x .
Every solver here is exact up to rounding on the sizes it is given:

  solve_qp           the Lawson-Hanson active set on H itself, free
                     variables always passive, from a given start,
                     certified by its KKT residual;
  solve_l1_trend_qp  the prox of a total-variation penalty on each segment
                     by Condat's direct algorithm, clipped at zero;
  solve_lp           method A's L1 fit on differences, min_{a >= 0}
                     sum |dp + dm a|, by a Barrodale-Roberts simplex over
                     the fit's vertices, certified by the duality gap of
                     its dual LP;
  irls_bisquare      majorize-minimize robust regression, one active set
                     on the J x J weighted Gram per step, started from
                     the previous step's coefficients.

solve_qp and irls_bisquare share one active set (_active_set), in
numpy: B's and C's Newton steps start it from their current
capacities and D's reweighting steps from the last coefficients, so
most solves need one or a few passive-set solves of at most 21 x 21.

Every solver is numpy only, so no command loads scipy.

A's dual LP  max dp'u  s.t. |u| <= 1, C'u >= 0  has no infeasible or
unbounded outcome: u = 0 satisfies every constraint and the box bounds
the objective.  The only failure left is solve_lp's pivot cap, which it
reports as converged=False.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

_LP_GAP_TOL = 1e-6     # relative duality-gap certificate of solve_lp
_LP_DUAL_TOL = 1e-11   # relative dual infeasibility solve_lp stops at
_LP_SHIFT = 1e-11      # relative shift of dp that breaks solve_lp's ties
_LP_PIVOTS_PER_COLUMN = 20  # cap of solve_lp's pivots, per column of dm
_BISQUARE_TUNING = 4.685  # residual scales; 95% efficient (Holland-Welsch)
_IRLS_TOL = 1e-8       # relative coefficient step that stops irls_bisquare
_IRLS_MAX_ITER = 50    # reweighting steps of irls_bisquare
_EPS = np.finfo(float).eps
_SOLVES_PER_VARIABLE = 3  # cap of _active_set, as scipy's nnls caps its own


@dataclass
class SolverReport:
    """Diagnostics attached to every solver answer; wall_time is the whole
    fit's seconds, written by ``methods.fit`` (0.0 on a solver alone)."""

    objective: float = np.nan
    iterations: int = 0
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    duality_gap: float = np.nan
    converged: bool = False
    wall_time: float = 0.0
    status: str = "unknown"
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "primal_residual": float(self.primal_residual),
            "dual_residual": float(self.dual_residual),
            "duality_gap": float(self.duality_gap),
            "converged": bool(self.converged),
            "wall_time_s": float(self.wall_time),
            "status": self.status,
        }
        out.update({k: v for k, v in self.notes.items()
                    if isinstance(v, (bool, int, float, str))})
        return out


@dataclass
class QuadraticProgram:
    """minimize 0.5*x'Hx - f'x  s.t.  x[nonneg] >= 0.

    H must be symmetric positive semidefinite.
    """

    h: object
    f: np.ndarray
    nonneg: np.ndarray = None  # boolean per variable; None = unconstrained

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        n = self.f.size
        if self.h.shape != (n, n):
            raise ValueError(f"H is {self.h.shape}, expected ({n},{n})")
        if self.nonneg is not None:
            self.nonneg = np.asarray(self.nonneg, dtype=bool)
            if self.nonneg.size != n:
                raise ValueError("nonneg length mismatch")


def _column_scales(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of every column; 1 for an all-zero column."""
    s = np.maximum(m.max(axis=0), -m.min(axis=0))  # no K x J copy of |m|
    s[s == 0] = 1.0
    return s


def solve_lp(dp: np.ndarray, dm: np.ndarray):
    """Method A's L1 fit  min_{a >= 0} sum_k |dp_k + (dm a)_k|; returns
    (a, SolverReport).

    A primal simplex over the fit's vertices, as Barrodale and Roberts
    (SIAM J. Numer. Anal. 10(5), 1973) solve L1 regression, here with
    a >= 0 and on C, the columns of dm scaled to at most 1.  A vertex is
    fixed by a basis of J tight constraints, each a zero residual (a row
    of C) or a zero capacity (a bound); the first is a = 0, all bounds.
    Every residual off the basis has a side, the sign it has or, at
    zero, the one it had last.  The basis gives the dual point u: the
    side off the basis, and on it the multipliers that make C'u zero at
    every capacity off its bound.  u is optimal when those lie in
    [-1, 1] and C'u >= 0 at the bounds, up to _LP_DUAL_TOL of the terms
    they sum.  Otherwise the entry with the steepest descent per unit
    step leaves, and the step goes to the minimum of the convex,
    piecewise-linear objective along its edge: past every residual whose
    crossing the descent still pays for (they change sides), to the one
    that stops it, or to the first capacity that reaches zero, which
    enters instead.  The pivots run on dp shifted by at most 1.5 *
    _LP_SHIFT of its largest entry, a fixed pattern that no two rows
    share, so ties (more zero residuals than J at a vertex) cannot make
    them cycle; the answer is the final basis's vertex for dp itself,
    whose u is the same.

    The report certifies a itself: objective is sum |dp + dm a|,
    duality_gap is that minus dp'u (never negative for a feasible u, by
    weak duality), primal_residual is u's worst violation of C'u >= 0
    (|u| <= 1 by construction), iterations counts pivots, and converged
    needs an optimal basis and a gap of at most
    _LP_GAP_TOL * (1 + objective).  After _LP_PIVOTS_PER_COLUMN * J
    pivots the status is "max_iter", and an edge with no minimum (only
    rounding makes one) ends as "numerical"; both return the last
    vertex with converged=False.
    """
    n, j = dm.shape
    scale = _column_scales(dm)
    size = np.abs(dm).sum(axis=0) / scale  # the terms C'u sums
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    cost = dp + _LP_SHIFT * (np.max(np.abs(dp), initial=0.0) or 1.0) * (
        0.5 + np.arange(n) * golden % 1.0)
    basis = -1 - np.arange(j)  # row k >= 0, or -1 - j for a's bound j
    on_basis = np.zeros(n, dtype=bool)
    side = np.where(cost < 0.0, -1.0, 1.0)
    status = "max_iter"
    for pivots in range(_LP_PIVOTS_PER_COLUMN * j + 1):
        rows = basis >= 0
        bounds = -1 - basis[~rows]
        tight = np.zeros((j, j))
        tight[rows] = dm[basis[rows]] / scale
        tight[~rows, bounds] = 1.0
        inv = np.linalg.inv(tight)  # column i: the edge that frees entry i
        x = inv[:, rows] @ -cost[basis[rows]]
        x[bounds] = 0.0
        u = np.where(on_basis, 0.0, side)
        grad = (u @ dm) / scale
        y = -(grad @ inv)  # u on the basis rows, -C'u at the bounds
        # the objective's slope along each edge, and the terms it sums
        rate = np.where(rows, 1.0 - np.abs(y), -y)
        terms = 1.0 + np.abs(y)
        terms[~rows] = 1.0 + size[bounds]
        if np.all(rate >= -_LP_DUAL_TOL * terms):
            status = "solved"
            break
        if pivots == _LP_PIVOTS_PER_COLUMN * j:
            break
        i = int(np.argmin(np.where(rate < -_LP_DUAL_TOL * terms, rate, 0.0)
                          / np.linalg.norm(inv, axis=0)))
        sigma = np.sign(y[i]) if rows[i] else 1.0
        d = sigma * inv[:, i]
        q = dm @ (d / scale)
        tiny = j * _EPS * np.abs(d).sum()
        ahead = np.flatnonzero(~on_basis & (side * q < -tiny))
        r = cost + dm @ (x / scale)
        t = np.maximum(-r[ahead] / q[ahead], 0.0)
        # the first crossing that the descent rate no longer pays for
        order = np.argsort(t)
        pos = int(np.searchsorted(np.cumsum(2.0 * np.abs(q[ahead])[order]),
                                  -float(grad @ d) - float(rows[i])))
        t_row = t[order[pos]] if pos < order.size else np.inf
        shrink = d < -tiny
        shrink[bounds] = False
        ratio = np.full(j, np.inf)
        ratio[shrink] = np.maximum(x[shrink], 0.0) / -d[shrink]
        t_bound = ratio.min()
        if t_row == t_bound == np.inf:
            status = "numerical"
            break
        if t_bound <= t_row:
            pos = min(pos, int(np.searchsorted(t[order], t_bound, "right")))
        side[ahead[order[:pos]]] *= -1.0
        if rows[i]:
            on_basis[basis[i]] = False
            side[basis[i]] = sigma
        if t_bound <= t_row:
            basis[i] = -1 - np.argmin(ratio)
        else:
            basis[i] = ahead[order[pos]]
            on_basis[basis[i]] = True
    # every exit leaves the loop before a pivot: rows, bounds, inv, u and y
    # are the final basis's
    x = inv[:, rows] @ -dp[basis[rows]]
    x[bounds] = 0.0
    a = np.clip(x, 0.0, None) / scale
    u[basis[rows]] = np.clip(y[rows], -1.0, 1.0)
    objective = float(np.sum(np.abs(dp + dm @ a)))
    report = SolverReport(
        objective=objective, iterations=pivots,
        primal_residual=max(float(np.max(-(u @ dm) / scale)), 0.0),
        dual_residual=0.0,  # a >= 0 by the clip
        duality_gap=objective - float(dp @ u), status=status,
        notes={"engine": "l1_simplex"})
    report.converged = status == "solved" and (
        abs(report.duality_gap) <= _LP_GAP_TOL * (1.0 + objective))
    if status != "solved":
        report.notes["no_convergence"] = True
    if not dp.any():
        report.notes["degenerate_cost"] = True
    return a, report


def _dense_symmetric(h) -> np.ndarray:
    """H as a dense float array; ValueError unless it is symmetric."""
    h = np.asarray(h.toarray() if hasattr(h, "toarray") else h, dtype=float)
    if np.max(np.abs(h - h.T)) > 1e-8 * (np.max(np.abs(h)) + 1.0):
        raise ValueError("H must be symmetric")
    return h


def psd_check_and_regularize(h, beta_reg: float):
    """Return (H + beta_reg*I, is_pd, min_eig) as dense values.

    is_pd reflects whether a Cholesky factorization of the regularized
    matrix certifies positive definiteness; min_eig is its exact smallest
    eigenvalue.  A sparse H is densified first.
    """
    h = _dense_symmetric(h)
    h_reg = h + beta_reg * np.eye(h.shape[0])
    min_eig = float(np.linalg.eigvalsh(h_reg)[0])
    try:
        np.linalg.cholesky(h_reg)
        is_pd = True
    except np.linalg.LinAlgError:
        is_pd = False
    return h_reg, is_pd, min_eig


def _passive_solve(gram: np.ndarray, f: np.ndarray, check: bool):
    """(gram^-1 f, False), or (the least-norm least-squares solution, True)
    when np.linalg.solve meets an exactly singular gram or, with check,
    when Cholesky rejects gram or leaves a pivot at most size*eps of its
    largest diagonal entry."""
    try:
        if check:
            low = np.linalg.cholesky(gram)
            if (low.diagonal().min() ** 2
                    <= f.size * _EPS * gram.diagonal().max()):
                raise np.linalg.LinAlgError
        return np.linalg.solve(gram, f), False
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, f, rcond=None)[0], True


def _active_set(gram: np.ndarray, f: np.ndarray, start: np.ndarray,
                free: np.ndarray):
    """argmin 0.5 x'(gram)x - f'x subject to x[~free] >= 0, from start.

    The Lawson-Hanson active set (Solving Least Squares Problems, 1974) in
    the cross-product form of Bro & De Jong (J. Chemometrics 11, 1997):
    each solve is on the passive block of the symmetric positive
    semidefinite J x J gram.  Free variables are always passive, and the
    passive set starts as start's support, so a start near the answer
    needs few solves.  An entering variable is ruled out until x moves
    when its solve is not positive, or when its Schur complement in a
    regular passive Gram, its negative gradient over its solve, is at
    most J*eps of its diagonal entry (Lawson and Hanson's guard against
    rounding).  So every other constrained passive variable is positive,
    a step ratio never divides by zero, and a blocked step sets its
    blocking variable to exactly 0 and drops every constrained variable
    it leaves at 0.  Only a passive set that is not known regular (the
    first, or one after an lstsq solve) is checked by Cholesky; removing
    variables keeps a regular Gram regular.  Stops when no constrained
    variable's negative gradient exceeds J*eps times the size of the
    terms it sums.  Returns (x, solves, status): status is "solved",
    "max_iter" after 3J solves (scipy's nnls cap), or "singular" when x
    rests on a passive Gram that _passive_solve had to solve by lstsq.
    """
    n = f.size
    x = np.where(free, start, np.maximum(start, 0.0))
    passive = free | (x > 0.0)
    bound = ~free
    size, f_size = np.abs(gram), np.abs(f)
    w = np.zeros(n)
    # lstsq: the last solve fell back to lstsq (True before the first, so
    # that Cholesky checks the start's support); singular: x's solve did
    entering, lstsq, singular = -1, True, False
    for solves in range(1, _SOLVES_PER_VARIABLE * n + 1):
        z, check, lstsq = np.zeros(n), lstsq or singular, False
        idx = passive.nonzero()[0]
        if idx.size:
            z[idx], lstsq = _passive_solve(gram[idx[:, None], idx], f[idx],
                                           check)
        if entering >= 0 and (z[entering] <= 0.0 or not singular and (
                lstsq or w[entering]
                <= z[entering] * n * _EPS * gram[entering, entering])):
            passive[entering] = False
            w[entering] = -np.inf
        else:
            blocking = passive & bound & (z <= 0.0)
            if blocking.any():
                ratio = x[blocking] / (x[blocking] - z[blocking])
                k = np.argmin(ratio)
                x += ratio[k] * (z - x)
                x[blocking.nonzero()[0][k]] = 0.0
                passive &= free | (x > 0.0)
                x[~passive] = 0.0
                entering = -1
                continue
            x, singular = z, lstsq
            w = f - gram @ x
            w[passive] = -np.inf
        entering = int(np.argmax(w))
        if w[entering] <= n * _EPS * np.max(size @ np.abs(x) + f_size):
            return x, solves, "singular" if singular else "solved"
        passive[entering] = True
    return x, _SOLVES_PER_VARIABLE * n, "max_iter"


def solve_qp(prog: QuadraticProgram, tol: float = 1e-6, start=None):
    """Solve min 0.5x'Hx - f'x subject to x[nonneg] >= 0; (x, SolverReport).

    Dense and exact: the Lawson-Hanson active set on H itself
    (_active_set), from start (zeros by default), so nonnegative, mixed
    and free problems take the same path.  converged needs the active set
    to stop before its cap (status "max_iter" otherwise) and the
    projected-gradient (KKT) residual, reported as dual_residual, to be
    at most tol * (1 + max(|Hx|, |f|)) (status "numerical" otherwise).
    An answer that rests on a singular passive Gram, as when free
    variables coincide and the minimizer is not unique, is lstsq's and
    says so in the note singular_passive_gram; the certificate judges it
    like any other.  The report also carries the bound violation, the
    complementarity gap x[nonneg]'(Hx - f)[nonneg] and the number of
    passive-set solves as iterations.
    Raises SolverError when H has an eigenvalue below
    -J*eps*max|eigenvalue|.
    """
    h = _dense_symmetric(prog.h)
    n = prog.f.size
    eig = np.linalg.eigvalsh(h)
    if eig[0] < -n * _EPS * np.max(np.abs(eig)):
        raise SolverError(
            f"quadratic cost not positive semidefinite (min eig {eig[0]:g})")
    free = (~prog.nonneg if prog.nonneg is not None
            else np.ones(n, dtype=bool))
    x, solves, status = _active_set(
        h, prog.f, np.zeros(n) if start is None else start, free)
    hx = h @ x
    grad = hx - prog.f
    proj = np.where(free, x - grad, np.clip(x - grad, 0.0, None))
    report = SolverReport(
        objective=float(0.5 * x @ hx - prog.f @ x), iterations=solves,
        primal_residual=float(np.max(-x[~free], initial=0.0)),
        dual_residual=float(np.max(np.abs(x - proj), initial=0.0)),
        duality_gap=float(x[~free] @ grad[~free]),
        status="max_iter" if status == "max_iter" else "numerical")
    if status == "singular":
        report.notes["singular_passive_gram"] = True
    if status != "max_iter" and report.dual_residual <= tol * (1.0 + max(
            np.max(np.abs(hx), initial=0.0),
            np.max(np.abs(prog.f), initial=0.0))):
        report.status, report.converged = "solved", True
    return x, report


def _tv_prox(y: list, lam: float) -> list:
    """argmin_x 0.5|x - y|^2 + lam * sum |x[i+1] - x[i]|, exactly.

    Condat's direct algorithm (IEEE Signal Process. Lett. 20(11), 2013):
    one forward sweep that keeps the admissible range [vmin, vmax] of the
    current segment's level and the running dual values umin/umax, and
    emits a segment as soon as a jump becomes necessary.  Plain Python
    floats, because the sweep is scalar and sequential.
    """
    n = len(y)
    x = [0.0] * n
    k = k0 = kplus = kminus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == n - 1:
            # right boundary: settle the open segment
            if umin < 0.0:
                x[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
                k0 = k = kminus = kminus + 1
                vmin = y[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                x[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
                k0 = k = kplus = kplus + 1
                vmax = y[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                x[k0:] = [vmin] * (n - k0)
                return x
        umin += y[k + 1] - vmin
        if umin < -lam:
            # negative jump after the last point where umin hit +lam
            x[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
            k0 = k = kplus = kminus = kminus + 1
            vmin = y[k]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            # positive jump after the last point where umax hit -lam
            x[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
            k0 = k = kplus = kminus = kplus + 1
            vmax = y[k]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


def solve_l1_trend_qp(y, lam: float, starts):
    """Solve min_{x >= 0} 0.5|x - y|^2 + lam * sum |x[i+1] - x[i]|, where
    no difference crosses a segment start.

    starts holds the first index of every segment, ascending from 0.  Each
    segment of two or more samples gets its exact total-variation prox by
    Condat's algorithm; a one-sample segment keeps its value.  Clipping the
    result at zero gives the prox of the penalty plus nonnegativity (Yu,
    NeurIPS 2013).  Returns (x, the total variation of x within
    segments); with lam = 0 x is y clipped at zero.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    x = np.array(y, dtype=float)
    ends = np.append(starts, x.size)[1:]
    for a, b in zip(starts, ends):
        if b - a > 1:
            x[a:b] = _tv_prox(x[a:b].tolist(), lam)
    x = np.clip(x, 0.0, None)
    return x, float(np.sum(np.abs(np.delete(np.diff(x), ends[:-1] - 1))))


def _bisquare_rho(r: np.ndarray, width: float) -> np.ndarray:
    """Integrated bisquare loss with cutoff width (_BISQUARE_TUNING scales)."""
    cap = width * width / 6.0
    inside = np.abs(r) <= width
    out = np.full(r.shape, cap)
    rr = (r[inside] / width) ** 2
    out[inside] = cap * (1.0 - (1.0 - rr) ** 3)
    return out


def _wls(x_mat: np.ndarray, y: np.ndarray, w: np.ndarray, inv: np.ndarray,
         start: np.ndarray):
    """argmin_{a >= 0} sum_k w_k (y_k - x_k (inv * a))^2 on the J x J Gram.

    inv scales the columns (irls_bisquare's scaling to at most 1) without
    a scaled copy of X.  With G = D(X*w)'XD and b = D(X*w)'y, D = diag(inv),
    the objective is a'Ga - 2a'b plus a constant, so the active set on
    (G, b) from start has the minimizers of nnls on the tall
    sqrt(w)-scaled rows at O(K J^2) BLAS work.  Returns (a, G, b); raises
    SolverError unless the active set ends "solved".
    """
    xw = x_mat * w[:, None]
    gram = (xw.T @ x_mat) * np.outer(inv, inv)
    b = (xw.T @ y) * inv
    sol, solves, status = _active_set(gram, b, start,
                                      np.zeros(b.size, dtype=bool))
    if status != "solved":
        raise SolverError(f"weighted NNLS ended {status} after {solves} "
                          f"solves")
    return sol, gram, b


def irls_bisquare(x_mat, y):
    """Robust regression with nonnegative coefficients and the redescending
    bisquare loss.

    The residual scale is the normalized median absolute deviation of the
    initial (unweighted) fit and is then held fixed, which makes the
    reweighting a true majorize-minimize scheme: the objective sum of
    losses is non-increasing at every iteration (asserted).  Hitting
    _IRLS_MAX_ITER flags no_convergence in the report and returns the last
    iterate; an all-zero weight vector, or a weighted NNLS that does not
    end "solved", raises SolverError.
    Every step is a weighted NNLS on the column-scaled J x J Gram (_wls),
    started from the previous step's coefficients.  An all-zero column
    keeps scale 1 and a zero Gram row and column, so its negative gradient
    is 0 and it never enters the passive set: its coefficient stays 0.
    The report certifies the last one: dual_residual is its projected-
    gradient (KKT) residual relative to the size of the terms the gradient
    sums, and duality_gap its complementarity a'(Ga - b), both in the
    scaled coordinates.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_mat.ndim != 2 or x_mat.shape[0] != y.size:
        raise ValueError("X must be K x J with K matching y")
    k_samp, n_col = x_mat.shape
    if k_samp < n_col:
        raise ValueError(f"need K >= J, got K={k_samp} J={n_col}")
    if not np.any(x_mat):
        raise ValueError("design matrix is identically zero")
    inv = 1.0 / _column_scales(x_mat)

    report = SolverReport(status="solved")
    alpha_s, gram, b = _wls(x_mat, y, np.ones(k_samp), inv, np.zeros(n_col))
    resid = y - x_mat @ (alpha_s * inv)
    med = np.median(resid)
    scale = np.median(np.abs(resid - med)) / 0.6745
    floor = 1e-12 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    history = []
    iterations = 1
    converged = True
    if scale > floor:
        width = _BISQUARE_TUNING * scale
        obj = float(np.sum(_bisquare_rho(resid, width)))
        history.append(obj)
        converged = False
        for iterations in range(2, _IRLS_MAX_ITER + 2):
            w = np.zeros(k_samp)
            inside = np.abs(resid) <= width
            w[inside] = (1.0 - (resid[inside] / width) ** 2) ** 2
            if not np.any(w > 0):
                raise SolverError(
                    "every sample weight is zero (scale too small "
                    "or data pathological)")
            alpha_new, gram, b = _wls(x_mat, y, w, inv, alpha_s)
            resid = y - x_mat @ (alpha_new * inv)
            obj_new = float(np.sum(_bisquare_rho(resid, width)))
            if obj_new > obj + 1e-9 * (1.0 + abs(obj)):
                raise AssertionError(
                    "IRLS objective increased (majorization violated)")
            history.append(obj_new)
            step = np.max(np.abs(alpha_new - alpha_s))
            alpha_s = alpha_new
            obj = obj_new
            if step <= _IRLS_TOL * (1.0 + np.max(np.abs(alpha_s))):
                converged = True
                break
        report.notes["scale"] = float(scale)
    else:
        history.append(0.0)
        report.notes["scale"] = 0.0

    alpha = alpha_s * inv
    report.iterations = iterations
    report.objective = history[-1]
    report.converged = converged
    grad = gram @ alpha_s - b
    report.primal_residual = 0.0
    report.dual_residual = float(
        np.max(np.abs(alpha_s - np.clip(alpha_s - grad, 0.0, None)))
        / (1.0 + np.max(np.abs(gram) @ np.abs(alpha_s) + np.abs(b))))
    report.duality_gap = float(alpha_s @ grad)
    if not converged:
        report.status = "max_iter"
        report.notes["no_convergence"] = True
    report.notes["objective_history"] = [float(v) for v in history]
    return alpha, report
