"""Convex solvers: dense exact QP, 1-D total-variation prox, method A's
L1 fit, IRLS.

All quadratic problems use the convention  minimize 0.5*x'Hx - f'x .
Every solver here is exact up to rounding on the sizes it is given:

  solve_qp           proximal-point iteration on the ridge: one Cholesky
                     factor, then one exact bounded least-squares solve per
                     step (nnls, BVLS or a triangular solve), stopped on the
                     KKT residual of the unridged problem;
  solve_l1_trend_qp  the prox of a total-variation penalty on each segment
                     by Condat's direct algorithm, clipped at zero;
  solve_lp           method A's L1 fit on differences, min_{a >= 0}
                     sum |dp + dm a|, through its dual LP in HiGHS
                     (scipy.optimize.linprog) without presolve, certified
                     by the duality gap of that one problem;
  irls_bisquare      majorize-minimize robust regression, one nnls on
                     the J x J weighted Gram per step.

scipy.optimize, scipy.linalg and scipy.sparse are imported inside the
functions that call them, so that importing the package (and every CLI
command but ``fit`` and ``sweep``) does not load them.  ``methods.fit``
loads scipy.optimize, which pulls in the other two, before it starts its
clock, so a fit's reported time stays the solve alone.

A's dual LP  max dp'u  s.t. |u| <= 1, C'u >= 0  has no infeasible or
unbounded outcome: u = 0 satisfies every constraint and the box bounds
the objective.  The only failure left is HiGHS stopping short (iteration
limit, numerical trouble), which solve_lp reports as converged=False.

HiGHS presolve is off in solve_lp.  A's dual LP has 21 rows over one
box-bounded column per difference pair, and on that shape presolve took
about as long as the simplex itself: the LP of a one-day fold at 30 s
took a median of 44 ms with presolve and 22 ms without, and the 14-day
LP at 10 s 2.2 s and 1.1 s (one process with one BLAS thread on a 2-core
x86 machine).  The duality-gap certificate checks every answer either
way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightsError, NotConvexError

_LP_GAP_TOL = 1e-6     # relative duality-gap certificate of solve_lp
_LP_FEAS_TOL = 1e-7    # HiGHS primal and dual feasibility tolerances
_LP_MAX_ITER = 50000   # HiGHS simplex iteration limit
_QP_MAX_ITER = 50000   # proximal steps of solve_qp


@dataclass
class SolverReport:
    """Diagnostics attached to every solver answer."""

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

    H must be symmetric positive semidefinite; beta_reg is the ridge of the
    positive-definiteness gate and the step weight of solve_qp's proximal
    iteration, which converges to the minimizer of the unridged problem.
    """

    h: object
    f: np.ndarray
    nonneg: np.ndarray = None  # boolean per variable; None = unconstrained
    beta_reg: float = 1e-4

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        n = self.f.size
        if self.h.shape != (n, n):
            raise ValueError(f"H is {self.h.shape}, expected ({n},{n})")
        if self.nonneg is not None:
            self.nonneg = np.asarray(self.nonneg, dtype=bool)
            if self.nonneg.size != n:
                raise ValueError("nonneg length mismatch")
        if self.beta_reg < 0:
            raise ValueError("beta_reg must be >= 0")


def _column_scales(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of every column; 1 for an all-zero column."""
    s = np.max(np.abs(m), axis=0)
    s[s == 0] = 1.0
    return s


def solve_lp(dp: np.ndarray, dm: np.ndarray):
    """Method A's L1 fit  min_{a >= 0} sum_k |dp_k + (dm a)_k|; returns
    (a, SolverReport).

    Solved through its dual  max dp'u  s.t. |u| <= 1, C'u >= 0, with C
    the columns of dm scaled to at most 1: one row per column of dm and
    one box-bounded variable per difference.  The rows' multipliers are
    the scaled capacities: linprog takes the rows as -C'u <= 0 under the
    minimized -dp'u and returns d objective / d rhs, so a is minus those
    multipliers over the column scales, clipped at zero.

    The report certifies a itself: objective is sum |dp + dm a|,
    duality_gap is that minus dp'u (never negative for a feasible u, by
    weak duality), primal_residual is u's worst violation of the box and
    of C'u >= 0, and converged needs a HiGHS optimum and a gap of at most
    _LP_GAP_TOL * (1 + objective).  Every other HiGHS status returns
    converged=False, with u = 0 and a = 0 when HiGHS has no point.
    """
    from scipy.optimize import linprog
    t0 = time.perf_counter()
    scale = _column_scales(dm)
    c_mat = dm / scale
    res = linprog(-dp, A_ub=-c_mat.T, b_ub=np.zeros(dm.shape[1]),
                  bounds=(-1.0, 1.0), method="highs",
                  options={"presolve": False, "maxiter": _LP_MAX_ITER,
                           "primal_feasibility_tolerance": _LP_FEAS_TOL,
                           "dual_feasibility_tolerance": _LP_FEAS_TOL})
    if res.x is None:
        u, a = np.zeros(dp.size), np.zeros(dm.shape[1])
    else:
        u = np.asarray(res.x, dtype=float)
        a = np.clip(-res.ineqlin.marginals / scale, 0.0, None)
    objective = float(np.sum(np.abs(dp + dm @ a)))
    report = SolverReport(
        objective=objective, iterations=int(res.nit),
        primal_residual=max(float(np.max(np.abs(u))) - 1.0,
                            float(np.max(-(u @ c_mat))), 0.0),
        dual_residual=0.0,  # a >= 0 by the clip
        duality_gap=objective - float(dp @ u),
        status={0: "solved", 1: "max_iter"}.get(res.status, "numerical"),
        notes={"engine": "highs"})
    report.converged = bool(res.status == 0) and (
        abs(report.duality_gap) <= _LP_GAP_TOL * (1.0 + objective))
    if res.status != 0:
        report.notes["no_convergence"] = True
    if not dp.any():
        report.notes["degenerate_cost"] = True
    report.wall_time = time.perf_counter() - t0
    return a, report


def _dense_symmetric(h) -> np.ndarray:
    """H as a dense float array; ValueError unless it is symmetric."""
    from scipy.sparse import issparse
    h = np.asarray(h.toarray() if issparse(h) else h, dtype=float)
    if np.max(np.abs(h - h.T)) > 1e-8 * (np.max(np.abs(h)) + 1.0):
        raise ValueError("H must be symmetric")
    return h


def psd_check_and_regularize(h, beta_reg: float):
    """Return (H + beta_reg*I, is_pd, min_eig) as dense values.

    is_pd reflects whether a Cholesky factorization of the regularized
    matrix certifies positive definiteness; min_eig is its exact smallest
    eigenvalue.  A sparse H is densified first.
    """
    from scipy.linalg import eigh
    h = _dense_symmetric(h)
    h_reg = h + beta_reg * np.eye(h.shape[0])
    min_eig = float(eigh(h_reg, eigvals_only=True,
                         subset_by_index=[0, 0])[0])
    try:
        np.linalg.cholesky(h_reg)
        is_pd = True
    except np.linalg.LinAlgError:
        is_pd = False
    return h_reg, is_pd, min_eig


def solve_qp(prog: QuadraticProgram, tol: float = 1e-6):
    """Solve min 0.5x'Hx - f'x subject to x[nonneg] >= 0; (x, SolverReport).

    Dense and exact: with R'R = H + beta_reg*I factored once, each step
    x_{k+1} = argmin 0.5x'Hx - f'x + beta_reg/2 |x - x_k|^2 is the bounded
    least-squares problem min |R x - R^-T (f + beta_reg x_k)|, solved by
    nnls when every variable is nonnegative, by BVLS when only some are,
    and by a triangular solve when none is.  The iteration stops when the
    projected-gradient (KKT) residual of the unridged H is at most
    tol * (1 + max(|Hx|, |f|)), or unconverged after _QP_MAX_ITER steps;
    the report carries that residual, the bound violation and the
    complementarity gap x[nonneg]'(Hx - f)[nonneg].
    Raises NotConvexError when the ridged matrix has no Cholesky factor.
    """
    from scipy.linalg import cholesky, solve_triangular
    from scipy.optimize import lsq_linear, nnls
    t0 = time.perf_counter()
    h = _dense_symmetric(prog.h)
    n = prog.f.size
    h_reg = h + prog.beta_reg * np.eye(n)
    try:
        r = cholesky(h_reg)
    except np.linalg.LinAlgError:
        min_eig = psd_check_and_regularize(h, prog.beta_reg)[2]
        raise NotConvexError(
            f"quadratic cost not positive definite (min eig ~ {min_eig:g}) "
            f"even with beta_reg={prog.beta_reg:g}") from None
    nonneg = (prog.nonneg if prog.nonneg is not None
              else np.zeros(n, dtype=bool))
    if nonneg.all():
        def step(b):
            return nnls(r, b)[0]
    elif nonneg.any():
        bounds = (np.where(nonneg, 0.0, -np.inf), np.inf)

        def step(b):
            return lsq_linear(r, b, bounds=bounds, method="bvls").x
    else:
        def step(b):
            return solve_triangular(r, b)

    x = np.zeros(n)
    report = SolverReport(status="max_iter")
    for report.iterations in range(1, _QP_MAX_ITER + 1):
        x = step(solve_triangular(r, prog.f + prog.beta_reg * x,
                                  trans="T"))
        hx = h @ x
        grad = hx - prog.f
        proj = np.where(nonneg, np.clip(x - grad, 0.0, None), x - grad)
        report.dual_residual = float(np.max(np.abs(x - proj), initial=0.0))
        if report.dual_residual <= tol * (1.0 + max(
                np.max(np.abs(hx), initial=0.0),
                np.max(np.abs(prog.f), initial=0.0))):
            report.status, report.converged = "solved", True
            break
    report.objective = float(0.5 * x @ hx - prog.f @ x)
    report.primal_residual = float(np.max(-x[nonneg], initial=0.0))
    report.duality_gap = float(x[nonneg] @ grad[nonneg])
    report.wall_time = time.perf_counter() - t0
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
                for i in range(k0, kminus + 1):
                    x[i] = vmin
                k0 = k = kminus = kminus + 1
                vmin = y[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                for i in range(k0, kplus + 1):
                    x[i] = vmax
                k0 = k = kplus = kplus + 1
                vmax = y[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                for i in range(k0, n):
                    x[i] = vmin
                return x
        umin += y[k + 1] - vmin
        if umin < -lam:
            # negative jump after the last point where umin hit +lam
            for i in range(k0, kminus + 1):
                x[i] = vmin
            k0 = k = kplus = kminus = kminus + 1
            vmin = y[k]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            # positive jump after the last point where umax hit -lam
            for i in range(k0, kplus + 1):
                x[i] = vmax
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
    NeurIPS 2013).  The report's notes carry the total variation within
    segments; with lam = 0 the answer is y clipped at zero.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    t0 = time.perf_counter()
    x = np.array(y, dtype=float)
    ends = np.append(starts[1:], x.size)
    for a, b in zip(starts, ends):
        if b - a > 1:
            x[a:b] = _tv_prox(x[a:b].tolist(), lam)
    x = np.clip(x, 0.0, None)
    tv = float(np.sum(np.abs(np.delete(np.diff(x), ends[:-1] - 1))))
    report = SolverReport(
        objective=float(0.5 * np.sum((x - y) ** 2) + lam * tv),
        iterations=1, primal_residual=0.0, dual_residual=0.0,
        duality_gap=0.0, converged=True, status="solved",
        wall_time=time.perf_counter() - t0,
        notes={"total_variation": tv})
    return x, report


def _bisquare_rho(r: np.ndarray, width: float) -> np.ndarray:
    """Integrated bisquare loss with cutoff width (= tuning * scale)."""
    cap = width * width / 6.0
    inside = np.abs(r) <= width
    out = np.full(r.shape, cap)
    rr = (r[inside] / width) ** 2
    out[inside] = cap * (1.0 - (1.0 - rr) ** 3)
    return out


def _wls(x_mat: np.ndarray, y: np.ndarray, w: np.ndarray, inv: np.ndarray):
    """argmin_{a >= 0} sum_k w_k (y_k - x_k (inv * a))^2 on the J x J Gram.

    inv scales the columns (irls_bisquare's scaling to at most 1) without
    a scaled copy of X.  With G = D(X*w)'XD and b = D(X*w)'y, D = diag(inv),
    the objective is a'Ga - 2a'b plus a constant, so nnls(R, z) with
    R'R = G and R'z = b has the minimizers of nnls on the tall
    sqrt(w)-scaled rows (the cross-product form of Bro & De Jong,
    J. Chemometrics 11, 1997) at O(K J^2) BLAS work.  R comes from an
    eigendecomposition, not a Cholesky factor, because G is singular
    whenever columns coincide on the positive-weight rows; the eigenvalues
    at most J*eps*max(eigenvalue) become zero rows of R.  Returns
    (a, G, b).
    """
    from scipy.optimize import nnls
    xw = x_mat * w[:, None]
    gram = (xw.T @ x_mat) * np.outer(inv, inv)
    b = (xw.T @ y) * inv
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam.size * np.finfo(float).eps * max(lam[-1], 0.0)
    root = np.sqrt(np.where(keep, lam, 0.0))
    z = np.divide(vec.T @ b, root, out=np.zeros_like(root), where=keep)
    sol, _ = nnls(root[:, None] * vec.T, z)
    return sol, gram, b


def irls_bisquare(x_mat, y, tuning: float = 4.685, tol: float = 1e-8,
                  max_iter: int = 50):
    """Robust regression with nonnegative coefficients and the redescending
    bisquare loss.

    The residual scale is the normalized median absolute deviation of the
    initial (unweighted) fit and is then held fixed, which makes the
    reweighting a true majorize-minimize scheme: the objective sum of
    losses is non-increasing at every iteration (asserted).  Hitting
    max_iter flags no_convergence in the report and returns the last
    iterate; an all-zero weight vector raises DegenerateWeightsError.
    Every step is a weighted NNLS on the column-scaled J x J Gram (_wls).
    The report certifies the last one: dual_residual is its projected-
    gradient (KKT) residual relative to the size of the terms the gradient
    sums, and duality_gap its complementarity a'(Ga - b), both in the
    scaled coordinates.
    """
    t0 = time.perf_counter()
    x_mat = np.asarray(x_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_mat.ndim != 2 or x_mat.shape[0] != y.size:
        raise ValueError("X must be K x J with K matching y")
    k_samp, n_col = x_mat.shape
    if k_samp < n_col:
        raise ValueError(f"need K >= J, got K={k_samp} J={n_col}")
    col_scale = np.maximum(x_mat.max(axis=0), -x_mat.min(axis=0))
    if np.all(col_scale == 0):
        raise ValueError("design matrix is identically zero")
    keep = col_scale > 0
    if not keep.all():
        x_mat = x_mat[:, keep]  # zero columns get zero coefficients
    inv = 1.0 / col_scale[keep]

    report = SolverReport(status="solved")
    alpha_s, gram, b = _wls(x_mat, y, np.ones(k_samp), inv)
    resid = y - x_mat @ (alpha_s * inv)
    med = np.median(resid)
    scale = np.median(np.abs(resid - med)) / 0.6745
    floor = 1e-12 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    history = []
    iterations = 1
    converged = True
    if scale > floor:
        width = tuning * scale
        obj = float(np.sum(_bisquare_rho(resid, width)))
        history.append(obj)
        converged = False
        for iterations in range(2, max_iter + 2):
            w = np.zeros(k_samp)
            inside = np.abs(resid) <= width
            w[inside] = (1.0 - (resid[inside] / width) ** 2) ** 2
            if not np.any(w > 0):
                raise DegenerateWeightsError(
                    "every sample weight is zero (scale too small "
                    "or data pathological)")
            alpha_new, gram, b = _wls(x_mat, y, w, inv)
            resid = y - x_mat @ (alpha_new * inv)
            obj_new = float(np.sum(_bisquare_rho(resid, width)))
            if obj_new > obj + 1e-9 * (1.0 + abs(obj)):
                raise AssertionError(
                    "IRLS objective increased (majorization violated)")
            history.append(obj_new)
            step = np.max(np.abs(alpha_new - alpha_s))
            alpha_s = alpha_new
            obj = obj_new
            if step <= tol * (1.0 + np.max(np.abs(alpha_s))):
                converged = True
                break
        report.notes["scale"] = float(scale)
    else:
        history.append(0.0)
        report.notes["scale"] = 0.0

    alpha = np.zeros(n_col)
    alpha[keep] = alpha_s * inv
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
    if np.any(~keep):
        report.notes["dropped_zero_columns"] = int(np.sum(~keep))
    report.notes["objective_history"] = [float(v) for v in history]
    report.wall_time = time.perf_counter() - t0
    return alpha, report
