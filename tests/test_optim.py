import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear, nnls

from pvdisagg import optim
from pvdisagg.errors import SolverError
from pvdisagg.optim import (QuadraticProgram, _wls, irls_bisquare,
                            psd_check_and_regularize, solve_l1_trend_qp,
                            solve_lp, solve_qp)

from conftest import l1_oracle


# --- method A's L1 fit (solve_lp) ------------------------------------------

def test_lp_l1_fit_ignores_gross_outlier():
    """L1 regression of y = 2u with one wild point stays on slope 2.

    Oracle: scan a dense slope grid and check nothing beats the LP's
    objective; the known best slope on the clean geometry is 2.
    """
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 2.0, 40)
    y = 2.0 * u
    y[7] = 50.0  # gross corruption
    a, rep = solve_lp(-y, u[:, None])  # min sum |s*u - y| over s >= 0
    slope = a[0]
    assert abs(slope - 2.0) < 1e-6
    assert rep.converged and rep.status == "solved"

    def l1_cost(s):
        return float(np.sum(np.abs(s * u - y)))
    grid = np.linspace(0.0, 5.0, 2001)
    assert l1_cost(slope) <= min(l1_cost(s) for s in grid) + 1e-9
    assert rep.objective == pytest.approx(l1_cost(slope), abs=1e-12)


def test_lp_zero_cost_flagged():
    dm = np.random.default_rng(3).normal(size=(30, 4))
    a, rep = solve_lp(np.zeros(30), dm)
    assert rep.notes.get("degenerate_cost") is True
    assert rep.converged
    assert np.all(a >= 0.0)
    assert rep.objective <= 1e-12


def test_lp_duality_gap_certificate():
    """Random fits, every odd one with an all-zero column: the report's
    own gap certificate holds and the objective is the optimum of the
    primal epigraph LP."""
    rng = np.random.default_rng(2)
    for trial in range(10):
        r, j = 60, 5
        dm = rng.normal(size=(r, j)) * rng.uniform(0.01, 100.0, j)
        if trial % 2:
            dm[:, trial % j] = 0.0
        dp = -dm @ rng.uniform(0.0, 2.0, j) + rng.laplace(0.0, 0.5, r)
        a, rep = solve_lp(dp, dm)
        assert rep.converged
        assert np.all(a >= 0.0)
        assert rep.primal_residual <= 1e-9
        assert abs(rep.duality_gap) <= 1e-6 * (1.0 + rep.objective)
        assert rep.objective == float(np.sum(np.abs(dp + dm @ a)))
        best = l1_oracle(dp, dm)
        assert abs(rep.objective - best) <= 1e-9 * (1.0 + best)


def test_lp_iteration_cap_flags_instead_of_raising(monkeypatch):
    """A fit that takes more than one pivot per column, capped at one: the
    last vertex comes back, nonnegative and worse than the optimum, as
    status max_iter with converged=False."""
    rng = np.random.default_rng(0)
    dm = rng.normal(size=(40, 3))
    dp = -dm @ np.array([1.0, 2.0, 3.0]) + rng.laplace(0.0, 0.5, 40)
    _, full = solve_lp(dp, dm)
    assert full.converged and full.iterations > 3
    monkeypatch.setattr(optim, "_LP_PIVOTS_PER_COLUMN", 1)
    a, rep = solve_lp(dp, dm)
    assert not rep.converged
    assert rep.status == "max_iter" and rep.iterations == 3
    assert rep.notes.get("no_convergence") is True
    assert np.all(np.isfinite(a)) and np.all(a >= 0.0)
    assert rep.objective > full.objective


def _l1_instance(seed, j, extra, case):
    """(dp, dm) of a random L1 fit with J + extra rows.  "ties" draws small
    integers around an exact fit, so vertices carry more zero residuals
    than J; "duplicate" copies column 0 into the last column;
    "zero-column" zeroes one column; "zero-dp" sets dp to 0."""
    rng = np.random.default_rng(seed)
    k = j + extra
    if case == "ties":
        dm = rng.integers(-2, 3, size=(k, j)).astype(float)
        dp = (-dm @ rng.integers(0, 3, size=j)
              + rng.integers(-2, 3, size=k) * (rng.random(k) < 0.3))
    else:
        dm = rng.normal(size=(k, j)) * rng.uniform(0.01, 100.0, j)
        dp = -dm @ rng.uniform(0.0, 2.0, j) + rng.laplace(0.0, 0.5, k)
    if case == "duplicate":
        dm[:, -1] = dm[:, 0]
    elif case == "zero-column":
        dm[:, rng.integers(j)] = 0.0
    elif case == "zero-dp":
        dp[:] = 0.0
    return dp, dm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 21),
       extra=st.one_of(st.integers(1, 3), st.integers(4, 80)),
       case=st.sampled_from(["plain", "ties", "duplicate", "zero-column",
                             "zero-dp"]))
def test_lp_matches_highs(seed, j, extra, case):
    """solve_lp reaches the optimum that HiGHS finds for the primal
    epigraph LP to 1e-9 of its size, on generic fits, ties, duplicate and
    all-zero columns, an all-zero dp and K just above J, and its own
    certificate holds: a feasible u within _LP_GAP_TOL of the objective."""
    dp, dm = _l1_instance(seed, j, extra, case)
    a, rep = solve_lp(dp, dm)
    assert rep.converged and rep.status == "solved"
    assert np.all(a >= 0.0)
    assert rep.objective == float(np.sum(np.abs(dp + dm @ a)))
    assert rep.primal_residual <= 1e-9
    assert abs(rep.duality_gap) <= optim._LP_GAP_TOL * (1.0 + rep.objective)
    best = l1_oracle(dp, dm)
    assert abs(rep.objective - best) <= 1e-9 * (1.0 + best)


# --- quadratic programs ----------------------------------------------------

def _qp_1d(center):
    # (x - center)^2 = 0.5*(2)x^2 - (2 center)x + const
    return QuadraticProgram(h=sp.eye(1) * 2.0,
                            f=np.array([2.0 * center]),
                            nonneg=np.array([True]))


def test_qp_interior_solution():
    x, rep = solve_qp(_qp_1d(3.0))
    assert abs(x[0] - 3.0) <= 1e-6
    assert rep.converged


def test_qp_active_bound_solution():
    x, rep = solve_qp(_qp_1d(-3.0))
    assert abs(x[0]) <= 1e-8
    assert rep.converged


def test_qp_solution_beats_random_feasible_perturbations():
    rng = np.random.default_rng(4)
    n = 8
    root = rng.normal(size=(n, n))
    h = root @ root.T + n * np.eye(n)
    f = rng.normal(size=n)
    prog = QuadraticProgram(h=sp.csc_matrix(h), f=f,
                            nonneg=np.ones(n, dtype=bool))
    x, rep = solve_qp(prog)

    def obj(v):
        return 0.5 * v @ (h @ v) - f @ v

    for _ in range(100):
        v = np.clip(x + rng.normal(scale=0.1, size=n), 0.0, None)
        assert obj(x) <= obj(v) + 1e-9


def test_qp_rejects_indefinite_cost():
    h = np.diag([1.0, -1.0])
    prog = QuadraticProgram(h=sp.csc_matrix(h), f=np.zeros(2),
                            nonneg=np.array([True, True]))
    with pytest.raises(SolverError,
                       match=r"not positive semidefinite \(min eig -1\)"):
        solve_qp(prog)


def test_qp_rejects_a_slightly_indefinite_cost():
    """An eigenvalue of -1e-6 is far beyond rounding; no ridge hides it."""
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    h = q @ np.diag([-1e-6, 1.0, 2.0]) @ q.T
    prog = QuadraticProgram(h=0.5 * (h + h.T), f=np.ones(3),
                            nonneg=np.ones(3, dtype=bool))
    with pytest.raises(SolverError, match="min eig -1e-06"):
        solve_qp(prog)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20),
       case=st.sampled_from(["nonneg", "mixed", "free", "coincident"]))
def test_qp_matches_the_bvls_oracle(seed, n, case):
    """solve_qp against BVLS on a root A of H with A'A = H and A'b = f:
    the Cholesky factor of a positive definite H, or, for an H made
    singular by coincident columns, the tall matrix it is the Gram of.
    The answer is certified to rounding level and is no worse than the
    oracle's."""
    rng = np.random.default_rng(seed)
    tall = rng.normal(size=(n + 3, n))
    nonneg = {"nonneg": np.ones(n, dtype=bool),
              "free": np.zeros(n, dtype=bool)}.get(case, rng.random(n) < 0.5)
    if case == "coincident":
        tall[:, -1] = tall[:, 0]
        tall[:, -2] = 2.0 * tall[:, 0]
        h, b = tall.T @ tall, rng.normal(size=n + 3)
        a, f = tall, tall.T @ b
    else:
        h, f = tall.T @ tall + 0.1 * np.eye(n), rng.normal(size=n)
        low = np.linalg.cholesky(h)
        a, b = low.T, np.linalg.solve(low, f)
    if case in ("mixed", "coincident"):
        nonneg[[0, -1]] = True, False
    oracle = lsq_linear(a, b, bounds=(np.where(nonneg, 0.0, -np.inf),
                                      np.inf), method="bvls", tol=1e-14).x
    x, rep = solve_qp(QuadraticProgram(h=h, f=f, nonneg=nonneg))

    def obj(v):
        return 0.5 * v @ (h @ v) - f @ v

    grad = h @ x - f
    proj = np.where(nonneg, np.clip(x - grad, 0.0, None), x - grad)
    scale = 1.0 + max(np.max(np.abs(h @ x)), np.max(np.abs(f)))
    assert rep.converged
    assert np.max(np.abs(x - proj)) <= 1e-12 * scale
    assert rep.dual_residual == np.max(np.abs(x - proj))
    assert rep.primal_residual == 0.0
    assert obj(x) <= obj(oracle) + 1e-12 * (1.0 + abs(obj(oracle)))


def test_qp_duality_gap_small_on_convergence():
    rng = np.random.default_rng(5)
    n = 12
    root = rng.normal(size=(n, n))
    h = root @ root.T + np.eye(n)
    f = rng.normal(size=n)
    prog = QuadraticProgram(h=sp.csc_matrix(h), f=f,
                            nonneg=np.ones(n, dtype=bool))
    x, rep = solve_qp(prog, tol=1e-8)
    assert rep.converged
    assert abs(rep.duality_gap) <= 1e-6 * (1.0 + abs(rep.objective))


def test_qp_polish_respects_multiplier_signs():
    """Batch check of the projected-gradient fixed point on nonneg QPs.

    The polish step solves a reduced KKT system on a guessed active set; a
    mispinned row used to yield a stationary-but-suboptimal point whose
    primal/dual residuals still read zero.  Guard against that with an
    estimate the solver never sees: at the optimum of min 0.5 x'Hx - f'x
    s.t. x >= 0 (on the flagged coordinates), x must equal the projection
    of x - (Hx - f) onto the feasible set.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 16))
        root = rng.normal(size=(n + 3, n))
        h = root.T @ root + 0.1 * np.eye(n)
        f = rng.normal(scale=2.0, size=n)
        nonneg = rng.random(n) < 0.7
        prog = QuadraticProgram(h=sp.csc_matrix(h), f=f, nonneg=nonneg)
        x, rep = solve_qp(prog, tol=1e-8)
        assert rep.converged
        grad = h @ x - f
        step = x - grad
        proj = np.where(nonneg, np.clip(step, 0.0, None), step)
        gap = np.max(np.abs(x - proj)) / (1.0 + np.max(np.abs(grad)))
        worst = max(worst, gap)
    assert worst <= 1e-6


# --- the active set against scipy's nnls -----------------------------------

def _nnls_instance(seed, n, case):
    """(tall A, b, free) of a random least-squares problem.  "coincident"
    makes the last column a copy of column 0 and the one before twice it,
    so A'A is singular; "mixed" frees about 40% of the variables."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + 4, n))
    if case == "coincident":
        a[:, -1] = a[:, 0]
        a[:, -2] = 2.0 * a[:, 0]
    free = (rng.random(n) < 0.4 if case == "mixed"
            else np.zeros(n, dtype=bool))
    return a, rng.normal(size=n + 4), free


def _kkt(gram, f, x, free):
    """Projected-gradient residual of x, relative to the size of the terms
    the gradient sums."""
    grad = gram @ x - f
    proj = np.where(free, x - grad, np.clip(x - grad, 0.0, None))
    size = np.abs(gram) @ np.abs(x) + np.abs(f)
    return np.max(np.abs(x - proj)) / (1.0 + np.max(size))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 21),
       case=st.sampled_from(["plain", "coincident", "mixed"]))
def test_active_set_matches_scipy_nnls(seed, n, case):
    """From a zero start the active set on (A'A, A'b) returns scipy's nnls
    answer on (A, b) to 1e-10 of its size, with a KKT residual of at most
    1e-12.  nnls takes a free variable as the difference of two
    nonnegative columns, a and -a."""
    a, b, free = _nnls_instance(seed, n, case)
    parts, _ = nnls(np.hstack([a, -a[:, free]]), b)
    ref = parts[:n]
    ref[free] -= parts[n:]
    gram, f = a.T @ a, a.T @ b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, solves, status = optim._active_set(gram, f, np.zeros(n), free)
    assert status == "solved" and solves < 3 * n
    assert np.max(np.abs(x - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))
    assert _kkt(gram, f, x, free) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 21),
       case=st.sampled_from(["plain", "coincident", "mixed"]))
def test_active_set_warm_start_ends_where_a_cold_one_does(seed, n, case):
    """A start with a random support, random positive values on it and
    random free values ends at the cold start's x; with coincident
    columns the minimizer is not unique, and both end at the same fit Ax.
    Either way the KKT residual is at most 1e-12."""
    a, b, free = _nnls_instance(seed, n, case)
    rng = np.random.default_rng(seed + 1)
    start = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 3.0, n), 0.0)
    start[free] = rng.normal(size=int(free.sum()))
    gram, f = a.T @ a, a.T @ b
    cold, _, _ = optim._active_set(gram, f, np.zeros(n), free)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm, solves, status = optim._active_set(gram, f, start, free)
    assert status in ("solved", "singular") and solves < 3 * n
    assert _kkt(gram, f, warm, free) <= 1e-12
    got, want = (warm, cold) if case != "coincident" else (a @ warm, a @ cold)
    assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


def test_active_set_steps_to_zero_on_a_zero_gram():
    """B's model Hessian at C's start with lam = 1e-6 is zero: from a
    positive start Cholesky rejects the passive Gram, lstsq gives z = 0,
    and one blocked step lands every variable exactly on 0, where a
    nonpositive f certifies it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, solves, status = optim._active_set(
            np.zeros((3, 3)), np.array([-1.0, 0.0, -2.0]),
            np.array([1.0, 2.0, 0.5]), np.zeros(3, dtype=bool))
    assert np.array_equal(x, np.zeros(3))
    assert (solves, status) == (2, "solved")


def test_active_set_cap_is_a_reported_status(monkeypatch):
    """A run that needs more solves than its cap stops there: solve_qp
    reports max_iter and not converged, and irls_bisquare raises
    SolverError.  Six variables all positive at the optimum need seven
    solves from a zero start; a cap of one solve per variable allows
    six."""
    rng = np.random.default_rng(20)
    a = rng.uniform(0.0, 1.0, size=(30, 6))
    b = a @ rng.uniform(0.5, 1.0, 6)
    prog = QuadraticProgram(a.T @ a, a.T @ b, nonneg=np.ones(6, dtype=bool))
    x, rep = solve_qp(prog)
    assert rep.converged and rep.iterations == 7 and np.all(x > 0.0)
    monkeypatch.setattr(optim, "_SOLVES_PER_VARIABLE", 1)
    x, rep = solve_qp(prog)
    assert (rep.status, rep.converged, rep.iterations) == ("max_iter",
                                                           False, 6)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    with pytest.raises(SolverError, match="weighted NNLS ended max_iter"):
        irls_bisquare(a, b)


# --- segment-wise total-variation prox -------------------------------------

ONE = np.zeros(1, dtype=int)  # a single segment


def _random_starts(rng, n):
    """Ascending segment starts from 0; adjacent cuts make one-sample
    segments common."""
    cuts = np.flatnonzero(rng.random(n - 1) < 0.25) + 1
    return np.concatenate([[0], cuts])


def test_trend_lambda_zero_is_plain_qp():
    """Without the penalty the answer is the nonnegative QP's minimizer,
    y clipped at zero, exactly; solve_qp reaches it to its KKT tolerance."""
    rng = np.random.default_rng(6)
    n = 15
    y = rng.normal(size=n)
    x0, _ = solve_qp(QuadraticProgram(h=sp.eye(n), f=y,
                                      nonneg=np.ones(n, dtype=bool)),
                     tol=1e-9)
    x1, _ = solve_l1_trend_qp(y, 0.0, ONE)
    assert np.array_equal(x1, np.clip(y, 0.0, None))
    assert np.max(np.abs(x0 - x1)) <= 1e-9 * (1.0 + np.max(np.abs(y)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       h=st.sampled_from([0.5, 1.0, 3.0]))
def test_trend_lambda_zero_returns_f_over_h(seed, n, h):
    """min 0.5h|x|^2 - f'x over x >= 0 is the prox of f/h; lam = 0 leaves
    that input untouched bit for bit on every segment, including runs of
    tied values, and clipping is the only change."""
    rng = np.random.default_rng(seed)
    f = np.round(rng.normal(0.0, 3.0, n), 1)
    x, _ = solve_l1_trend_qp(f / h, 0.0, _random_starts(rng, n))
    assert np.array_equal(x, np.clip(f / h, 0.0, None))


def test_trend_large_lambda_flattens():
    """Huge roughness price turns a noisy constant into an exact constant."""
    rng = np.random.default_rng(7)
    n = 40
    y = 5.0 + 0.1 * rng.normal(size=n)
    x, _ = solve_l1_trend_qp(y, 100.0, ONE)
    assert np.max(np.abs(np.diff(x))) <= 1e-8
    assert abs(x.mean() - y.mean()) <= 1e-6


def test_trend_recovers_two_breakpoints():
    n = 50
    y = np.concatenate([np.zeros(17), 4.0 * np.ones(18), 1.0 * np.ones(15)])
    lam = 0.2
    x, tv = solve_l1_trend_qp(y, lam, ONE)
    jumps = np.flatnonzero(np.abs(np.diff(x)) > 1e-4)
    assert list(jumps) == [16, 34]

    # oracle: no piecewise-constant candidate with any 2 breakpoints and
    # segment-mean levels does better on the same objective
    def objective(v):
        return float(0.5 * v @ v - y @ v
                     + lam * np.sum(np.abs(np.diff(v))))

    best = np.inf
    for b1 in range(1, n - 1):
        for b2 in range(b1 + 1, n):
            v = np.empty(n)
            v[:b1] = y[:b1].mean()
            v[b1:b2] = y[b1:b2].mean()
            v[b2:] = y[b2:].mean()
            best = min(best, objective(v))
    assert objective(x) <= best + 1e-6
    assert abs(tv - np.sum(np.abs(np.diff(x)))) <= 1e-12


def test_trend_tv_monotone_in_lambda():
    rng = np.random.default_rng(8)
    n = 30
    y = np.cumsum(rng.normal(size=n))
    y += 1.0 - y.min()  # above zero, so the clip never binds
    tv = []
    for lam in (0.0, 0.1, 0.5, 2.0, 10.0):
        x, _ = solve_l1_trend_qp(y, lam, ONE)
        tv.append(np.sum(np.abs(np.diff(x))))
    for a, b in zip(tv, tv[1:]):
        assert b <= a + 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       lam=st.sampled_from([0.01, 0.3, 1.0, 5.0]))
def test_trend_matches_dual_oracle(seed, n, lam):
    """Each segment against its box-constrained dual  min |y - lam D'z|,
    |z| <= 1, solved by BVLS, then clipped at zero; the reported total
    variation never counts a jump across a segment start.  Rounded data
    makes ties between neighbors common."""
    rng = np.random.default_rng(seed)
    y = np.round(rng.normal(0.5, 3.0, n), 1)
    starts = _random_starts(rng, n)
    x, reported = solve_l1_trend_qp(y, lam, starts)
    expected, tv = np.clip(y, 0.0, None), 0.0
    for a, b in zip(starts, np.append(starts[1:], n)):
        if b - a > 1:
            d = np.diff(np.eye(b - a), axis=0)
            z = lsq_linear(lam * d.T, y[a:b], bounds=(-1.0, 1.0),
                           method="bvls", tol=1e-14).x
            expected[a:b] = np.clip(y[a:b] - lam * d.T @ z, 0.0, None)
        tv += np.sum(np.abs(np.diff(x[a:b])))
    assert np.max(np.abs(x - expected)) <= 1e-9
    assert abs(reported - tv) <= 1e-9


def test_trend_negative_lambda_rejected():
    with pytest.raises(ValueError):
        solve_l1_trend_qp(np.zeros(3), -1.0, ONE)


# --- positive-definiteness gate --------------------------------------------

def test_psd_identity_gains_the_ridge():
    h_reg, is_pd, min_eig = psd_check_and_regularize(np.eye(4), 1e-4)
    assert is_pd
    assert np.array_equal(h_reg, (1.0 + 1e-4) * np.eye(4))
    assert abs(min_eig - (1.0 + 1e-4)) < 1e-12


def test_psd_gram_matrices_pass():
    rng = np.random.default_rng(9)
    for trial in range(20):
        k = int(rng.integers(5, 60))
        j = int(rng.integers(2, 20))
        s = rng.normal(size=(k, j))
        h_reg, is_pd, min_eig = psd_check_and_regularize(s.T @ s, 1e-4)
        assert is_pd
        assert min_eig >= 1e-4 * 0.99


def test_psd_slightly_indefinite_is_rescued():
    """Eigenvalue -1e-6 plus ridge 1e-4 lands near 9.9e-5, and passes."""
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    h = q @ np.diag([-1e-6, 1.0, 2.0]) @ q.T
    h = 0.5 * (h + h.T)
    h_reg, is_pd, min_eig = psd_check_and_regularize(h, 1e-4)
    assert is_pd
    assert abs(min_eig - 9.9e-5) < 1e-9


def test_psd_sparse_path_matches_dense():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(30, 8))
    h = s.T @ s
    dense = psd_check_and_regularize(h, 1e-4)
    sparse = psd_check_and_regularize(sp.csc_matrix(h), 1e-4)
    assert dense[1] == sparse[1] is True
    assert np.array_equal(dense[0], sparse[0])
    assert dense[2] == sparse[2]


def test_psd_rejects_asymmetric():
    h = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        psd_check_and_regularize(h, 1e-4)


# --- robust regression -----------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 60),
       j=st.integers(1, 6),
       case=st.sampled_from(["plain", "duplicate", "dead"]))
def test_weighted_nnls_on_the_gram_matches_the_tall_oracle(seed, k, j, case):
    """The weighted NNLS solved on the J x J Gram reaches the objective of
    nnls on the tall sqrt(w)-scaled rows, and its answer passes the tall
    problem's KKT check.  A duplicated column, or one that is zero on every
    positive-weight row, makes the Gram singular (no Cholesky root)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, j + 1))
    w = rng.uniform(0.0, 2.0, k) * (rng.random(k) < 0.8)
    if case == "duplicate":
        x[:, -1] = x[:, 0]
    elif case == "dead":
        x[w > 0, -1] = 0.0
    y = x @ rng.uniform(-1.0, 2.0, j + 1) + 0.3 * rng.standard_normal(k)
    inv = rng.uniform(0.5, 2.0, j + 1)

    a, gram, b = _wls(x, y, w, inv, np.zeros(j + 1))

    sw = np.sqrt(w)
    xs, ys = x * inv * sw[:, None], y * sw
    ref, _ = nnls(xs, ys)

    def objective(v):
        r = xs @ v - ys
        return float(r @ r)

    assert np.all(a >= 0.0)
    assert abs(objective(a) - objective(ref)) <= 1e-10 * (1.0 + objective(ref))
    grad = xs.T @ (xs @ a - ys)
    size = np.abs(xs).T @ (np.abs(xs) @ a + np.abs(ys))
    assert (np.max(np.abs(a - np.clip(a - grad, 0.0, None)))
            <= 1e-10 * (1.0 + np.max(size)))
    assert np.allclose(gram @ a - b, grad, rtol=0.0,
                       atol=1e-10 * (1.0 + np.max(size)))


def test_irls_reports_the_kkt_residual_of_its_last_nnls(monkeypatch):
    """dual_residual is the projected gradient of the last weighted NNLS,
    worked out from its Gram, so an inexact inner solve shows in it."""
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, size=(120, 3))
    y = x @ np.array([1.0, 2.0, 0.5])
    _, rep = irls_bisquare(x, y)
    assert rep.converged and rep.dual_residual <= 1e-12

    exact = optim._active_set

    def off(*args):
        sol, solves, status = exact(*args)
        return sol + 1e-4, solves, status
    monkeypatch.setattr(optim, "_active_set", off)
    _, rep = irls_bisquare(x, y)
    assert rep.dual_residual >= 1e-6


def test_irls_exact_data_one_pass():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, size=(60, 3))
    alpha0 = np.array([1.5, 0.0, 2.0])
    y = x @ alpha0
    alpha, rep = irls_bisquare(x, y)
    assert np.max(np.abs(alpha - alpha0)) <= 1e-8
    assert rep.iterations == 1  # zero residual scale: nothing to reweight
    assert rep.converged


def test_irls_shrugs_off_outliers_where_ols_cannot():
    rng = np.random.default_rng(13)
    k = 200
    x = rng.uniform(0.2, 1.0, size=(k, 2))
    alpha0 = np.array([2.0, 1.0])
    y = x @ alpha0 + 0.01 * rng.normal(size=k)
    bad = rng.choice(k, size=k // 20, replace=False)  # 5% corrupted
    y[bad] += 10.0 * np.abs(y[bad])

    alpha, rep = irls_bisquare(x, y)
    rel = np.linalg.norm(alpha - alpha0) / np.linalg.norm(alpha0)
    assert rel <= 0.05

    ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    rel_ols = np.linalg.norm(ols - alpha0) / np.linalg.norm(alpha0)
    assert rel_ols > 3.0 * rel


def test_irls_huge_tuning_is_nnls(monkeypatch):
    monkeypatch.setattr(optim, "_BISQUARE_TUNING", 1e9)
    rng = np.random.default_rng(14)
    x = rng.uniform(0.0, 1.0, size=(80, 4))
    y = x @ np.array([1.0, 0.0, 3.0, 0.5]) + 0.05 * rng.normal(size=80)
    alpha, _ = irls_bisquare(x, y)
    ref, _ = nnls(x, y)
    assert np.max(np.abs(alpha - ref)) <= 1e-8


def test_irls_objective_never_increases():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, size=(120, 3))
    y = x @ np.array([1.0, 2.0, 0.5]) + 0.1 * rng.standard_t(df=2, size=120)
    alpha, rep = irls_bisquare(x, y)
    hist = rep.notes["objective_history"]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_irls_iteration_cap_flags(monkeypatch):
    monkeypatch.setattr(optim, "_IRLS_MAX_ITER", 1)
    monkeypatch.setattr(optim, "_IRLS_TOL", 0.0)
    rng = np.random.default_rng(16)
    x = rng.uniform(0.0, 1.0, size=(100, 2))
    y = x @ np.array([1.0, 2.0]) + rng.standard_t(df=1, size=100)
    alpha, rep = irls_bisquare(x, y)
    assert not rep.converged
    assert rep.notes.get("no_convergence") is True
    assert np.all(np.isfinite(alpha))


def test_irls_degenerate_weights_raise(monkeypatch):
    monkeypatch.setattr(optim, "_BISQUARE_TUNING", 0.01)
    x = np.ones((2, 1))
    y = np.array([0.0, 1.0])
    with pytest.raises(SolverError, match="every sample weight is zero"):
        irls_bisquare(x, y)


def test_irls_rejects_underdetermined():
    with pytest.raises(ValueError):
        irls_bisquare(np.ones((2, 3)), np.ones(2))


def test_irls_zero_column_gets_zero_and_leaves_the_rest():
    """An all-zero column of X is a zero Gram row and column: its
    coefficient is exactly 0 and the others are those of the fit without
    it (eigh leaves rounding-level entries in that column of the root)."""
    rng = np.random.default_rng(19)
    x = rng.uniform(0.0, 1.0, size=(150, 5))
    y = (x @ np.array([1.0, 0.0, 2.0, 0.5, 1.5])
         + 0.05 * rng.standard_t(df=2, size=150))
    alpha, rep = irls_bisquare(np.insert(x, 2, 0.0, axis=1), y)
    ref, ref_rep = irls_bisquare(x, y)
    assert rep.converged and rep.iterations == ref_rep.iterations > 1
    assert alpha[2] == 0.0
    np.testing.assert_allclose(np.delete(alpha, 2), ref, rtol=0.0,
                               atol=1e-12)
