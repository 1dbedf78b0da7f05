import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear, nnls

from pvdisagg.errors import DegenerateWeightsError, NotConvexError
from pvdisagg.optim import (QuadraticProgram, _wls, irls_bisquare,
                            psd_check_and_regularize, solve_l1_trend_qp,
                            solve_lp, solve_qp)

from conftest import highs_stops_short, l1_oracle


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
    highs_stops_short(monkeypatch, with_point=True)
    rng = np.random.default_rng(0)
    dm = rng.normal(size=(40, 3))
    a, rep = solve_lp(rng.normal(size=40), dm)
    assert not rep.converged
    assert rep.status == "max_iter"
    assert rep.notes.get("no_convergence") is True
    assert np.all(np.isfinite(a)) and np.all(a >= 0.0)


def test_lp_without_a_point_returns_zero_unconverged(monkeypatch):
    highs_stops_short(monkeypatch, with_point=False)
    rng = np.random.default_rng(0)
    dp = rng.normal(size=40)
    a, rep = solve_lp(dp, rng.normal(size=(40, 3)))
    assert not rep.converged
    assert rep.status == "numerical"
    assert rep.notes.get("no_convergence") is True
    assert np.array_equal(a, np.zeros(3))
    # u = 0: the gap is the whole objective sum |dp|
    assert rep.objective == rep.duality_gap == float(np.sum(np.abs(dp)))


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
                            nonneg=np.array([True, True]), beta_reg=1e-4)
    with pytest.raises(NotConvexError):
        solve_qp(prog)


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
    x, rep = solve_l1_trend_qp(f / h, 0.0, _random_starts(rng, n))
    assert np.array_equal(x, np.clip(f / h, 0.0, None))
    assert rep.converged


def test_trend_large_lambda_flattens():
    """Huge roughness price turns a noisy constant into an exact constant."""
    rng = np.random.default_rng(7)
    n = 40
    y = 5.0 + 0.1 * rng.normal(size=n)
    x, rep = solve_l1_trend_qp(y, 100.0, ONE)
    assert np.max(np.abs(np.diff(x))) <= 1e-8
    assert abs(x.mean() - y.mean()) <= 1e-6


def test_trend_recovers_two_breakpoints():
    n = 50
    y = np.concatenate([np.zeros(17), 4.0 * np.ones(18), 1.0 * np.ones(15)])
    lam = 0.2
    x, rep = solve_l1_trend_qp(y, lam, ONE)
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
    assert abs(rep.notes["total_variation"]
               - np.sum(np.abs(np.diff(x)))) <= 1e-12


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
    x, rep = solve_l1_trend_qp(y, lam, starts)
    expected, tv = np.clip(y, 0.0, None), 0.0
    for a, b in zip(starts, np.append(starts[1:], n)):
        if b - a > 1:
            d = np.diff(np.eye(b - a), axis=0)
            z = lsq_linear(lam * d.T, y[a:b], bounds=(-1.0, 1.0),
                           method="bvls", tol=1e-14).x
            expected[a:b] = np.clip(y[a:b] - lam * d.T @ z, 0.0, None)
        tv += np.sum(np.abs(np.diff(x[a:b])))
    assert rep.converged
    assert np.max(np.abs(x - expected)) <= 1e-9
    assert abs(rep.notes["total_variation"] - tv) <= 1e-9


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

    a, gram, b = _wls(x, y, w, inv)

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

    exact = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls",
                        lambda a, b: (exact(a, b)[0] + 1e-4, 0.0))
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


def test_irls_huge_tuning_is_nnls():
    rng = np.random.default_rng(14)
    x = rng.uniform(0.0, 1.0, size=(80, 4))
    y = x @ np.array([1.0, 0.0, 3.0, 0.5]) + 0.05 * rng.normal(size=80)
    alpha, _ = irls_bisquare(x, y, tuning=1e9)
    ref, _ = nnls(x, y)
    assert np.max(np.abs(alpha - ref)) <= 1e-8


def test_irls_objective_never_increases():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, size=(120, 3))
    y = x @ np.array([1.0, 2.0, 0.5]) + 0.1 * rng.standard_t(df=2, size=120)
    alpha, rep = irls_bisquare(x, y)
    hist = rep.notes["objective_history"]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_irls_iteration_cap_flags():
    rng = np.random.default_rng(16)
    x = rng.uniform(0.0, 1.0, size=(100, 2))
    y = x @ np.array([1.0, 2.0]) + rng.standard_t(df=1, size=100)
    alpha, rep = irls_bisquare(x, y, max_iter=1, tol=0.0)
    assert not rep.converged
    assert rep.notes.get("no_convergence") is True
    assert np.all(np.isfinite(alpha))


def test_irls_degenerate_weights_raise():
    x = np.ones((2, 1))
    y = np.array([0.0, 1.0])
    with pytest.raises(DegenerateWeightsError):
        irls_bisquare(x, y, tuning=0.01)


def test_irls_rejects_underdetermined():
    with pytest.raises(ValueError):
        irls_bisquare(np.ones((2, 3)), np.ones(2))
