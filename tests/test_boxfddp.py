import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from leggedmpc import boxfddp, costs as co, kinematics, presets, problem, schedule
from leggedmpc import contact as ct
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc.boxfddp import BoxFddp, boxqp
from leggedmpc.errors import ConfigError, NonPDHessian, NoStepAccepted, RankDeficientContacts

from helpers import SequentialFddp, boxqp_kkt_violation, count_calls, solve


# ----------------------------------------------------------------- box QP

def random_pd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def enumerate_boxqp(H, g, lo, hi):
    """Brute-force oracle: try every lower/free/upper assignment."""
    n = len(g)
    best, best_val = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        x = np.empty(n)
        free = [i for i, p in enumerate(pattern) if p == 0]
        for i, p in enumerate(pattern):
            if p == -1:
                x[i] = lo[i]
            elif p == 1:
                x[i] = hi[i]
        if free:
            idx = np.array(free)
            rest = np.array([i for i in range(n) if i not in free], dtype=int)
            rhs = -g[idx]
            if rest.size:
                rhs -= H[np.ix_(idx, rest)] @ x[rest]
            x[idx] = np.linalg.solve(H[np.ix_(idx, idx)], rhs)
            if np.any(x[idx] < lo[idx] - 1e-12) or np.any(x[idx] > hi[idx] + 1e-12):
                continue
        val = 0.5 * x @ H @ x + g @ x
        if val < best_val - 1e-15:
            best, best_val = x.copy(), val
    return best


def test_boxqp_unconstrained():
    rng = np.random.default_rng(0)
    H = random_pd(rng, 4)
    g = rng.normal(size=4)
    res = boxqp(H, g, np.full(4, -np.inf), np.full(4, np.inf))
    assert res.converged
    assert np.abs(res.x + np.linalg.solve(H, g)).max() < 1e-10
    assert res.free.all()


def test_boxqp_1d_clamp():
    # min 0.5 u^2 + u on [-0.5, 0.5]: unconstrained optimum -1, clamped to -0.5
    res = boxqp(np.array([[1.0]]), np.array([1.0]),
                np.array([-0.5]), np.array([0.5]))
    assert res.x[0] == pytest.approx(-0.5, abs=1e-12)
    assert res.clamped[0]


def test_boxqp_matches_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(60):
        H = random_pd(rng, 3)
        g = rng.normal(size=3) * 3
        lo = -rng.uniform(0.05, 1.5, size=3)
        hi = rng.uniform(0.05, 1.5, size=3)
        res = boxqp(H, g, lo, hi)
        ref = enumerate_boxqp(H, g, lo, hi)
        assert np.abs(res.x - ref).max() < 1e-8, f"trial {trial}"
        assert boxqp_kkt_violation(H, g, lo, hi, res.x) < 1e-8


def test_boxqp_nonpd_raises():
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NonPDHessian):
        boxqp(H, np.ones(2), np.full(2, -np.inf), np.full(2, np.inf))


@pytest.mark.parametrize("where", ["H", "g"])
def test_boxqp_rejects_non_finite_data(where):
    rng = np.random.default_rng(4)
    H, g = random_pd(rng, 3), rng.normal(size=3)
    if where == "H":
        H[0, 2] = H[2, 0] = np.nan
    else:
        g[1] = np.nan
    with pytest.raises(NonPDHessian):
        boxqp(H, g, np.full(3, -1.0), np.full(3, 1.0))


def test_boxqp_factors_once_per_free_set(monkeypatch):
    # two iterations on one free set: the Newton step, then the check that
    # finds the gradient zero; the factor is computed once
    rng = np.random.default_rng(5)
    H, g = random_pd(rng, 4), rng.normal(size=4)
    calls = []

    def counted(*args, _original=boxfddp.dpotrf, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(boxfddp, "dpotrf", counted)
    res = boxqp(H, g, np.full(4, -np.inf), np.full(4, np.inf))
    assert res.converged and res.iterations == 2 and len(calls) == 1


# ------------------------------------------- box QP bookkeeping on floats

def _clamped_array(x, grad, lo, hi):
    """The clamped rule on arrays: on a bound within 1e-12 * max(1, |x|),
    with the gradient pointing out of the box."""
    tol = 1e-12 * np.maximum(1.0, np.abs(x))
    return ((x <= lo + tol) & (grad > 0.0)) | ((x >= hi - tol) & (grad < 0.0))


def boxqp_on_arrays(H, g, lo, hi, x_init=None):
    """The projected-Newton box QP with its bookkeeping on numpy arrays (the
    form ``boxqp`` replaced): (x, free, iterations, converged, chol)."""
    n = g.shape[0]
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise NonPDHessian("not finite")
    x = np.clip(np.zeros(n) if x_init is None else np.asarray(x_init, float), lo, hi)

    def value(z):
        return 0.5 * float(z @ H @ z) + float(g @ z)

    chol = factored = None
    free = np.ones(n, dtype=bool)
    converged, it = False, 0
    for it in range(1, boxfddp.BOXQP_MAX_ITERS + 1):
        grad = g + H @ x
        free = ~_clamped_array(x, grad, lo, hi)
        nfree = np.count_nonzero(free)
        if nfree and free.tobytes() != factored:
            chol, info = boxfddp.dpotrf(H if nfree == n else H[np.ix_(free, free)],
                                        lower=1, clean=0)
            assert not info
            factored = free.tobytes()
        if not nfree or np.abs(grad[free]).max() < boxfddp.BOXQP_TOL:
            converged = True
            break
        dx = np.zeros(n)
        dx[free] = -boxfddp.dpotrs(chol, grad[free], lower=1)[0]
        f0, step, improved = value(x), 1.0, False
        for _ in range(24):
            xc = np.clip(x + step * dx, lo, hi)
            if value(xc) <= f0 + 0.1 * float(grad @ (xc - x)):
                x, improved = xc, True
                break
            step *= 0.5
        if not improved:
            break
    return x, free, it, converged, chol if free.any() else None


def _edge_boxes(rng, n=8, cases=40):
    """Seeded boxes with the edges of the clamped rule: a start exactly on a
    bound, one inside the relative tolerance and one just outside it, a
    -0.0 bound and start, every coordinate pushed out, infinite bounds."""
    for c in range(cases):
        H = random_pd(rng, n)
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        lo, hi = -rng.uniform(0.1, 50.0, n), rng.uniform(0.1, 50.0, n)
        x0 = rng.uniform(lo, hi)
        x0[0] = lo[0]
        x0[1] = hi[1]
        x0[2] = lo[2] + 0.5e-12 * max(1.0, abs(lo[2]))
        x0[3] = hi[3] - 2e-12 * max(1.0, abs(hi[3]))
        lo[4], x0[4] = -0.0, -0.0
        if c % 4 == 1:
            lo[5], hi[6] = -np.inf, np.inf
        if c % 4 == 2:           # every coordinate pushed out of the box
            g = np.where(rng.random(n) < 0.5, 1.0, -1.0) * 1e6
            x0 = np.where(g > 0.0, lo, hi)
        yield H, g, lo, hi, x0


def test_boxqp_floats_keep_the_bits_of_the_array_bookkeeping():
    rng = np.random.default_rng(31)
    seen_all_clamped = False
    for H, g, lo, hi, x0 in _edge_boxes(rng):
        for start in (x0, None):
            res = boxqp(H, g, lo, hi, x_init=start)
            x, free, it, converged, chol = boxqp_on_arrays(H, g, lo, hi, x_init=start)
            assert res.x.tobytes() == x.tobytes()
            assert res.free.tolist() == free.tolist()
            assert res.clamped.tolist() == (~free).tolist()
            assert (res.iterations, res.converged) == (it, converged)
            assert (res.chol is None) == (chol is None)
            if chol is not None:
                assert res.chol.tobytes() == chol.tobytes()
            seen_all_clamped |= not free.any()
    assert seen_all_clamped


def test_boxqp_float_rules_match_the_array_rules_at_the_edges():
    rng = np.random.default_rng(32)
    tiny = np.nextafter(0.0, 1.0)
    for H, g, lo, hi, x0 in _edge_boxes(rng):
        grad = g + H @ x0
        for qu in (grad, -grad, np.where(rng.random(8) < 0.3, 0.0, grad), grad * tiny):
            want = _clamped_array(x0, qu, lo, hi)
            assert boxfddp._clamped(x0.tolist(), qu.tolist(), lo.tolist(),
                                    hi.tolist()) == want.tolist()
            norm = boxfddp._projected_qu_norm(qu, x0, lo, hi)
            assert np.float64(norm).tobytes() == \
                np.abs(qu[~want]).max(initial=0.0).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_rules_pass_a_non_finite_entry_as_the_arrays_do(bad):
    rng = np.random.default_rng(33)
    lo, hi = -np.ones(6), np.ones(6)
    x, qu = rng.uniform(-1.0, 1.0, 6), rng.normal(size=6)
    for where in ("x", "qu", "lo"):
        a, b, c = x.copy(), qu.copy(), lo.copy()
        {"x": a, "qu": b, "lo": c}[where][2] = bad
        want = _clamped_array(a, b, c, hi)
        assert boxfddp._clamped(a.tolist(), b.tolist(), c.tolist(),
                                hi.tolist()) == want.tolist()
        norm = np.float64(boxfddp._projected_qu_norm(b, a, c, hi))
        ref = np.abs(b[~want]).max(initial=0.0)
        assert norm.tobytes() == ref.tobytes() or (np.isnan(norm) and np.isnan(ref))
    with pytest.raises(NonPDHessian):
        boxqp(random_pd(rng, 6), np.where(np.arange(6) == 1, bad, qu), lo, hi)


# ------------------------------------------------------------ LQR oracle

class LinearNode:
    kind = "running"
    dt = 0.1

    def __init__(self, A, B, Q, R, lo=None, hi=None):
        self.A, self.B, self.Q, self.R = A, B, Q, R
        n, m = B.shape
        self.u_lb = np.full(m, -np.inf) if lo is None else lo
        self.u_ub = np.full(m, np.inf) if hi is None else hi

    @property
    def nu(self):
        return self.B.shape[1]

    def calc(self, x, u):
        return self.A @ x + self.B @ u, float(x @ self.Q @ x + u @ self.R @ u)

    def calc_diff(self, x, u):
        n, m = self.B.shape
        return problem.NodeDerivatives(
            fx=self.A, fu=self.B,
            lx=2 * self.Q @ x, lu=2 * self.R @ u,
            lxx=2 * self.Q, lxu=np.zeros((n, m)), luu=2 * self.R)


class LinearTerminal:
    def __init__(self, QT):
        self.QT = QT

    def calc(self, x):
        return float(x @ self.QT @ x)

    def calc_diff(self, x):
        return 2 * self.QT @ x, 2 * self.QT


class EuclidProblem:
    """Minimal problem wrapper over vector-space nodes; a node's data is its
    (next state, cost)."""

    def __init__(self, x0, nodes, terminal):
        self.x0 = np.asarray(x0, float)
        self.nodes = nodes
        self.terminal = terminal
        self.ndx = self.x0.shape[0]

    def diff(self, x1, x0):
        return x1 - x0

    def integrate(self, x, dx):
        return x + dx

    def calc(self, xs, us, data=None):
        """Cost and gaps from ``data``, whose None entries it fills."""
        data = [None] * len(self.nodes) if data is None else data
        cost = 0.0
        gaps = [self.x0 - xs[0]]
        for k, node in enumerate(self.nodes):
            if data[k] is None:
                data[k] = node.calc(xs[k], us[k])
            xn, c = data[k]
            cost += c
            gaps.append(xn - xs[k + 1])
        return cost + self.terminal.calc(xs[-1]), np.array(gaps)

    def calc_diff(self, xs, us, data=None):
        return [node.calc_diff(xs[k], us[k]) for k, node in enumerate(self.nodes)]

    def step_rows(self, k, x, u):
        """Node ``k`` at each row, one row at a time; a singular row gives
        nan.  The step's data are each row's (next state, cost)."""
        rows = [None] * len(np.atleast_2d(x))
        x_next = np.empty_like(np.atleast_2d(x))
        for i, (xi, ui) in enumerate(zip(np.atleast_2d(x), np.atleast_2d(u))):
            try:
                rows[i] = self.nodes[k].calc(xi, ui)
                x_next[i] = rows[i][0]
            except RankDeficientContacts:
                x_next[i] = np.nan
        if x.ndim == 1:
            return x_next[0], (rows, None)
        return x_next, (rows, np.arange(len(rows)))

    def trial_costs(self, xs, us, steps):
        """The steps' costs of each row summed in node order, then the
        terminal; and each row's data."""
        data = [[rows[0] if index is None else rows[index[r]] for rows, index in steps]
                for r in range(len(np.atleast_2d(xs[0])))]
        cost = np.zeros(len(data))
        for k in range(len(self.nodes)):
            cost = cost + np.array([row[k][1] for row in data])
        return cost + [self.terminal.calc(x) for x in np.atleast_2d(xs[-1])], data

    def rollout(self, us):
        xs, data = [self.x0], []
        for k, node in enumerate(self.nodes):
            data.append(node.calc(xs[k], us[k]))
            xs.append(data[-1][0])
        return xs, data


def riccati_recursion(A, B, Q, R, QT, x0, N):
    """Independent discrete-time LQR solve for cost sum x'Qx + u'Ru (+ terminal)."""
    P = QT.copy()
    Ks = []
    for _ in range(N):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P = Q + A.T @ P @ (A - B @ K)
        P = 0.5 * (P + P.T)
        Ks.append(K)
    Ks.reverse()
    xs, us = [x0], []
    for k in range(N):
        us.append(-Ks[k] @ xs[-1])
        xs.append(A @ xs[-1] + B @ us[-1])
    return xs, us, Ks


def make_lqr(seed=2, N=15):
    rng = np.random.default_rng(seed)
    n, m = 4, 2
    A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    B = 0.3 * rng.normal(size=(n, m))
    Q = random_pd(rng, n) * 0.1
    R = random_pd(rng, m) * 0.05
    QT = random_pd(rng, n)
    x0 = rng.normal(size=n)
    nodes = [LinearNode(A, B, Q, R) for _ in range(N)]
    return EuclidProblem(x0, nodes, LinearTerminal(QT)), (A, B, Q, R, QT, x0, N)


def steps_taken(solver):
    """Steps the solver accepted: the log rows with a step length."""
    return sum(1 for row in solver.log if row[4] > 0.0)


def test_lqr_single_iteration_optimum():
    prob, (A, B, Q, R, QT, x0, N) = make_lqr()
    solver = BoxFddp(prob, tol=1e-10)
    solve(solver, max_iters=1)
    xs_ref, us_ref, Ks = riccati_recursion(A, B, Q, R, QT, x0, N)
    for u, u_ref in zip(solver.us, us_ref):
        assert np.abs(u - u_ref).max() < 1e-8
    for x, x_ref in zip(solver.xs, xs_ref):
        assert np.abs(x - x_ref).max() < 1e-8
    for K, K_ref in zip(solver.policy.K_fb, Ks):
        assert np.abs(K - K_ref).max() < 1e-8
    assert steps_taken(solver) == 1


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_solver_rejects_a_tolerance_no_solve_can_meet(tol):
    # with nan, zero or a negative tolerance a solve can never converge, and
    # with inf any feasible candidate counts as converged
    with pytest.raises(ConfigError):
        BoxFddp(make_lqr()[0], tol=tol)


def test_lqr_resolve_idempotent():
    prob, _ = make_lqr()
    solver = BoxFddp(prob, tol=1e-8)
    solve(solver, max_iters=10)
    accepted = steps_taken(solver)
    assert solve(solver, max_iters=10) == "converged"
    assert steps_taken(solver) == accepted  # nothing further to do


def test_zero_horizon_policy():
    QT = np.diag([2.0, 3.0])
    prob = EuclidProblem(np.array([1.0, -1.0]), [], LinearTerminal(QT))
    solver = BoxFddp(prob)
    solver.set_candidate(xs=[prob.x0], us=[])
    solver.compute_derivatives()
    policy = solver.backward_pass()
    assert policy.k_ff == []


class NanGradientNode(LinearNode):
    """A linear node whose control gradient is not finite."""

    def calc_diff(self, x, u):
        d = super().calc_diff(x, u)
        d.lu = np.full_like(d.lu, np.nan)
        return d


def test_non_finite_derivatives_end_in_no_step_accepted():
    prob, _ = make_lqr(N=4)
    A, B, Q, R = (getattr(prob.nodes[0], a) for a in "ABQR")
    prob.nodes[2] = NanGradientNode(A, B, Q, R)
    solver = BoxFddp(prob)
    solver.set_candidate()
    with pytest.raises(NoStepAccepted):
        solver.solve_one_iteration()
    assert solver.mu == boxfddp.MU_MAX


def test_a_line_search_failing_up_to_mu_max_raises_no_step_accepted(monkeypatch):
    prob, _ = make_lqr(N=4)
    solver = BoxFddp(prob)
    solver.set_candidate()
    monkeypatch.setattr(solver, "forward_pass", lambda alphas: [None] * len(alphas))
    with pytest.raises(NoStepAccepted, match="no step length"):
        solver.solve_one_iteration()
    assert solver.mu == boxfddp.MU_MAX


class NanStateGradientNode(LinearNode):
    """A linear node without controls whose state gradient is not finite."""

    def calc_diff(self, x, u):
        d = super().calc_diff(x, u)
        d.lx = np.full_like(d.lx, np.nan)
        return d


def test_backward_pass_rejects_non_finite_values_at_a_node_without_controls():
    # a node without controls runs no box QP, whose finiteness check would
    # otherwise catch the value function
    prob, _ = make_lqr(N=4)
    A, Q, R = prob.nodes[0].A, prob.nodes[0].Q, prob.nodes[0].R
    prob.nodes[2] = NanStateGradientNode(A, np.zeros((len(A), 0)), Q, R[:0, :0])
    solver = BoxFddp(prob)
    solver.set_candidate()
    solver.compute_derivatives()
    with pytest.raises(NonPDHessian, match="non-finite"):
        solver.backward_pass()


def test_fddp_reduces_to_ddp_with_zero_gaps():
    # feasible start: the gap terms of the expected-improvement model vanish
    prob, _ = make_lqr(seed=5, N=8)
    solver = BoxFddp(prob)
    solver.set_candidate()  # rollout from zero controls: feasible
    assert solver.feasible
    solver.compute_derivatives()
    solver.backward_pass()
    xs_try, us_try, _, _ = solver.forward_pass((1.0,))[0]
    assert solver.expected_improvement(1.0, xs_try) == pytest.approx(
        solver._dg + 0.5 * solver._dq)


@pytest.mark.parametrize("alpha, mu_change", [
    (1.0, 0.1), (0.5, 0.1),                 # long step: lower mu
    (0.25, 1.0), (0.125, 1.0),              # in between: keep mu
    (2.0 ** -4, 10.0), (2.0 ** -10, 10.0),  # short step: raise mu
])
def test_mu_follows_accepted_step_length(alpha, mu_change, monkeypatch):
    prob, _ = make_lqr()
    solver = BoxFddp(prob)
    solver.mu = 1e-3
    solver.set_candidate()
    # from a feasible LQR candidate every step length passes the line
    # search, so the solver accepts the only one it is given
    monkeypatch.setattr(boxfddp, "ALPHAS", (alpha,))
    assert solver.solve_one_iteration() is False
    assert solver.log[-1][4] == alpha
    assert solver.mu == pytest.approx(1e-3 * mu_change, rel=1e-12)


def test_mu_floor_and_ceiling_after_full_and_short_steps(monkeypatch):
    prob, _ = make_lqr()
    solver = BoxFddp(prob)
    solver.set_candidate()
    solver.mu = boxfddp.MU_MIN
    monkeypatch.setattr(boxfddp, "ALPHAS", (1.0,))
    solver.solve_one_iteration()
    assert solver.mu == boxfddp.MU_MIN
    # a short step accepted at MU_MAX stands; mu stays at its ceiling
    solver.set_candidate()
    solver.mu = boxfddp.MU_MAX
    monkeypatch.setattr(boxfddp, "ALPHAS", (2.0 ** -6,))
    assert solver.solve_one_iteration() is False
    assert steps_taken(solver) == 1   # set_candidate started a new log
    assert solver.log[-1][4] == 2.0 ** -6
    assert solver.mu == boxfddp.MU_MAX


def singular_rows(solver, node, alphas):
    """Make ``node`` raise RankDeficientContacts on the rows of ``alphas``.

    The test problem evaluates a stacked node one row at a time, in row
    order; no row is dropped before the patched node.  Returns the
    original ``calc``.
    """
    trial = {}
    forward_pass = solver.forward_pass

    def tracking_forward_pass(rows, *args):
        trial.update(alphas=rows, row=0)
        try:
            return forward_pass(rows, *args)
        finally:
            trial.clear()

    calc = node.calc

    def calc_singular_on_rows(x, u):
        if trial:
            alpha = trial["alphas"][trial["row"]]
            trial["row"] += 1
            if alpha in alphas:
                raise RankDeficientContacts("singular trial contact set")
        return calc(x, u)

    solver.forward_pass = tracking_forward_pass
    node.calc = calc_singular_on_rows
    return calc


def test_singular_trial_contact_set_rejects_trial():
    prob, _ = make_lqr()
    solver = BoxFddp(prob)
    solver.set_candidate()
    # the full step alone, then a row of the stacked shorter steps
    singular_rows(solver, prob.nodes[3], (1.0, 0.5))
    assert solver.solve_one_iteration() is False
    assert solver.log[-1][4] == 0.25


def test_last_iteration_reports_step_and_trials():
    prob, _ = make_lqr()
    solver = BoxFddp(prob)
    solver.set_candidate()
    rejected = prob.nodes[3]
    calc = singular_rows(solver, rejected, (1.0, 0.5))
    assert solver.solve_one_iteration() is False
    assert (solver.last_alpha, solver.last_trials) == (0.25, 3)
    assert solver.last_alpha == solver.log[-1][4]
    rejected.calc = calc
    assert solver.solve_one_iteration() is False
    assert (solver.last_alpha, solver.last_trials) == (1.0, 1)
    # the LQR optimum converges without a trial
    assert solver.solve_one_iteration() is True
    assert (solver.last_alpha, solver.last_trials) == (0.0, 0)


@pytest.mark.parametrize("goldstein, expected", [
    (0.1, -10.0),   # the model predicts an increase larger than the actual one
    (-1.0, 10.0),   # a lenient Goldstein factor with an optimistic prediction
])
def test_feasible_iterate_never_accepts_cost_increase(goldstein, expected, monkeypatch):
    prob, _ = make_lqr()
    solver = BoxFddp(prob)
    solver.set_candidate()
    assert solver.feasible
    solver.compute_derivatives()
    solver.backward_pass()
    monkeypatch.setattr(boxfddp, "GOLDSTEIN", goldstein)
    monkeypatch.setattr(boxfddp, "ALPHAS", (1.0,))
    xs_try, us_try, _, data = solver.forward_pass((1.0,))[0]
    solver.forward_pass = lambda alphas, *args: [(xs_try, us_try, solver.cost + 1.0,
                                                  data)] * len(alphas)
    solver.expected_improvement = lambda alpha, xs: expected
    assert solver._line_search() is None


# --------------------------------------------------- feasibility mechanics

def quad_stand_problem(N=16, dt=0.02, bounds="default"):
    quad = presets.default_quadruped()
    from leggedmpc import kinematics
    kin = kinematics.forward_kinematics(quad, presets.nominal_configuration(quad))
    placements = {f: kinematics.frame_position(quad, kin, f) for f in range(4)}
    sched = schedule.stand(range(4), placements)
    q0 = presets.nominal_configuration(quad)
    w = co.default_weights(quad, q0)
    if bounds == "default":
        b = co.default_bounds(quad, q0)
    elif bounds == "loose":
        b = co.default_bounds(quad, q0)
        b.u_lb = np.full(quad.nu, -np.inf)
        b.u_ub = np.full(quad.nu, np.inf)
    else:
        b = None
    x0 = presets.nominal_state(quad)
    x0[0] -= 0.03  # start displaced so the solver has work to do
    x0[quad.nq] = 0.15
    return problem.build_problem(quad, sched, w, b, x0, N=N, dt=dt), quad


def gravity_feedforward(quad):
    """Stance torques balancing gravity: least-squares of [S J^T] y = g(q)."""
    from leggedmpc import contact as ct, dynamics, kinematics
    q0 = presets.nominal_configuration(quad)
    J = ct.contact_jacobian_stack(quad, q0, (0, 1, 2, 3))
    g = dynamics.gravity_torque(quad, q0)
    S = np.zeros((quad.nv, quad.nu))
    S[3:, :] = np.eye(quad.nu)
    sol, *_ = np.linalg.lstsq(np.hstack([S, J.T]), g, rcond=None)
    return sol[: quad.nu]


def warm_start(solver, quad):
    u0 = gravity_feedforward(quad)
    solver.set_candidate(xs=None, us=[u0.copy() for _ in solver.problem.nodes])


def test_gap_contraction():
    prob, quad = quad_stand_problem()
    solver = BoxFddp(prob)
    # infeasible warm start: reference states everywhere, zero controls
    xs = [np.array(prob.x0) for _ in range(len(prob.nodes) + 1)]
    for x in xs[1:]:
        x[0] += 0.01  # misalign so gaps are visibly nonzero
    solver.set_candidate(xs=xs, us=None)
    assert not solver.feasible
    gaps_before = [g.copy() for g in solver.gaps]
    solver.compute_derivatives()
    solver.backward_pass()
    for alpha in (1.0, 0.5, 0.25):
        out = solver.forward_pass((alpha,))[0]
        assert out is not None
        xs_try, us_try, _, _ = out
        _, gaps_after = prob.calc(xs_try, us_try)
        for gb, ga in zip(gaps_before, gaps_after):
            assert np.abs(ga).max() <= (1 - alpha) * np.abs(gb).max() + 1e-10


def test_accepted_alpha1_closes_gaps():
    prob, _ = quad_stand_problem(N=8)
    solver = BoxFddp(prob)
    xs = [np.array(prob.x0) for _ in range(len(prob.nodes) + 1)]
    solver.set_candidate(xs=xs, us=None)
    gap0 = solver.gap_norm
    for _ in range(30):
        done = solver.solve_one_iteration()
        if done:
            break
        row = solver.log[-1]
        if row[4] == 1.0:  # alpha
            assert solver.gap_norm < 1e-9 * (1.0 + gap0)
            break
    else:
        pytest.fail("no full step accepted")


def test_cost_monotone_and_converges():
    prob, quad = quad_stand_problem()
    solver = BoxFddp(prob, tol=1e-5)
    warm_start(solver, quad)
    assert solve(solver, max_iters=60) == "converged"
    accepted = [row for row in solver.log if row[4] > 0]
    costs = [row[1] for row in accepted]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))
    for u, node in zip(solver.us, prob.nodes):
        assert np.all(u >= node.u_lb - 1e-12)
        assert np.all(u <= node.u_ub + 1e-12)
    assert solver.feasible


def test_box_inactive_equals_unconstrained():
    pa, quad = quad_stand_problem(bounds="default")
    pb, _ = quad_stand_problem(bounds="loose")
    sa = BoxFddp(pa, tol=1e-7)
    sb = BoxFddp(pb, tol=1e-7)
    warm_start(sa, quad)
    warm_start(sb, quad)
    status_a = solve(sa, max_iters=50)
    status_b = solve(sb, max_iters=50)
    assert status_a == "converged" and status_b == "converged"
    for ua, ub in zip(sa.us, sb.us):
        assert np.abs(ua - ub).max() < 1e-8
    for xa, xb in zip(sa.xs, sb.xs):
        assert np.abs(xa - xb).max() < 1e-8


def jump_problem():
    """The N = 30 jump: stance, flight and a touchdown impulse."""
    quad = presets.default_quadruped()
    from leggedmpc import kinematics
    kin = kinematics.forward_kinematics(quad, presets.nominal_configuration(quad))
    placements = {f: kinematics.frame_position(quad, kin, f) for f in range(4)}
    sched = schedule.jump(range(4), placements, stance=0.2, flight=0.2)
    q0 = presets.nominal_configuration(quad)
    w = co.default_weights(quad, q0)
    b = co.default_bounds(quad, q0)
    return problem.build_problem(quad, sched, w, b, presets.nominal_state(quad),
                                 N=30, dt=0.02)


def test_jump_problem_solves():
    prob = jump_problem()
    solver = BoxFddp(prob, tol=1e-4)
    solver.set_candidate()
    c0 = solver.cost
    status = solve(solver, max_iters=40)
    why = "status=%s cost/c0=%.4f\n(iter, cost, gap_inf, mu, alpha, qu_norm)\n%s" % (
        status, solver.cost / c0, "\n".join(map(repr, solver.log[-8:])))
    assert solver.cost < 0.2 * c0, why
    assert solver.feasible, why


# ------------------------------------------------- pendulum swing-up oracle

PEND_M, PEND_L, PEND_G = 1.0, 1.0, 9.81
PEND_UMAX = 5.0           # below the m*g*l = 9.81 needed to lift statically
PEND_N, PEND_DT = 20, 0.15


def pend_step(x, u):
    th, om = float(x[0]), float(x[1])
    acc = (float(u[0]) - PEND_M * PEND_G * PEND_L * math.sin(th)) \
        / (PEND_M * PEND_L ** 2)
    om2 = om + PEND_DT * acc
    return np.array([th + PEND_DT * om2, om2])


def pend_running_cost(x, u):
    r = 1.0 + math.cos(x[0])
    return PEND_DT * (r * r + 0.01 * x[1] ** 2 + 1e-3 * u[0] ** 2)


def pend_terminal_cost(x):
    r = 1.0 + math.cos(x[0])
    return 200.0 * (r * r + 0.1 * x[1] ** 2)


class PendulumNode:
    kind = "running"
    dt = PEND_DT
    nu = 1
    u_lb = np.array([-PEND_UMAX])
    u_ub = np.array([PEND_UMAX])

    def calc(self, x, u):
        return pend_step(x, u), pend_running_cost(x, u)

    def calc_diff(self, x, u):
        th, om = x
        ml2 = PEND_M * PEND_L ** 2
        da_dth = -PEND_M * PEND_G * PEND_L * math.cos(th) / ml2
        fx = np.array([[1.0 + PEND_DT ** 2 * da_dth, PEND_DT],
                       [PEND_DT * da_dth, 1.0]])
        fu = np.array([[PEND_DT ** 2 / ml2], [PEND_DT / ml2]])
        r = 1.0 + math.cos(th)
        J = -math.sin(th)
        lx = PEND_DT * np.array([2.0 * r * J, 0.02 * om])
        lu = PEND_DT * np.array([2e-3 * u[0]])
        lxx = PEND_DT * np.array([[2.0 * J * J, 0.0], [0.0, 0.02]])
        lxu = np.zeros((2, 1))
        luu = PEND_DT * np.array([[2e-3]])
        return problem.NodeDerivatives(fx, fu, lx, lu, lxx, lxu, luu)


class PendulumTerminal:
    def calc(self, x):
        return pend_terminal_cost(x)

    def calc_diff(self, x):
        th, om = x
        r = 1.0 + math.cos(th)
        J = -math.sin(th)
        lx = 200.0 * np.array([2.0 * r * J, 0.2 * om])
        lxx = 200.0 * np.array([[2.0 * J * J, 0.0], [0.0, 0.2]])
        return lx, lxx


def transcription_oracle(starts):
    """Direct transcription of the same 20-node problem, solved with SLSQP."""
    N = PEND_N

    def unpack(z):
        xs = z[: 2 * N].reshape(N, 2)
        us = z[2 * N:].reshape(N, 1)
        return xs, us

    def objective(z):
        xs, us = unpack(z)
        total = pend_running_cost(np.zeros(2), us[0])
        for k in range(1, N):
            total += pend_running_cost(xs[k - 1], us[k])
        return total + pend_terminal_cost(xs[-1])

    def defects(z):
        xs, us = unpack(z)
        out = np.empty(2 * N)
        prev = np.zeros(2)
        for k in range(N):
            out[2 * k: 2 * k + 2] = pend_step(prev, us[k]) - xs[k]
            prev = xs[k]
        return out

    bounds = [(None, None)] * (2 * N) + [(-PEND_UMAX, PEND_UMAX)] * N
    best = None
    for z0 in starts:
        res = scipy.optimize.minimize(
            objective, z0, method="SLSQP", bounds=bounds,
            constraints={"type": "eq", "fun": defects},
            options={"maxiter": 400, "ftol": 1e-12})
        if np.abs(defects(res.x)).max() > 1e-8:
            continue
        if best is None or res.fun < best.fun:
            best = res
    assert best is not None, "oracle found no feasible solution"
    return best.fun, unpack(best.x)


def pend_control_guesses():
    """Shared multi-start protocol: the hanging pose is a symmetric critical
    point, so both solvers need symmetry-breaking initial guesses."""
    N = PEND_N
    rng = np.random.default_rng(3)
    return [np.zeros(N),
            np.full(N, PEND_UMAX),
            np.full(N, -PEND_UMAX),
            PEND_UMAX * np.sign(np.sin(np.arange(N))),
            rng.uniform(-PEND_UMAX, PEND_UMAX, N),
            rng.uniform(-PEND_UMAX, PEND_UMAX, N)]


def oracle_starts():
    starts = []
    for us in pend_control_guesses():
        xs = []
        prev = np.zeros(2)
        for k in range(PEND_N):
            prev = pend_step(prev, [us[k]])
            xs.append(prev)
        starts.append(np.concatenate([np.asarray(xs).ravel(), us]))
    return starts


def solve_pendulum_best():
    best = None
    for us in pend_control_guesses():
        prob = EuclidProblem(np.zeros(2), [PendulumNode() for _ in range(PEND_N)],
                             PendulumTerminal())
        solver = BoxFddp(prob, tol=1e-7)
        solver.set_candidate(xs=None, us=[np.array([v]) for v in us])
        if solve(solver, max_iters=300) != "converged":
            continue
        if best is None or solver.cost < best.cost:
            best = solver
    assert best is not None, "no start converged"
    return best


def test_pendulum_swing_up_matches_transcription():
    solver = solve_pendulum_best()
    us = np.array([u[0] for u in solver.us])
    assert np.all(np.abs(us) <= PEND_UMAX + 1e-12)   # zero bound violation
    assert np.abs(us).max() >= PEND_UMAX - 1e-6      # bounds actually saturate
    # the pendulum must actually reach the upright region
    assert abs(abs(solver.xs[-1][0]) - math.pi) < 0.15
    oracle_cost, _ = transcription_oracle(oracle_starts())
    assert abs(solver.cost - oracle_cost) <= 1e-4 * (1.0 + abs(oracle_cost))


def test_pendulum_clamped_gain_rows_zero():
    # while the bang-bang arcs form, feed-forward steps land exactly on the
    # shifted box edge; those coordinates must carry zero feedback
    prob = EuclidProblem(np.zeros(2), [PendulumNode() for _ in range(PEND_N)],
                         PendulumTerminal())
    solver = BoxFddp(prob, tol=1e-7)
    us0 = pend_control_guesses()[3]
    solver.set_candidate(xs=None, us=[np.array([v]) for v in us0])
    saw_clamped = False
    for _ in range(300):
        solver.compute_derivatives()
        policy = solver.backward_pass()
        for k, node in enumerate(prob.nodes):
            kf = policy.k_ff[k]
            lo = node.u_lb - solver.us[k]
            hi = node.u_ub - solver.us[k]
            at_edge = (np.abs(kf - lo) < 1e-12) | (np.abs(kf - hi) < 1e-12)
            for i in np.nonzero(at_edge & (np.abs(kf) > 1e-9))[0]:
                saw_clamped = True
                assert np.all(policy.K_fb[k][i] == 0.0)
        if solver.solve_one_iteration():
            break
    assert saw_clamped


# ------------------------------------------- sequential line-search oracle

def misaligned_stand(solver_cls):
    """The stand problem from reference states off its dynamics: every
    trial opens the gaps by (1 - alpha)."""
    prob, _ = quad_stand_problem()
    solver = solver_cls(prob)
    xs = [np.array(prob.x0) for _ in range(len(prob.nodes) + 1)]
    for x in xs[1:]:
        x[0] += 0.01
    solver.set_candidate(xs=xs, us=None)
    assert not solver.feasible
    return solver


def cold_jump(solver_cls):
    solver = solver_cls(jump_problem(), tol=1e-4)
    solver.set_candidate()
    return solver


def pendulum(us0):
    def make(solver_cls):
        prob = EuclidProblem(np.zeros(2), [PendulumNode() for _ in range(PEND_N)],
                             PendulumTerminal())
        solver = solver_cls(prob, tol=1e-7)
        solver.set_candidate(xs=None, us=[np.array([v]) for v in us0])
        return solver
    return make


def assert_same_iterates(a, b):
    assert (a.last_alpha, a.last_trials, a.mu) == (b.last_alpha, b.last_trials, b.mu)
    assert a.log == b.log
    assert a.cost == b.cost
    for x, y in zip(a.xs + a.us, b.xs + b.us):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("make, iterations", [
    *((pendulum(us0), 300) for us0 in pend_control_guesses()),
    (cold_jump, 4),
    (misaligned_stand, 4),
], ids=[*("pendulum%d" % i for i in range(6)), "jump", "misaligned_stand"])
def test_stacked_line_search_matches_the_sequential_oracle(make, iterations):
    stacked, sequential = make(BoxFddp), make(SequentialFddp)
    for _ in range(iterations):
        done = stacked.solve_one_iteration()
        assert sequential.solve_one_iteration() == done
        assert_same_iterates(stacked, sequential)
        if done:
            break


def test_first_batch_starts_at_the_last_accepted_step():
    # after set_candidate the full step rolls out alone; within a solve the
    # first batch holds every step length at or above the last accepted
    # one, and the shorter ones follow together
    solver = cold_jump(BoxFddp)
    batches = []
    forward_pass = solver.forward_pass

    def recording(alphas):
        batches.append(tuple(alphas))
        return forward_pass(alphas)
    solver.forward_pass = recording
    last = 1.0
    for _ in range(4):
        del batches[:]
        assert not solver.solve_one_iteration()
        first = tuple(a for a in boxfddp.ALPHAS if a >= last)
        assert batches[:2] == [first, boxfddp.ALPHAS[len(first):]][:len(batches)]
        last = solver.last_alpha
        assert last < 1.0      # the jump accepts short steps only
    solver.set_candidate(solver.xs, solver.us)
    del batches[:]
    solver.solve_one_iteration()
    assert batches[0] == (1.0,)


@pytest.mark.parametrize("make", [cold_jump, misaligned_stand])
def test_every_stacked_trial_matches_its_sequential_rollout(make):
    # each row of one stacked rollout over every step length gives the bits
    # of its own rollout.  The oracle's early stop on a feasible iterate
    # drops only rows that fail acceptance, so it decides no step
    solver = make(SequentialFddp)
    solver.compute_derivatives()
    solver.backward_pass()
    alphas = boxfddp.ALPHAS
    rows = BoxFddp.forward_pass(solver, alphas)

    def accepted(alpha, trial):
        if trial is None:
            return False
        actual = solver.cost - trial[2]
        return (actual >= solver._min_decrease(solver.expected_improvement(alpha, trial[0]))
                and not (solver.feasible and actual < -1e-12))

    dropped = 0
    for alpha, row in zip(alphas, rows):
        want = solver.trial(alpha)
        assert (row is None) == (want is None), alpha
        if row is not None:
            assert row[2] == want[2]
            for x, y in zip(row[0] + row[1], want[0] + want[1]):
                assert np.array_equal(x, y)
        if solver.feasible:
            threshold = solver._min_decrease(solver.expected_improvement(alpha, None))
            early = solver.trial(alpha, threshold)
            assert accepted(alpha, early) == accepted(alpha, row)
            dropped += early is None and row is not None
    assert dropped or not solver.feasible    # the early stop cuts some rows short


# ------------------------------------------- one cost refresh, no zero-gap integrate

class RefreshingFddp(BoxFddp):
    """Box-FDDP that evaluates its iterate afresh at every iteration, reading
    none of its data."""

    def compute_derivatives(self):
        self.cost, self.gaps = self.problem.calc(self.xs, self.us)
        self._derivs = self.problem.calc_diff(self.xs, self.us)


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def trot_mpc(steps):
    """The N = 15 trot Mpc (10 ms delay) after ``steps`` steps on its own plans."""
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    kin = kinematics.forward_kinematics(quad, q0)
    feet = {f: kinematics.frame_position(quad, kin, f) for f in range(4)}
    sched = schedule.trot((0, 2), (1, 3), feet, lead_in=0.04, swing=0.08,
                          double_support=0.04, stride=0.05, cycles=8)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.02, update_rate=50.0, expected_delay=0.01)
    x = mod.state(quad, q0, np.zeros(quad.nv))
    ctrl = rh.Mpc(quad, sched, co.default_weights(quad, q0), co.default_bounds(quad, q0),
                  cfg, x)
    for k in range(steps):
        x = np.array(ctrl.step(x, k * 0.02).xs_ref[1])
    return ctrl, x


@pytest.mark.parametrize("make", [cold_jump, misaligned_stand])
def test_an_iteration_after_set_candidate_reads_its_cost_and_gaps(make, monkeypatch):
    # set_candidate has just evaluated the nodes at (xs, us): the iteration
    # reads the cost, gaps and derivatives from those data, solving no
    # dynamics, and gives the bits of one that evaluates them again
    got, want = make(BoxFddp), make(RefreshingFddp)
    with monkeypatch.context() as m:
        calls = [count_calls(m, f) for f in (ct.contact_forward_dynamics,
                                             ct.impulse_dynamics)]
        got.compute_derivatives()
    assert calls == [[], []]
    got.backward_pass()
    want.compute_derivatives()
    want.backward_pass()
    assert got.cost == want.cost
    assert _bits(got.gaps) == _bits(want.gaps)
    for field in ("k_ff", "K_fb"):
        assert _bits(getattr(got.policy, field)) == _bits(getattr(want.policy, field))
    assert (got._dg, got._dq) == (want._dg, want._dq)
    assert _bits(got._fvxx) == _bits(want._fvxx)
    got.solve_one_iteration()
    want.solve_one_iteration()
    assert (got.last_alpha, got.cost, got.mu) == (want.last_alpha, want.cost, want.mu)
    assert _bits(got.xs + got.us + list(got.gaps)) == _bits(want.xs + want.us
                                                        + list(want.gaps))


def test_a_replaced_candidate_gets_its_own_cost_and_gaps():
    solver = misaligned_stand(BoxFddp)
    xs = [np.array(x) for x in solver.xs]
    xs[1][1] += 0.02
    solver.set_candidate(xs, solver.us)
    solver.compute_derivatives()
    cost, gaps = solver.problem.calc(xs, solver.us)
    assert solver.cost == cost
    assert _bits(solver.gaps) == _bits(gaps)


def test_the_full_step_of_an_infeasible_trot_candidate_skips_zero_gap_integrates(
        monkeypatch):
    # at alpha = 1 each gap closes by 0 * gap; x (+) 0 is x for every stepped
    # state without a -0.0, so the rollout needs the integrate only at x0.
    # The candidate is the one Mpc.step predicts and shifts, with its gaps
    ctrl, x = trot_mpc(steps=3)
    solver, prob = ctrl.solver, ctrl.problem
    rollouts = []

    def full_steps():
        assert not solver.feasible
        solver.compute_derivatives()
        solver.backward_pass()
        integrates = []
        integrate = prob.integrate
        monkeypatch.setattr(prob, "integrate",
                            lambda *a: integrates.append(1) or integrate(*a))
        rollouts.append(solver.forward_pass((1.0,))[0])
        assert len(integrates) == 1
        with monkeypatch.context() as m:
            m.setattr(boxfddp, "_has_negative_zero", lambda x: True)
            rollouts.append(solver.forward_pass((1.0,))[0])
        assert len(integrates) == 2 + len(prob.nodes)
        return True

    monkeypatch.setattr(solver, "solve_one_iteration", full_steps)
    ctrl.step(x, 3 * 0.02)
    got, want = rollouts
    assert got[2] == want[2]
    assert _bits(got[0] + got[1]) == _bits(want[0] + want[1])


def test_a_stepped_state_with_a_negative_zero_takes_the_integrate(monkeypatch):
    # integrate turns -0.0 into +0.0, so such a row is not its own x (+) 0
    solver = misaligned_stand(BoxFddp)
    solver.compute_derivatives()
    solver.backward_pass()
    prob = solver.problem
    step_rows = prob.step_rows

    def negative_zero(k, x, u):
        x_next, step = step_rows(k, x, u)
        if k == 2:
            x_next = x_next.copy()
            x_next[5] = -0.0
        return x_next, step

    integrated = []
    integrate = prob.integrate

    def recording(x, dx):
        integrated.append(np.array(x))
        return integrate(x, dx)

    monkeypatch.setattr(prob, "step_rows", negative_zero)
    monkeypatch.setattr(prob, "integrate", recording)
    xs = solver.forward_pass((1.0,))[0][0]
    # x0, then the one row holding -0.0
    assert len(integrated) == 2 and np.signbit(integrated[1][5])
    assert _bits([xs[3]]) == _bits([integrate(integrated[1], 0.0 * solver.gaps[3])])
    assert boxfddp._has_negative_zero(np.array([1.0, -0.0]))
    assert not boxfddp._has_negative_zero(np.array([1.0, 0.0, -2.0]))


def test_a_lone_short_step_still_opens_its_gaps():
    # only alpha = 1 closes the gaps by zero: a step length below it, rolled
    # out alone, keeps the integrate of every node and its oracle's bits
    solver = misaligned_stand(SequentialFddp)
    solver.compute_derivatives()
    solver.backward_pass()
    got = solver.forward_pass((0.5,))[0]
    want = solver.trial(0.5)
    assert got[2] == want[2]
    assert _bits(got[0] + got[1]) == _bits(want[0] + want[1])
