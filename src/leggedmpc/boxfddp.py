"""Feasibility-driven differential dynamic programming with control boxes.

The backward pass builds a local quadratic model of the Hamiltonian around
the current trajectory, solving a projected-Newton box QP at every node for
the feed-forward term and restricting the feedback gains to the free (not
bound-clamped) control subspace.  The forward pass rolls the nonlinear
dynamics while contracting the multiple-shooting gaps by (1 - alpha), so
infeasible warm starts (e.g. plain state references without controls) are
first-class citizens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import _kernels
from .errors import NonPDHessian, NoStepAccepted

FEAS_TOL = 1e-9
BOXQP_MAX_ITERS = 100
BOXQP_TOL = 1e-8


# ----------------------------------------------------------------- box QP

@dataclass
class BoxQPResult:
    x: np.ndarray
    free: np.ndarray          # boolean mask
    clamped: np.ndarray       # boolean mask
    chol: np.ndarray | None   # lower Cholesky factor of H[free][:, free]
    converged: bool
    iterations: int

    def solve_free(self, B: np.ndarray) -> np.ndarray:
        """Apply H_free^-1 to the free-row slice of B, zero elsewhere."""
        if self.chol is None:
            return np.zeros_like(B, dtype=float)
        if self.free.all():
            # C order as below: a Fortran-ordered gain rounds differently in BLAS
            return np.ascontiguousarray(dpotrs(self.chol, B, lower=1)[0])
        out = np.zeros_like(B, dtype=float)
        out[self.free] = dpotrs(self.chol, B[self.free], lower=1)[0]
        return out


def boxqp(H: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray,
          x_init: np.ndarray | None = None) -> BoxQPResult:
    """Minimize 0.5 x'Hx + g'x subject to lo <= x <= hi (H positive definite).

    Projected-Newton iteration: clamp coordinates whose bound is active with
    an inward-pointing gradient, take a Newton step on the free block, and
    backtrack along the projected arc; the free block is factored (LAPACK
    ``dpotrf``) only when the free set changes.  Returns the free/clamped
    split and the Cholesky factor of the free block for reuse by the
    caller.  Raises NonPDHessian for non-finite ``H`` or ``g`` and for a
    free block that is not positive definite.
    """
    n = g.shape[0]
    if n == 0:
        e = np.zeros(0, dtype=bool)
        return BoxQPResult(np.zeros(0), e, e, None, True, 0)
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise NonPDHessian("box-QP Hessian or gradient is not finite")
    x = _kernels.clip(np.zeros(n) if x_init is None else np.asarray(x_init, float),
                      lo, hi)

    def value(z):
        return 0.5 * float(z @ H @ z) + float(g @ z)

    chol = factored = None
    free = np.ones(n, dtype=bool)
    converged = False
    it = 0
    for it in range(1, BOXQP_MAX_ITERS + 1):
        grad = g + H @ x
        at_lo = x <= lo + 1e-12 * np.maximum(1.0, np.abs(x))
        at_hi = x >= hi - 1e-12 * np.maximum(1.0, np.abs(x))
        clamped = (at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0))
        free = ~clamped
        nfree = np.count_nonzero(free)
        if nfree and free.tobytes() != factored:
            chol, info = dpotrf(H if nfree == n else H[np.ix_(free, free)],
                                lower=1, clean=0)
            if info:
                raise NonPDHessian("free-subspace Hessian is not positive definite")
            factored = free.tobytes()
        if not nfree or np.abs(grad[free]).max() < BOXQP_TOL:
            converged = True
            break
        dx = np.zeros(n)
        dx[free] = -dpotrs(chol, grad[free], lower=1)[0]
        f0 = value(x)
        step = 1.0
        improved = False
        for _ in range(24):
            xc = _kernels.clip(x + step * dx, lo, hi)
            if value(xc) <= f0 + 0.1 * float(grad @ (xc - x)):
                x = xc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return BoxQPResult(x, free, ~free, chol if free.any() else None, converged, it)


# ----------------------------------------------------------------- solver

@dataclass
class SolverState:
    """An iterate and its figures, as ``BoxFddp.state`` reports them."""

    xs: list
    us: list
    gaps: list
    mu: float
    cost: float
    gap_norm: float
    feasible: bool


@dataclass
class Policy:
    k_ff: list = field(default_factory=list)
    K_fb: list = field(default_factory=list)
    V_x: list = field(default_factory=list)
    V_xx: list = field(default_factory=list)


class BoxFddp:
    """One solver instance bound to one shooting problem.

    The problem supplies ``nodes`` (each with ``nu`` and control bounds)
    and a ``terminal`` node with ``calc``/``calc_diff``; the initial state
    ``x0`` and tangent size ``ndx``; ``diff``/``integrate``, which take
    stacked states; ``calc(xs, us)``, the cost and gaps of a whole
    trajectory; ``calc_diff(xs, us)``, the ``NodeDerivatives`` of every
    node; ``step_rows(k, x, u)``, the next states of node k at every row
    of ``x`` and ``u``, and ``trial_costs(xs, us)``, the costs of the rows
    just stepped; and ``rollout(us)`` and ``zero_controls()`` for a
    candidate given without states or controls.  ``ShootingProblem``
    evaluates and differentiates its nodes by stacked group, and each node
    stores its rows of the last batch, costed by ``trial_costs``, so ``calc``
    and ``calc_diff`` at the accepted trial solve no dynamics.  The line search
    tries its step lengths in at most two batches, each the rows of one
    stacked trajectory: every step length at or above the one the
    candidate last accepted (the full step alone after ``set_candidate``),
    then, only when none of those passes, the shorter ones.  A batch rolls
    out the dynamics alone and is costed after the rollout in one stacked
    pass.  Regularization persists across
    ``solve_one_iteration`` calls; a caller may set ``mu`` between them (the
    receding-horizon loop starts every step from one warm value).
    ``last_alpha`` and ``last_trials`` hold the accepted step length (0 when
    none) and the number of step lengths the last iteration checked.
    ``log`` holds one row per iteration that converged or accepted a step,
    restarted by ``set_candidate``: ``(iter, cost, gap_inf, mu, alpha,
    qu_norm)``, the row index, the cost, the largest gap entry and mu after
    the iteration, the accepted step length (0 on convergence) and the norm
    of the backward pass's ``Qu``.

    The regularization mu follows the schedule of Box-FDDP (Mastalli et al.,
    "A feasibility-driven approach to control-limited DDP", Auton. Robots
    2022).  It starts at ``mu_min`` and rises by ``mu_factor`` on every
    failed backward pass or line search.  After an accepted step of length
    alpha it falls by ``mu_factor`` when ``alpha >= long_step`` and rises by
    ``mu_factor`` when ``alpha <= short_step``; any other step leaves it
    unchanged.  It stays within [``mu_min``, ``mu_max``].  A short step
    means the local model holds for only a small part of its step, so the
    next backward pass is damped more.
    """

    alphas = tuple(0.5 ** i for i in range(11))
    mu_min = 1e-9
    mu_max = 1e6
    mu_factor = 10.0
    # accepted step lengths that lower and raise mu (class docstring).  On
    # 40-iteration jump solves, accepted steps of 1/8 and longer cut the cost
    # by 9-12% per iteration on average, steps of 1/16 and shorter by 5.4%
    # or less, so short_step sits at that gap
    long_step = 0.5
    short_step = 2.0 ** -4
    goldstein = 0.1
    # when the local model predicts a cost increase (possible only while
    # closing gaps), accept steps whose increase stays within this multiple
    # of the prediction; requiring strict decrease instead deadlocks the
    # forward pass on infeasible warm starts
    neg_step_factor = 2.0

    def __init__(self, problem, tol: float = 1e-6):
        self.problem = problem
        self.tol = tol
        self.mu = self.mu_min
        self.xs = None
        self.us = None
        self.gaps = None
        self.cost = np.inf
        self.policy = Policy()
        self.qu_norm = np.inf
        self.last_alpha = 0.0
        self.last_trials = 0
        self._last_accepted = 1.0   # the first batch's shortest step length
        self.log: list[tuple] = []
        self._derivs = None
        self._dg = 0.0
        self._dq = 0.0
        self._fvxx = None
        self._calc_at = None        # what set_candidate's cost and gaps belong to

    # -- candidate management -------------------------------------------

    def set_candidate(self, xs=None, us=None):
        """Start from ``(xs, us)`` (zero controls and their rollout by
        default), with a new iteration log."""
        problem = self.problem
        self.log = []
        self._last_accepted = 1.0
        if us is None:
            us = problem.zero_controls()
        self.us = [np.asarray(u, float) for u in us]
        if xs is None:
            xs = problem.rollout(self.us)
        self.xs = [np.asarray(x, float) for x in xs]
        self.cost, self.gaps = problem.calc(self.xs, self.us)
        self._calc_at = self._iterate()

    def _iterate(self):
        """The objects that fix the cost and gaps: the candidate's lists and
        the problem's window."""
        return self.xs, self.us, self.problem.nodes, self.problem.x0

    @property
    def feasible(self) -> bool:
        return self.gap_norm < FEAS_TOL

    @property
    def gap_norm(self) -> float:
        # each gap's max in one stacked reduction, then their max in order
        return max(np.abs(np.array(self.gaps)).max(-1, initial=0.0).tolist())

    def state(self) -> SolverState:
        return SolverState(self.xs, self.us, self.gaps, self.mu, self.cost,
                           self.gap_norm, self.feasible)

    # -- backward pass ----------------------------------------------------

    def compute_derivatives(self):
        # refresh cost/gaps from scratch so scaled-gap bookkeeping never
        # drifts, unless set_candidate has just computed them at this iterate
        at, self._calc_at = self._calc_at, None
        if at is None or any(a is not b for a, b in zip(at, self._iterate())):
            self.cost, self.gaps = self.problem.calc(self.xs, self.us)
        self._derivs = self.problem.calc_diff(self.xs, self.us)

    def backward_pass(self):
        """Riccati sweep with gap terms and box-constrained feed-forward.

        Raises NonPDHessian when a free-subspace control Hessian fails its
        Cholesky factorization at the current regularization.
        """
        problem = self.problem
        nodes = problem.nodes
        ndx = problem.ndx
        mu = self.mu
        lx_T, lxx_T = problem.terminal.calc_diff(self.xs[-1])
        Vx = [None] * (len(nodes) + 1)
        Vxx = [None] * (len(nodes) + 1)
        Vx[-1], Vxx[-1] = lx_T, lxx_T
        k_ff = [None] * len(nodes)
        K_fb = [None] * len(nodes)
        dg = 0.0
        dq = 0.0
        fvxx = [None] * (len(nodes) + 1)
        fvxx[-1] = Vxx[-1] @ self.gaps[-1]
        dg -= float(Vx[-1] @ self.gaps[-1])
        dq += float(self.gaps[-1] @ fvxx[-1])
        qu_norm = 0.0
        mu_eye = mu * _kernels.eye(ndx)
        for k in range(len(nodes) - 1, -1, -1):
            d = self._derivs[k]
            gap = self.gaps[k + 1]
            Vx_next = Vx[k + 1] + Vxx[k + 1] @ gap
            Vxx_reg = Vxx[k + 1] + mu_eye
            Qx = d.lx + d.fx.T @ Vx_next
            Qxx = d.lxx + d.fx.T @ Vxx_reg @ d.fx
            nu = nodes[k].nu
            if nu:
                Qu = d.lu + d.fu.T @ Vx_next
                fuV = d.fu.T @ Vxx_reg
                Qux = d.lxu.T + fuV @ d.fx
                Quu = d.luu + fuV @ d.fu + mu * _kernels.eye(nu)
                Quu = 0.5 * (Quu + Quu.T)
                lo = nodes[k].u_lb - self.us[k]
                hi = nodes[k].u_ub - self.us[k]
                qp = boxqp(Quu, Qu, lo, hi, x_init=k_ff_init(k_ff, k, nu))
                kf = qp.x
                K = qp.solve_free(Qux)
                k_ff[k] = kf
                K_fb[k] = K
                dg += float(Qu @ (-kf))
                dq -= float(kf @ Quu @ kf)
                qu_norm = max(qu_norm, _projected_qu_norm(Qu, kf, lo, hi))
                Vx[k] = Qx + Qux.T @ kf - K.T @ Qu - K.T @ (Quu @ kf)
                Vxx[k] = (Qxx - Qux.T @ K - K.T @ Qux + K.T @ Quu @ K)
                Vxx[k] = 0.5 * (Vxx[k] + Vxx[k].T)
            else:
                k_ff[k] = np.zeros(0)
                K_fb[k] = np.zeros((0, ndx))
                Vx[k] = Qx
                Vxx[k] = 0.5 * (Qxx + Qxx.T)
            fvxx[k] = Vxx[k] @ self.gaps[k]
            dg -= float(Vx[k] @ self.gaps[k])
            dq += float(self.gaps[k] @ fvxx[k])
            if not np.isfinite(Vx[k]).all():
                raise NonPDHessian("backward pass produced non-finite values")
        self.policy = Policy(k_ff, K_fb, Vx, Vxx)
        self._dg, self._dq, self._fvxx = dg, dq, fvxx
        self.qu_norm = qu_norm
        return self.policy

    # -- forward pass -----------------------------------------------------

    def forward_pass(self, alphas):
        """Roll the step lengths ``alphas`` out as the rows of one stacked trajectory.

        Each row applies the policy at its alpha and, on an infeasible
        iterate, opens the gaps by (1 - alpha).  The loop over the nodes
        rolls out the dynamics alone (``problem.step_rows``, one stacked
        group per node; a single alpha runs the single-state code) and drops
        a row at a singular contact set or a non-finite state.  The rows
        that reach the end are costed after the loop, in one stacked pass
        per node group (``problem.trial_costs``).  Overflow along a dropped
        row is expected, not an error.  Returns per alpha None (dropped or a
        non-finite cost) or ``(xs, us, cost)``.
        """
        problem = self.problem
        policy = self.policy
        feasible = self.feasible
        live = np.arange(len(alphas))       # the rows still rolling out
        a = alphas[0] if len(alphas) == 1 else np.array(alphas)[:, None]
        # a lone full step closes every (finite) gap: x (+) 0 is x for a
        # stepped state, whose angle wrap_angle gave, unless an entry is
        # -0.0 (it turns +0.0)
        full = len(alphas) == 1 and a == 1.0 and bool(np.isfinite(self.gaps).all())
        out = [None] * len(alphas)
        with np.errstate(over="ignore", invalid="ignore"):
            x = (problem.integrate(problem.x0, (a - 1.0) * self.gaps[0]) if not feasible
                 else np.broadcast_to(problem.x0, np.shape(a)[:-1] + problem.x0.shape))
            xs, us = [np.array(x)], []
            for k, node in enumerate(problem.nodes):
                dx = problem.diff(x, self.xs[k])
                u = _kernels.clip(self.us[k] + a * policy.k_ff[k]
                                  - (policy.K_fb[k] @ dx[..., None])[..., 0],
                                  node.u_lb, node.u_ub)
                x = problem.step_rows(k, x, u)
                if not feasible and not (full and not _has_negative_zero(x)):
                    x = problem.integrate(x, (a - 1.0) * self.gaps[k + 1])
                xs.append(x)
                us.append(u)
                ok = np.isfinite(x).all(-1)
                if not ok.all():
                    if not ok.any():
                        return out
                    live, a, x = live[ok], a[ok], x[ok]
                    xs, us = [y[ok] for y in xs], [v[ok] for v in us]
            cost = problem.trial_costs(xs, us)
        for r, (i, c) in enumerate(zip(live.tolist(), cost)):
            if np.isfinite(c):
                out[i] = ((xs, us, c) if len(alphas) == 1 else
                          ([y[r] for y in xs], [v[r] for v in us], c))
        return out

    def expected_improvement(self, alpha: float, xs_try) -> float:
        dv = 0.0
        if not self.feasible:
            # one stacked difference for the whole trajectory
            dxs = self.problem.diff(np.array(xs_try), np.array(self.xs))
            for fvxx, dx in zip(self._fvxx, dxs):
                dv -= float(fvxx @ dx)
        d1 = self._dg + dv
        d2 = self._dq - 2.0 * dv
        return alpha * (d1 + 0.5 * alpha * d2)

    # -- iteration loop ---------------------------------------------------

    # a poor iterate may overflow; the box QP, the backward pass and the
    # line search each handle a non-finite value, so numpy's warnings stay here
    @np.errstate(over="ignore", invalid="ignore")
    def solve_one_iteration(self):
        """Derivatives, backward pass (with mu retries), one accepted step.

        A failed backward pass or line search raises mu and retries.  The
        accepted step then sets mu by the Box-FDDP schedule: down after
        ``alpha >= long_step``, up after ``alpha <= short_step``, unchanged
        in between (see the class docstring).  A short step accepted at
        ``mu_max`` still stands, and mu stays at ``mu_max``.

        Returns True when the iterate already satisfies the convergence test
        (nothing accepted); raises NoStepAccepted when no step length works
        at the maximum regularization.
        """
        self.last_alpha, self.last_trials = 0.0, 0
        self.compute_derivatives()
        while True:
            try:
                self.backward_pass()
            except NonPDHessian:
                if not self._increase_mu():
                    raise NoStepAccepted(
                        "backward pass not positive definite at mu_max")
                continue
            if self.qu_norm < self.tol and self.feasible:
                self._log_row(alpha=0.0)
                return True
            step = self._line_search()
            if step is not None:
                alpha, xs_try, us_try, cost_try = step
                self.last_alpha = self._last_accepted = alpha
                self.xs, self.us = xs_try, us_try
                self.cost = cost_try
                self.gaps = [(1.0 - alpha) * g for g in self.gaps]
                if alpha >= self.long_step:
                    self.mu = max(self.mu_min, self.mu / self.mu_factor)
                elif alpha <= self.short_step:
                    # at mu_max the accepted step still stands
                    self._increase_mu()
                self._log_row(alpha=alpha)
                return False
            if not self._increase_mu():
                raise NoStepAccepted("no step length accepted at mu_max")

    def _line_search(self):
        """The first step length of ``alphas`` that passes, or None.

        The first batch holds every step length at or above the one the
        candidate last accepted (the full step alone after
        ``set_candidate``); the shorter ones roll out together only when
        that batch fails.
        """
        was_feasible = self.feasible
        first = sum(alpha >= self._last_accepted for alpha in self.alphas)
        for alphas in (self.alphas[:first], self.alphas[first:]):
            trials = self.forward_pass(alphas) if alphas else []
            for alpha, trial in zip(alphas, trials):
                self.last_trials += 1
                if trial is None:
                    continue
                xs_try, us_try, cost_try = trial
                threshold = self._min_decrease(self.expected_improvement(alpha, xs_try))
                actual = self.cost - cost_try
                if not actual >= threshold:
                    continue
                # with zero gaps the model always predicts improvement, so a
                # feasible iterate never accepts a cost increase
                if was_feasible and actual < -1e-12:
                    continue
                return alpha, xs_try, us_try, cost_try
        return None

    def _min_decrease(self, expected: float) -> float:
        """Smallest accepted cost decrease for a predicted decrease."""
        if expected >= 0.0:
            return self.goldstein * expected
        return self.neg_step_factor * expected

    def _increase_mu(self) -> bool:
        if self.mu >= self.mu_max:
            return False
        self.mu = min(self.mu_max, max(self.mu, self.mu_min) * self.mu_factor)
        return True

    def _log_row(self, alpha: float):
        self.log.append((len(self.log), self.cost, self.gap_norm, self.mu,
                         alpha, self.qu_norm))

    def solve(self, xs=None, us=None, max_iters: int = 100):
        """Iterate to convergence; returns (SolverState, Policy).

        On failure to accept any further step the best iterate is returned
        with ``self.status`` set.
        """
        if self.xs is None or xs is not None or us is not None:
            self.set_candidate(xs, us)
        self.status = "max_iters"
        for _ in range(max_iters):
            try:
                done = self.solve_one_iteration()
            except NoStepAccepted:
                self.status = "no_step"
                return self.state(), self.policy
            if done:
                self.status = "converged"
                return self.state(), self.policy
        return self.state(), self.policy


def _has_negative_zero(x) -> bool:
    zero = x == 0.0
    return bool(zero.any()) and bool(np.signbit(x[zero]).any())


def k_ff_init(k_ff, k, nu):
    prev = k_ff[k + 1] if k + 1 < len(k_ff) else None
    if prev is not None and prev.shape == (nu,):
        return prev
    return None


def _projected_qu_norm(Qu, kf, lo, hi) -> float:
    """Stationarity measure that ignores correctly-clamped coordinates.

    A coordinate pushed onto its bound with the gradient pointing outward
    cannot be improved, so it does not count against convergence; free
    coordinates contribute their plain gradient magnitude.
    """
    clamped = (((kf <= lo + 1e-12) & (Qu > 0.0))
               | ((kf >= hi - 1e-12) & (Qu < 0.0)))
    return float(np.abs(Qu[~clamped]).max(initial=0.0))
