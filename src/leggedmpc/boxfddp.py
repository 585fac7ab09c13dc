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
from .errors import NonPDHessian, NoStepAccepted, RankDeficientContacts, check_setting

FEAS_TOL = 1e-9
BOXQP_MAX_ITERS = 100
BOXQP_TOL = 1e-8

# the line search's step lengths, longest first
ALPHAS = tuple(0.5 ** i for i in range(11))
# the regularization mu's range and its factor of change (``BoxFddp``)
MU_MIN = 1e-9
MU_MAX = 1e6
MU_FACTOR = 10.0
# mu after the step lengths tried at MU_MIN all fail (``BoxFddp``): one
# jump to a damped model in place of a dozen short steps.  On the
# cold N = 30 jump (the benchmark's candidate, 40 solves of 4 iterations;
# cost over the starting cost c0, and step lengths rolled out per solve):
#   COLD_MU   median cost   max cost   above 0.01 c0   step lengths
#   (none)    0.88          0.94       40              23-32
#   1e1       0.0021        0.020       3               8-10
#   1e2       0.0029        0.024       4               5-8
#   3e2       0.0062        0.022       8               5-6
#   1e3       0.0078        0.64        9               5-17
# At 1e1 the damped full step often fails as well and the short steps
# come back, which makes the solve slower than without the jump;
# from 3e2 on the model is damped past what the step needs
COLD_MU = 1e2
# the shortest accepted step length that lowers mu (``BoxFddp``): the
# local model held for at least half of its full step, so the next
# backward pass is damped less; a shorter accepted step leaves mu as it is
LONG_STEP = 0.5
GOLDSTEIN = 0.1
# when the local model predicts a cost increase (possible only while
# closing gaps), accept steps whose increase stays within this multiple
# of the prediction; requiring strict decrease instead deadlocks the
# forward pass on infeasible warm starts
NEG_STEP_FACTOR = 2.0


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
    an inward-pointing gradient (``_clamped``), take a Newton step on the
    free block, and backtrack along the projected arc; the free block is
    factored (LAPACK ``dpotrf``) only when the free set changes.  The
    products, the factorizations and the step stay in numpy; the clamped
    and free sets and the convergence test are kept on Python floats and
    bools, elementwise the same IEEE operations.  Returns the free/clamped
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
    bounds = lo.tolist(), hi.tolist()

    def value(z):
        return 0.5 * float(z @ H @ z) + float(g @ z)

    chol = factored = f0 = None     # f0: the objective at x, once computed
    converged = False
    it = 0
    for it in range(1, BOXQP_MAX_ITERS + 1):
        grad = g + H @ x
        grads = grad.tolist()
        clamped = _clamped(x.tolist(), grads, *bounds)
        free = [i for i, c in enumerate(clamped) if not c]
        nfree = len(free)
        if nfree and free != factored:
            chol, info = dpotrf(H if nfree == n else H[np.ix_(free, free)],
                                lower=1, clean=0)
            if info:
                raise NonPDHessian("free-subspace Hessian is not positive definite")
            factored = free
        if not nfree or _abs_max(grads[i] for i in free) < BOXQP_TOL:
            converged = True
            break
        if nfree == n:
            dx = -dpotrs(chol, grad, lower=1)[0]
        else:
            dx = np.zeros(n)
            dx[free] = -dpotrs(chol, grad[free], lower=1)[0]
        if f0 is None:
            f0 = value(x)
        step = 1.0
        improved = False
        for _ in range(24):
            xc = _kernels.clip(x + step * dx, lo, hi)
            fc = value(xc)
            if fc <= f0 + 0.1 * float(grad @ (xc - x)):
                x, f0 = xc, fc
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    clamped = np.array(clamped)
    return BoxQPResult(x, ~clamped, clamped, chol if free else None, converged, it)


def _clamped(x, grad, lo, hi) -> list[bool]:
    """Which coordinates sit on a bound that the descent direction -grad
    points through, on lists of floats.  A coordinate within
    1e-12 * max(1, |x|) of a bound is on it.  The box QP's free set and the backward pass's
    stationarity measure (``_projected_qu_norm``) share this rule."""
    return [(gi > 0.0 and xi <= li + 1e-12 * max(1.0, abs(xi)))
            or (gi < 0.0 and xi >= ui - 1e-12 * max(1.0, abs(xi)))
            for xi, gi, li, ui in zip(x, grad, lo, hi)]


def _abs_max(values) -> float:
    """The largest magnitude of ``values`` (0.0 for none), nan when one is
    nan: ``np.abs(a).max(initial=0.0)`` on Python floats."""
    top = 0.0
    for v in values:
        a = abs(v)
        if a > top:
            top = a
        elif a != a:
            return a
    return top


# ----------------------------------------------------------------- solver

@dataclass
class Policy:
    k_ff: list = field(default_factory=list)
    K_fb: list = field(default_factory=list)


class BoxFddp:
    """One solver instance bound to one shooting problem.

    The problem supplies ``nodes`` (each with ``nu`` and control bounds)
    and a ``terminal`` node with ``calc``/``calc_diff``; the initial state
    ``x0`` and tangent size ``ndx``; ``diff``/``integrate``, which take
    stacked states; ``calc(xs, us, data)``, the cost of a whole trajectory
    and its gaps as one (len(nodes) + 1, ndx) array, which the solver
    keeps as ``gaps``, read from the nodes' data, where it evaluates the
    nodes whose entry is None and fills them in; ``calc_diff(xs, us,
    data)``, the ``NodeDerivatives`` of every node; ``step(k, x, u)``,
    the next state of node k at (x, u) and its uncosted evaluation, which
    raises ``RankDeficientContacts`` at a singular contact set, and
    ``trial_costs(xs, us, steps)``, the cost and data of a trajectory just
    stepped; and ``rollout(us)``, the states and data of a candidate given
    without states.

    The solver keeps the data of its iterate as ``data``, one entry per
    node beside ``xs`` and ``us``: an accepted trial's data become it, and
    ``compute_derivatives`` reads the cost, the gaps and the derivatives'
    dynamics solutions from it, solving no dynamics.  The line search is
    plain backtracking, one rollout per step length, longest first
    (``_line_search``): a rollout steps the dynamics alone and is costed
    after it in one stacked pass.  Regularization persists across
    ``solve_one_iteration`` calls; a caller may set ``mu`` between them (the
    receding-horizon loop starts every step from one warm value).
    ``last_alpha`` and ``last_trials`` hold the accepted step length (0 when
    none) and the number of step lengths the last iteration checked; with
    ``cost``, ``gap_norm``, ``mu`` and ``qu_norm`` (the norm of the backward
    pass's ``Qu``) they say what an iteration did.

    The regularization mu follows the schedule of Box-FDDP (Mastalli et al.,
    "A feasibility-driven approach to control-limited DDP", Auton. Robots
    2022).  It starts at ``MU_MIN``, falls by ``MU_FACTOR`` after an
    accepted step of length ``alpha >= LONG_STEP`` and rises by
    ``MU_FACTOR`` after a failed backward pass or line search; a shorter
    accepted step leaves it unchanged.  It stays within [``MU_MIN``,
    ``MU_MAX``].  At ``MU_MIN`` the line search stops at the step length
    the candidate last accepted, and when that fails mu jumps to
    ``COLD_MU``: the undamped model
    is damped before its step is shortened (Levenberg-Marquardt; Nocedal &
    Wright, *Numerical Optimization*, 2006, sec. 10.3).  An exact model, as
    on an LQ problem, still takes its undamped full step.
    """

    def __init__(self, problem, tol: float = 1e-6):
        self.problem = problem
        # with a nan, zero or negative tolerance no solve could converge, and
        # with an infinite one any feasible candidate would
        self.tol = check_setting("tol", tol, zero_ok=False)
        self.mu = MU_MIN
        self.xs = None
        self.us = None
        self.data = None
        self.gaps = None
        self.cost = np.inf
        self.policy = Policy()
        self.qu_norm = np.inf
        self.last_alpha = 0.0
        self.last_trials = 0
        # the step length the candidate last accepted: where a search at
        # MU_MIN stops
        self._last_accepted = 1.0
        # an accepted step scaled the gaps: the next derivative pass
        # evaluates the cost and gaps from the data anew
        self._scaled = False
        self._derivs = None
        self._dg = 0.0
        self._dq = 0.0
        self._fvxx = None

    # -- candidate management -------------------------------------------

    def set_candidate(self, xs=None, us=None, data=None):
        """Start from ``(xs, us)`` (zero controls and their rollout by
        default) and the nodes' ``data`` there.  The entries of ``data``
        that are None, all of them without ``data``, are evaluated."""
        problem = self.problem
        self._last_accepted = 1.0
        if us is None:
            us = [np.zeros(node.nu) for node in problem.nodes]
        self.us = [np.asarray(u, float) for u in us]
        if xs is None:
            xs, data = problem.rollout(self.us)
        self.xs = [np.asarray(x, float) for x in xs]
        self.data = [None] * len(problem.nodes) if data is None else list(data)
        self.cost, self.gaps = problem.calc(self.xs, self.us, self.data)
        self._scaled = False

    @property
    def feasible(self) -> bool:
        return self.gap_norm < FEAS_TOL

    @property
    def gap_norm(self) -> float:
        return float(np.abs(self.gaps).max(initial=0.0))

    # -- backward pass ----------------------------------------------------

    def compute_derivatives(self):
        # after an accepted step, cost and gaps anew from the iterate's
        # data, so scaled-gap bookkeeping never drifts; set_candidate has
        # just computed them from the same data
        if self._scaled:
            self.cost, self.gaps = self.problem.calc(self.xs, self.us, self.data)
            self._scaled = False
        self._derivs = self.problem.calc_diff(self.xs, self.us, self.data)

    def backward_pass(self):
        """Riccati sweep with gap terms and box-constrained feed-forward.

        The value function lives only in the sweep's locals ``Vx`` and
        ``Vxx``, the next node's gradient and Hessian; the line search reads
        ``_fvxx`` (each node's Hessian times its gap) and ``_dg`` and ``_dq``
        (the expected improvement's terms).  Returns ``self.policy``.

        Raises NonPDHessian when a free-subspace control Hessian fails its
        Cholesky factorization at the current regularization.
        """
        problem = self.problem
        nodes = problem.nodes
        ndx = problem.ndx
        mu = self.mu
        Vx, Vxx = problem.terminal.calc_diff(self.xs[-1])
        k_ff = [None] * len(nodes)
        K_fb = [None] * len(nodes)
        dg = 0.0
        dq = 0.0
        fvxx = [None] * (len(nodes) + 1)
        fvxx[-1] = Vxx @ self.gaps[-1]
        dg -= float(Vx @ self.gaps[-1])
        dq += float(self.gaps[-1] @ fvxx[-1])
        qu_norm = 0.0
        mu_eye = mu * _kernels.eye(ndx)
        for k in range(len(nodes) - 1, -1, -1):
            d = self._derivs[k]
            gap = self.gaps[k + 1]
            Vx_next = Vx + Vxx @ gap
            Vxx_reg = Vxx + mu_eye
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
                # warm start: the next node's feed-forward, when it has this size
                warm = k_ff[k + 1] if k + 1 < len(nodes) else None
                qp = boxqp(Quu, Qu, lo, hi,
                           x_init=warm if warm is not None and warm.shape == (nu,) else None)
                kf = qp.x
                K = qp.solve_free(Qux)
                k_ff[k] = kf
                K_fb[k] = K
                dg += float(Qu @ (-kf))
                dq -= float(kf @ Quu @ kf)
                qu_norm = max(qu_norm, _projected_qu_norm(Qu, kf, lo, hi))
                Vx = Qx + Qux.T @ kf - K.T @ Qu - K.T @ (Quu @ kf)
                Vxx = (Qxx - Qux.T @ K - K.T @ Qux + K.T @ Quu @ K)
                Vxx = 0.5 * (Vxx + Vxx.T)
            else:
                k_ff[k] = np.zeros(0)
                K_fb[k] = np.zeros((0, ndx))
                Vx = Qx
                Vxx = 0.5 * (Qxx + Qxx.T)
            fvxx[k] = Vxx @ self.gaps[k]
            dg -= float(Vx @ self.gaps[k])
            dq += float(self.gaps[k] @ fvxx[k])
            if not np.isfinite(Vx).all():
                raise NonPDHessian("backward pass produced non-finite values")
        self.policy = Policy(k_ff, K_fb)
        self._dg, self._dq, self._fvxx = dg, dq, fvxx
        self.qu_norm = qu_norm
        return self.policy

    # -- forward pass -----------------------------------------------------

    def forward_pass(self, alpha):
        """Roll the policy out at the step length ``alpha``.

        The rollout applies the policy at ``alpha`` and, on an infeasible
        iterate, opens the gaps by (1 - alpha).  The loop over the nodes
        rolls out the dynamics alone (``problem.step``) and keeps each
        node's evaluation; the trajectory is costed after the loop, in one
        stacked pass per node group (``problem.trial_costs``).  Overflow on
        a diverging rollout is expected, not an error.  Returns ``(xs, us,
        cost, data)``, or None at a singular contact set, a non-finite
        state or a non-finite cost.
        """
        problem = self.problem
        policy = self.policy
        feasible = self.feasible
        # a full step closes every (finite) gap: x (+) 0 is x for a stepped
        # state, whose angle wrap_angle gave, unless an entry is -0.0 (it
        # turns +0.0)
        full = alpha == 1.0 and bool(np.isfinite(self.gaps).all())
        with np.errstate(over="ignore", invalid="ignore"):
            x = (np.array(problem.x0) if feasible
                 else problem.integrate(problem.x0, (alpha - 1.0) * self.gaps[0]))
            xs, us, steps = [x], [], []
            for k, node in enumerate(problem.nodes):
                dx = problem.diff(x, self.xs[k])
                u = _kernels.clip(self.us[k] + alpha * policy.k_ff[k]
                                  - (policy.K_fb[k] @ dx[:, None])[:, 0],
                                  node.u_lb, node.u_ub)
                try:
                    x, step = problem.step(k, x, u)
                except RankDeficientContacts:
                    return None
                if not feasible and not (full and not _has_negative_zero(x)):
                    x = problem.integrate(x, (alpha - 1.0) * self.gaps[k + 1])
                if not np.isfinite(x).all():
                    return None
                xs.append(x)
                us.append(u)
                steps.append(step)
            cost, data = problem.trial_costs(xs, us, steps)
        return (xs, us, cost, data) if np.isfinite(cost) else None

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

        A failed backward pass or line search raises mu by ``MU_FACTOR``
        and retries; a line search failed at ``MU_MIN`` sets it to
        ``COLD_MU``.  An accepted step of ``alpha >= LONG_STEP`` lowers mu
        by ``MU_FACTOR``, and a shorter one leaves it (see the class
        docstring).

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
                        "backward pass not positive definite at MU_MAX")
                continue
            if self.qu_norm < self.tol and self.feasible:
                return True
            step = self._line_search()
            if step is not None:
                alpha, self.xs, self.us, self.cost, self.data = step
                self.last_alpha = self._last_accepted = alpha
                self.gaps = (1.0 - alpha) * self.gaps
                self._scaled = True
                if alpha >= LONG_STEP:
                    self.mu = max(MU_MIN, self.mu / MU_FACTOR)
                return False
            if self.mu <= MU_MIN:
                self.mu = COLD_MU
            elif not self._increase_mu():
                raise NoStepAccepted("no step length accepted at MU_MAX")

    def _line_search(self):
        """``(alpha, xs, us, cost, data)`` of the first step length of
        ``ALPHAS`` that passes, or None.

        One rollout per step length, longest first.  At ``MU_MIN`` the
        search stops at the step length the candidate last accepted (the
        full step after ``set_candidate``): a failed undamped step is
        damped before it is shortened (see the class docstring).
        """
        feasible = self.feasible
        for alpha in ALPHAS:
            if alpha < self._last_accepted and self.mu <= MU_MIN:
                break
            self.last_trials += 1
            trial = self.forward_pass(alpha)
            if trial is None:
                continue
            xs_try, _, cost_try, _ = trial
            threshold = self._min_decrease(self.expected_improvement(alpha, xs_try))
            actual = self.cost - cost_try
            if not actual >= threshold:
                continue
            # with zero gaps the model always predicts improvement, so a
            # feasible iterate never accepts a cost increase
            if feasible and actual < -1e-12:
                continue
            return (alpha, *trial)
        return None

    def _min_decrease(self, expected: float) -> float:
        """Smallest accepted cost decrease for a predicted decrease."""
        if expected >= 0.0:
            return GOLDSTEIN * expected
        return NEG_STEP_FACTOR * expected

    def _increase_mu(self) -> bool:
        if self.mu >= MU_MAX:
            return False
        self.mu = min(MU_MAX, max(self.mu, MU_MIN) * MU_FACTOR)
        return True


def _has_negative_zero(x) -> bool:
    zero = x == 0.0
    return bool(zero.any()) and bool(np.signbit(x[zero]).any())


def _projected_qu_norm(Qu, kf, lo, hi) -> float:
    """Stationarity measure that ignores correctly-clamped coordinates.

    A coordinate pushed onto its bound with the gradient pointing outward
    (``_clamped``, the box QP's rule) cannot be improved, so it does not
    count against convergence; free coordinates contribute their plain
    gradient magnitude.  Computed on Python floats.
    """
    Qu = Qu.tolist()
    clamped = _clamped(kf.tolist(), Qu, lo.tolist(), hi.tolist())
    return _abs_max(q for q, c in zip(Qu, clamped) if not c)
