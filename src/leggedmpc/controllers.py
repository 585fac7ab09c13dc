"""Tracking controllers that execute policy messages at the control rate.

Two interchangeable consumers of :class:`~leggedmpc.mpc.PolicyMessage`:

* :class:`RiccatiController` applies the solver's feedback law directly,
  ``u = clamp(u_ff + K (x_ref (-) x))``.  References between nodes come
  from a contact-consistent rollout of the feed-forward torque
  (``contact.predict``), and the base columns of ``K`` are switched off
  when fewer than two feet are in contact (leg odometry is unreliable
  there).
* :class:`WholeBodyController` resolves the classical task hierarchy --
  contact dynamics with actuation limits, swing feet, centre of mass,
  angular momentum, contact forces -- as a cascade of small quadratic
  programs in the accumulated null space.  Flight phases fall back to a
  joint-space PD around the feed-forward torque.

Both run the same tick and differ only in their torque law.  The tick looks
the interval and reference state up by one rule (a time within 1e-12 s
before a node time belongs to that node), and holds the last command
(flagged degraded) when the active message runs out instead of
extrapolating it, or when the measured state is not finite
(``InvalidMeasurement`` with no command to hold).

Work that does not change from tick to tick is done once: the reference
rollout keeps the contact dynamics it solved at each reference state, and
the whole-body tick reads them there; only at a state no rollout step
starts from does the tick solve them, once.  Its inequality rows and seed
are built once per friction cone and contact count.

Each stage of the cascade is a small QP solved by a primal active set from
LAPACK factorizations called directly (``scipy.linalg.lapack``): one QR of
the working set's rows gives its null space and its multipliers, and one
QR least squares gives the step.  A ridge of 1e-9 times the norm of the
stage matrix makes every working-set subproblem strictly convex, and a row
that depends on the working set never enters it, with ties going to the
smallest row index, so the active set cannot cycle.  The null space passed
to the next stage comes from a QR of the stage matrix with its rank fixed
by the task dimensions, so the stage widths depend on the contact count
alone.  Each stage starts from the working set the stage above it ended on,
as hierarchical active-set solvers do (Escande, Mansard & Wieber, IJRR
2014): those rows are tight where the stage starts, and the rows that are
still tight and independent there are factored once, before its first
iteration.  Each tick is a function of its inputs: nothing carries over from
the previous tick, the working set included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgels, dgeqrf, dorgqr, dormqr, dtrtrs

from . import contact as ct
from . import model as mod
from .centroidal import centroidal
from .costs import Bounds, FrictionCone, cone_matrices
from .dynamics import frame_motion, multibody
from .errors import ConfigError, InvalidMeasurement, MaxIterations, Stage1Infeasible
from .model import RobotModel
from .mpc import PolicyMessage, _index_at


@dataclass
class WbcGains:
    """Feedback gains of the task hierarchy (all non-negative).

    Swing and CoM pairs map tracking errors to accelerations;
    ``momentum_dk`` maps the angular-momentum error to an angular-momentum
    rate; the flight pair is the joint-space PD used when fewer than two
    feet are in contact.
    """

    swing_kp: float = 350.0
    swing_kd: float = 25.0
    com_kp: float = 60.0
    com_kd: float = 90.0
    momentum_dk: float = 10.0
    flight_kp: float = 60.0
    flight_kd: float = 2.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ConfigError(f"gain {name} must be non-negative")


@dataclass
class ControlCommand:
    """One control tick: clamped torques plus the references they track."""

    u: np.ndarray             # joint torques, within the actuation box
    q_joints: np.ndarray      # desired joint positions (low-level reference)
    v_joints: np.ndarray      # desired joint velocities
    x_ref: np.ndarray         # rollout reference state used for feedback
    forces_ref: np.ndarray    # planned contact forces for this interval
    contacts: tuple           # planned active contact frames
    mode: str                 # "riccati" | "wbc" | "flight_pd" | "hold"
    degraded: bool = False


# ------------------------------------------------------- reference rollout

def rollout_reference(model: RobotModel, msg: PolicyMessage,
                      control_dt: float):
    """Predict reference states at the control period across one message.

    Each node interval is integrated (``contact.predict``) from its own
    optimal state under the interval's feed-forward torque and planned
    contact set, in equal steps near ``control_dt``; node times snap back to
    the optimal states, so only the in-between ticks are predicted.
    Returns (times, states, sols) with ``times`` sorted and spanning the
    message.  ``sols[j]`` is the ``ContactSolution`` that ``predict``
    solved at ``states[j]`` (the state splits back into the (q, v) it was
    solved at, bit for bit), and None where no step starts: at each
    interval's last state and at the message's final state.
    """
    times, states, sols = [], [], []
    for i, u in enumerate(msg.us_ff):
        t0 = float(msg.node_times[i])
        t1 = float(msg.node_times[i + 1])
        n = max(1, int(round((t1 - t0) / control_dt)))
        h = (t1 - t0) / n
        contacts = ct.ContactSet(frames=tuple(msg.contacts[i]))
        x = np.asarray(msg.xs_ref[i], float)
        steps, xs = ct.predict(model, x, np.asarray(u, float), contacts, h, n - 1)
        times += [t0 + j * h for j in range(n)]
        states += [x, *xs]
        sols += [*steps, None]
    times.append(float(msg.node_times[-1]))
    states.append(np.asarray(msg.xs_ref[-1], float))
    sols.append(None)
    return np.asarray(times), states, sols


def _check_message(msg: PolicyMessage):
    """``ConfigError`` unless ``msg`` has one state per node time, one torque,
    gain, force vector and contact set per interval (at least one) between
    strictly increasing node times, and finite numbers only."""
    n = len(msg.us_ff)
    if n < 1 or [len(msg.node_times), len(msg.xs_ref), len(msg.K_gains) + 1,
            len(msg.forces_ref) + 1, len(msg.contacts) + 1] != [n + 1] * 5:
        raise ConfigError("message lists do not match its node times")
    if not np.all(np.diff(np.asarray(msg.node_times, float)) > 0):
        raise ConfigError("message node times do not strictly increase")
    if not all(np.isfinite(np.asarray(a, float)).all() for a in (
            msg.stamp, msg.node_times, *msg.xs_ref, *msg.us_ff, *msg.K_gains,
            *msg.forces_ref)):
        raise ConfigError("message holds a non-finite number")


class _MessageTracker:
    """Message ingestion, the shared reference-rollout cache and the tick.

    The cache holds the rollout's times, states and the contact dynamics
    solved at each state (see ``rollout_reference``).  It is rebuilt
    completely before the message pointer is swapped, so a reader never
    observes a half-updated reference (single consumer; the swap is the only
    cross-thread boundary).  A tick that needs the dynamics at a state the
    rollout did not solve at solves them once and keeps them there.
    """

    def __init__(self, model: RobotModel, bounds: Bounds,
                 control_dt: float = 1.0 / 400.0):
        if control_dt <= 0:
            raise ConfigError("control_dt must be positive")
        self.model = model
        self.bounds = bounds
        self.control_dt = float(control_dt)
        self.message: PolicyMessage | None = None
        self._times = self._states = self._sols = None
        self._last: ControlCommand | None = None

    def update_message(self, msg: PolicyMessage):
        """Make ``msg`` the active message, unless ``_check_message`` rejects it."""
        _check_message(msg)
        self._times, self._states, self._sols = rollout_reference(
            self.model, msg, self.control_dt)
        self.message = msg

    def _reference_index(self, t: float) -> int:
        return _index_at(self._times, t, len(self._states))

    def reference_at(self, t: float) -> np.ndarray:
        return self._states[self._reference_index(t)]

    def _reference_dynamics(self, i: int, j: int) -> ct.ContactSolution:
        """The contact dynamics at reference state ``j`` under interval
        ``i``'s feed-forward torque and contacts (``j`` lies in interval
        ``i``): the rollout's solution, else solved here once and kept."""
        if self._sols[j] is None:
            msg = self.message
            q_d, v_d = mod.split_state(self.model, self._states[j])
            self._sols[j] = ct.contact_forward_dynamics(
                self.model, q_d, v_d, np.asarray(msg.us_ff[i], float),
                ct.ContactSet(frames=tuple(msg.contacts[i])))
        return self._sols[j]

    def _tick(self, x: np.ndarray, t: float, law) -> ControlCommand:
        """One control tick under ``law(msg, i, j, x) -> (u, mode,
        degraded)``, the controller's torque law on interval ``i`` at
        reference state ``j``; held instead when ``_holds``."""
        if self._holds(x, t):
            return self._hold_last()
        msg = self.message
        i = msg.interval_at(t)
        j = self._reference_index(t)
        x_ref = self._states[j]
        u, mode, degraded = law(msg, i, j, x)
        q_d, v_d = mod.split_state(self.model, x_ref)
        self._last = ControlCommand(
            u=u, q_joints=q_d[3:], v_joints=v_d[3:], x_ref=np.array(x_ref),
            forces_ref=np.asarray(msg.forces_ref[i], float),
            contacts=tuple(msg.contacts[i]), mode=mode, degraded=degraded)
        return self._last

    def _holds(self, x: np.ndarray, t: float) -> bool:
        """Whether the tick holds the last command: the message has run out,
        or ``x`` is not finite (``InvalidMeasurement`` with none to hold)."""
        if np.all(np.isfinite(x)):
            return self.message is None or t > self.message.validity_end + 1e-9
        if self._last is None:
            raise InvalidMeasurement("measurement holds a non-finite value")
        return True

    def _hold_last(self) -> ControlCommand:
        if self._last is None:
            if self.message is None:
                raise ConfigError("no policy message received")
            raise ConfigError(
                f"policy message stamped {self.message.stamp:g} s expired at "
                f"{self.message.validity_end:g} s, before the first tick")
        self._last = replace(self._last, degraded=True, mode="hold")
        return self._last


# -------------------------------------------------- Riccati state feedback

def mask_base_gain(K: np.ndarray, nv: int) -> np.ndarray:
    """Zero the base-pose and base-velocity columns of a feedback gain."""
    K = np.array(K, dtype=float)
    K[:, [0, 1, 2, nv, nv + 1, nv + 2]] = 0.0
    return K


class RiccatiController(_MessageTracker):
    """Executes the optimal policy: feed-forward plus state feedback.

    The gain acts on the manifold error ``x_ref (-) x``; when the planned
    interval has fewer than two feet in contact the base columns are
    masked, leaving pure joint feedback around the feed-forward torque.
    """

    def control(self, x: np.ndarray, t: float) -> ControlCommand:
        return self._tick(x, t, self._feedback)

    def _feedback(self, msg, i, j, x):
        K = np.asarray(msg.K_gains[i], float)
        if len(msg.contacts[i]) < 2:
            K = mask_base_gain(K, self.model.nv)
        err = mod.difference(self.model, self._states[j], x)
        u = np.asarray(msg.us_ff[i], float) + K @ err
        return np.clip(u, self.bounds.u_lb, self.bounds.u_ub), "riccati", False


# ------------------------------------------------- hierarchical QP cascade

@dataclass
class RowBounds:
    """Two-sided inequality rows lb <= B y <= ub shared by every stage."""

    B: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


@dataclass
class HqpSolution:
    y: np.ndarray
    stage_residuals: list     # inf-norm residual right after each stage
    null_dims: list           # remaining null-space dimension per stage
    iterations: list          # active-set iterations of each stage QP; the
                              # warm rows it starts from are not counted


# ridge of a stage QP, relative to the Frobenius norm of its matrix
STAGE_RIDGE = 1e-9
# a row whose part outside the working set's row space is below this share
# of its norm depends on the working set
DEPENDENT_ROW = 1e-9


def _working_set(W, active, n):
    """(R, Q, Z) of the working set's rows A: A^T = Q R with Q square
    (``dgeqrf``, ``dorgqr``), so that the trailing columns Z of Q span the
    null space of A."""
    k = len(active)
    if not k:
        return None, None, np.eye(n)
    qr, tau = dgeqrf(W[[j for j, _ in active]].T)[:2]
    Q = np.zeros((n, n))
    Q[:, :k] = qr
    Q = dorgqr(Q, tau)[0]
    return qr[:k], Q, Q[:, k:]


def _warm_rows(W, lb, ub, warm, dependent):
    """The rows of ``warm``, sorted (row, side) pairs, that start a working
    set at z = 0: tight there on their side (within 1e-9) and, read off one
    QR of the tight rows in index order, not dependent on the rows before
    them (``DEPENDENT_ROW``)."""
    tight = [(j, side) for j, side in warm
             if abs((ub if side > 0 else lb)[j]) <= 1e-9]
    if not tight:
        return []
    r = np.diagonal(dgeqrf(W[[j for j, _ in tight]].T)[0]).tolist()
    return [(j, side) for (j, side), rii in zip(tight, r)
            if rii * rii > dependent[j]]


def _stage_qp(G, d, W, lb, ub, warm=()):
    """min ||G z - d||^2 + eps ||z||^2 subject to lb <= W z <= ub, from
    the feasible z = 0.  Returns z, the active-set iterations taken and the
    final working set, sorted (row, side) pairs with side +1 for an upper
    bound.

    Primal active-set iteration on linearly independent working sets.  The
    working set's rows A factor once per set, A^T = Q R (``dgeqrf``,
    ``dorgqr``): the trailing columns Z of Q span its null space, and R
    gives the multipliers.  With H = [G; sqrt(eps) I] and h = [d; 0] the
    objective is ||H z - h||^2, and the step Z w solves the augmented least
    squares ``[G Z; sqrt(eps) Z] w ~ h - H z`` by QR (``dgels``), never the
    normal equations.  ``sqrt(eps)`` is ``STAGE_RIDGE`` times the norm of
    G, so every subproblem is strictly convex and its solution unique.
    Anti-cycling: a row that depends on the working set never enters it (it
    cannot block a step in the working set's null space), and ties between
    blocking rows, and between equally negative multipliers, go to the
    smallest row index.  Without rows this is the plain minimum-norm least
    squares.

    The working set starts from the rows of ``warm`` (the previous stage's
    final working set) that ``_warm_rows`` admits, factored once before the
    first iteration; admitting them is not an iteration, and the iteration,
    its anti-cycling rules and its cap are those of a cold start.
    """
    n = G.shape[1]
    if W.size == 0:
        return np.linalg.lstsq(G, d, rcond=None)[0], 0, []
    m = W.shape[0]
    if lb.max() > 1e-9 or ub.min() < -1e-9:
        # a primal active-set method cannot recover from this; the caller
        # owns the starting point and must seed it inside the bounds
        raise ConfigError("stage QP starting point violates its bounds")
    H = np.concatenate((G, STAGE_RIDGE * (np.linalg.norm(G) or 1.0) * np.eye(n)))
    h = np.concatenate((d, np.zeros(n)))
    dependent = (DEPENDENT_ROW ** 2 * np.einsum("ij,ij->i", W, W)).tolist()
    upper, lower = np.isfinite(ub).tolist(), np.isfinite(lb).tolist()
    ub, lb = ub.tolist(), lb.tolist()
    z = np.zeros(n)
    active = _warm_rows(W, lb, ub, warm, dependent)
    R, Q, Z = _working_set(W, active, n)
    settled = False                      # z minimizes on the working set
    for it in range(1, 3 * (n + m) + 1):
        k = len(active)
        if not settled and k < n:
            w = dgels(H @ Z, h - H @ z)[1][:n - k]
            settled = w @ w <= 1e-24 * max(1.0, z @ z)
        if settled or k == n:
            if not k:
                return z, it, active
            grad = H.T @ (H @ z - h)
            lam = dtrtrs(R, Q[:, :k].T @ grad)[0].tolist()
            lam = [-s * g for (_, s), g in zip(active, lam)]
            worst = min(range(k), key=lam.__getitem__)
            if lam[worst] >= -1e-9 * max(1.0, max(map(abs, lam))):
                return z, it, active
            active.pop(worst)
            R, Q, Z = _working_set(W, active, n)
            settled = False
            continue
        # step to the nearest blocking row, skipping rows that depend on
        # the working set (W_j Z = 0 up to rounding)
        p = Z @ w
        alpha, hit = 1.0, None
        for j, wp, wz in zip(range(m), (W @ p).tolist(), (W @ z).tolist()):
            if wp > 1e-13 and upper[j]:
                a, side = (ub[j] - wz) / wp, 1
            elif wp < -1e-13 and lower[j]:
                a, side = (lb[j] - wz) / wp, -1
            else:
                continue
            if a < alpha:
                row = W[j] @ Z
                if row @ row > dependent[j]:
                    alpha, hit = a, (j, side)
        z = z + max(alpha, 0.0) * p
        if hit is None:
            settled = True
        else:
            active.append(hit)
            active.sort()
            R, Q, Z = _working_set(W, active, n)
    raise MaxIterations("stage QP active-set iteration did not settle")


# first-stage residual, relative to max(1, |a_1|_inf), above which the
# dynamics count as unrealizable
STAGE1_TOL = 1e-6


def hqp_solve(tasks, ineq: RowBounds, y0: np.ndarray) -> HqpSolution:
    """Lexicographic least squares over ``(A, a)`` tasks in priority order.

    The unknown has the width of ``y0``.  Every stage minimizes its own
    residual ``|A y - a|`` inside the accumulated null space of all
    higher-priority task matrices; the inequality rows (possibly none) are
    carried unchanged into each stage.  ``y0`` seeds the first stage and
    must satisfy the inequality rows (each stage output stays feasible, so
    later stages start feasible automatically).  The first stage starts from
    an empty working set and each later one from the final working set of
    the stage before it (``_stage_qp``'s ``warm``); no working set outlives
    the call.  A first-stage residual above ``STAGE1_TOL * max(1,
    |a_1|_inf)`` raises :class:`Stage1Infeasible` (the dynamics cannot be
    realized within the actuation and cone limits).

    A stage with rows is the ridged QP of ``_stage_qp``; a stage without is
    the exact minimum-norm least squares.  The null space left for the
    next stage is that of the stage matrix G = A Z, from a QR of G^T with
    the rank taken as min(rows, columns): the tasks have full structural
    rank, so no rank is decided from the numbers.
    """
    if not tasks:
        raise ConfigError("hqp_solve needs at least one task")
    y = np.array(y0, dtype=float)
    Z = np.eye(y.size)
    residuals, null_dims, iterations = [], [], []
    active = []
    for A, a in tasks:
        A = np.atleast_2d(np.asarray(A, float))
        a = np.atleast_1d(np.asarray(a, float))
        its = 0
        if Z.shape[1]:
            G = A @ Z
            By = ineq.B @ y
            w, its, active = _stage_qp(G, a - A @ y, ineq.B @ Z, ineq.lb - By,
                                       ineq.ub - By, active)
            y = y + Z @ w
            Z = _narrow(Z, G)
        res = float(np.abs(A @ y - a).max()) if a.size else 0.0
        if not residuals and res > STAGE1_TOL * max(1.0, np.abs(a).max()):
            raise Stage1Infeasible(
                f"dynamics-stage residual {res:.3g} exceeds tolerance")
        residuals.append(res)
        null_dims.append(Z.shape[1])
        iterations.append(its)
    return HqpSolution(y=y, stage_residuals=residuals, null_dims=null_dims,
                       iterations=iterations)


def _narrow(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``Z`` times an orthonormal basis of the null space of ``G``, whose
    rank is taken as full, the smaller of its dimensions: the trailing
    columns of Q in G^T = Q R (``dgeqrf``), applied to Z by ``dormqr``."""
    rank = min(G.shape)
    if rank == Z.shape[1]:
        return Z[:, :0]
    if not rank:
        return Z
    qr, tau = dgeqrf(G.T)[:2]
    return dormqr("R", "N", qr, tau, Z, lwork=64 * max(Z.shape))[0][:, rank:]


# ----------------------------------------------------- whole-body control

def momentum_policy(gains: WbcGains, cen, cen_ref,
                    hdot_ref: np.ndarray) -> float:
    """Commanded angular-momentum rate: the referenced rate corrected by
    the angular-momentum error."""
    return hdot_ref[2] + gains.momentum_dk * (cen_ref.k_G - cen.k_G)


def wbc_seed(model: RobotModel, bounds: Bounds,
             cone: FrictionCone | None, n_contacts: int) -> np.ndarray:
    """A point inside the torque box and friction cones (zeros elsewhere).

    Torques sit at zero clipped into the box; each contact force starts on
    the cone axis at the minimum normal force, where every cone row holds.
    """
    nv, nu = model.nv, model.nu
    y = np.zeros(nv + nu + 2 * n_contacts)
    y[nv:nv + nu] = np.clip(0.0, bounds.u_lb, bounds.u_ub)
    if cone is not None and cone.lambda_min > 0:
        axis = cone.lambda_min * np.array([-np.sin(cone.rotation),
                                           np.cos(cone.rotation)])
        for k in range(n_contacts):
            y[nv + nu + 2 * k:nv + nu + 2 * k + 2] = axis
    return y


def wbc_inequality_rows(model: RobotModel, bounds: Bounds,
                        cone: FrictionCone | None,
                        n_contacts: int) -> RowBounds:
    """Torque box and per-contact cone rows on y = (vdot, u, lambda)."""
    nv, nu = model.nv, model.nu
    nf = 2 * n_contacts
    ny = nv + nu + nf
    Bu = np.zeros((nu, ny))
    Bu[:, nv:nv + nu] = np.eye(nu)
    rows = [Bu]
    lows = [bounds.u_lb]
    highs = [bounds.u_ub]
    if cone is not None and n_contacts:
        C, c = cone_matrices(cone)
        Bc = np.zeros((3 * n_contacts, ny))
        for k in range(n_contacts):
            Bc[3 * k:3 * k + 3, nv + nu + 2 * k:nv + nu + 2 * k + 2] = C
        rows.append(Bc)
        lows.append(np.tile(c, n_contacts))
        highs.append(np.full(3 * n_contacts, np.inf))
    return RowBounds(B=np.vstack(rows), lb=np.concatenate(lows),
                     ub=np.concatenate(highs))


def stance_tasks(model: RobotModel, gains: WbcGains, x, x_ref,
                 ref: ct.ContactSolution, frames,
                 lam_ref) -> list[tuple[np.ndarray, np.ndarray]]:
    """Build the stance hierarchy at one tick as ``(A, a)`` pairs.

    Priorities: (0) contact dynamics, (1) swing feet, (2) centre of mass,
    (3) angular momentum, (4) contact forces.  The linear momentum is the
    CoM rows times the total mass, so the CoM stage already fixes it and
    the momentum stage holds the angular row alone.  All task references
    are evaluated on the rollout state ``x_ref`` with ``ref``, the contact
    dynamics solved there under the feed-forward torque and ``frames``, so
    a perfectly tracking robot sees consistent, zero-error targets.  No
    dynamics are solved here.
    """
    frames = tuple(frames)
    q, v = mod.split_state(model, x)
    v_d = mod.split_state(model, x_ref)[1]
    nv, nu = model.nv, model.nu
    nf = 2 * len(frames)
    ny = nv + nu + nf

    # one multibody pass and one frame gather per state: the measured ones
    # here, for the contact and swing feet together; the reference pass
    # from the reference dynamics, and a gather for its swing feet
    swing = tuple(f for f in range(len(model.contact_frames))
                  if f not in frames)
    mb = multibody(model, q, v)
    pos, J, vel, bias = frame_motion(model, mb, frames + swing)
    A1 = np.zeros((nv + nf, ny))
    A1[:nv, :nv] = mb.M
    A1[:nv, nv:nv + nu] = -model.S
    A1[:nv, nv + nu:] = -J[:nf].T
    A1[nv:, :nv] = J[:nf]
    a1 = np.concatenate([-mb.h, -bias[:nf]])
    tasks = [(A1, a1)]

    cen = centroidal(model, mb, v)
    cen_ref = centroidal(model, ref.mb, v_d)
    hdot_ref = cen_ref.A_G @ ref.vdot + cen_ref.Adot_v
    m_tot = model.total_mass

    if swing:
        k = len(frames)
        pos_d, J_d, vel_d, bias_d = frame_motion(model, ref.mb, swing)
        target = (J_d @ ref.vdot + bias_d
                  + gains.swing_kp * (pos_d.ravel() - pos[k:].ravel())
                  + gains.swing_kd * (vel_d.ravel() - vel[k:].ravel()))
        A = np.zeros((2 * len(swing), ny))
        A[:, :nv] = J[nf:]
        tasks.append((A, target - bias[nf:]))

    # CoM rows are the linear momentum rows scaled by the total mass
    acc_com_d = hdot_ref[:2] / m_tot
    target = (acc_com_d + gains.com_kp * (cen_ref.p_G - cen.p_G)
              + gains.com_kd * (cen_ref.v_G - cen.v_G))
    A = np.zeros((2, ny))
    A[:, :nv] = cen.A_G[:2] / m_tot
    tasks.append((A, target - cen.Adot_v[:2] / m_tot))

    kdot_c = momentum_policy(gains, cen, cen_ref, hdot_ref)
    A = np.zeros((1, ny))
    A[:, :nv] = cen.A_G[2:]
    tasks.append((A, kdot_c - cen.Adot_v[2:]))

    A = np.zeros((nf, ny))
    A[:, nv + nu:] = np.eye(nf)
    tasks.append((A, np.asarray(lam_ref, float)))
    return tasks


def flight_pd(u_ff, q_joints, v_joints, q_joints_ref, v_joints_ref,
              kp: float, kd: float, u_lb, u_ub) -> np.ndarray:
    """Joint-space PD around the feed-forward torque, clamped to the box."""
    u = (np.asarray(u_ff, float)
         + kp * (np.asarray(q_joints_ref) - np.asarray(q_joints))
         + kd * (np.asarray(v_joints_ref) - np.asarray(v_joints)))
    return np.clip(u, u_lb, u_ub)


class WholeBodyController(_MessageTracker):
    """Instantaneous task hierarchy tracking the planned motion.

    Stance ticks solve the QP cascade and command the torque block of its
    solution; planned intervals with fewer than two feet in contact use the
    flight PD; an infeasible dynamics stage, or a stage QP whose active set
    does not settle, re-issues the previous clamped torques with the
    degraded flag set.
    """

    def __init__(self, model: RobotModel, bounds: Bounds,
                 gains: WbcGains | None = None,
                 cone: FrictionCone | None = None,
                 control_dt: float = 1.0 / 400.0):
        super().__init__(model, bounds, control_dt)
        self.gains = gains if gains is not None else WbcGains()
        self.cone = cone
        self._rows = {}

    def control(self, x: np.ndarray, t: float) -> ControlCommand:
        return self._tick(x, t, self._hierarchy)

    def _constraints(self, n_contacts: int) -> tuple[RowBounds, np.ndarray]:
        """The inequality rows and the seed of a stance cascade, built once
        per cone and contact count (the model and the bounds are fixed)."""
        key = (self.cone, n_contacts)
        if key not in self._rows:
            self._rows[key] = (
                wbc_inequality_rows(self.model, self.bounds, self.cone,
                                    n_contacts),
                wbc_seed(self.model, self.bounds, self.cone, n_contacts))
        return self._rows[key]

    def _hierarchy(self, msg, i, j, x):
        model, bounds = self.model, self.bounds
        frames = tuple(msg.contacts[i])
        u_ff = np.asarray(msg.us_ff[i], float)
        x_ref = self._states[j]
        if len(frames) < 2:
            q, v = mod.split_state(model, x)
            q_d, v_d = mod.split_state(model, x_ref)
            u = flight_pd(u_ff, q[3:], v[3:], q_d[3:], v_d[3:],
                          self.gains.flight_kp, self.gains.flight_kd,
                          bounds.u_lb, bounds.u_ub)
            return u, "flight_pd", False
        try:
            tasks = stance_tasks(model, self.gains, x, x_ref,
                                 self._reference_dynamics(i, j), frames,
                                 np.asarray(msg.forces_ref[i], float))
            y = hqp_solve(tasks, *self._constraints(len(frames))).y
        except (Stage1Infeasible, MaxIterations):
            u = self._last.u if self._last is not None else np.zeros(model.nu)
            return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", True
        u = y[model.nv:model.nv + model.nu]
        return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", False
