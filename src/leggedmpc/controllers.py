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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    Returns (times, states) with ``times`` sorted and spanning the message.
    """
    times, states = [], []
    for i, u in enumerate(msg.us_ff):
        t0 = float(msg.node_times[i])
        t1 = float(msg.node_times[i + 1])
        n = max(1, int(round((t1 - t0) / control_dt)))
        h = (t1 - t0) / n
        contacts = ct.ContactSet(frames=tuple(msg.contacts[i]))
        x = np.asarray(msg.xs_ref[i], float)
        _sols, xs = ct.predict(model, x, np.asarray(u, float), contacts, h, n - 1)
        times += [t0 + j * h for j in range(n)]
        states += [x, *xs]
    times.append(float(msg.node_times[-1]))
    states.append(np.asarray(msg.xs_ref[-1], float))
    return np.asarray(times), states


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

    The cache is rebuilt completely before the message pointer is swapped,
    so a reader never observes a half-updated reference (single consumer;
    the swap is the only cross-thread boundary).
    """

    def __init__(self, model: RobotModel, bounds: Bounds,
                 control_dt: float = 1.0 / 400.0):
        if control_dt <= 0:
            raise ConfigError("control_dt must be positive")
        self.model = model
        self.bounds = bounds
        self.control_dt = float(control_dt)
        self.message: PolicyMessage | None = None
        self._times = None
        self._states = None
        self._last: ControlCommand | None = None

    def update_message(self, msg: PolicyMessage):
        """Make ``msg`` the active message, unless ``_check_message`` rejects it."""
        _check_message(msg)
        times, states = rollout_reference(self.model, msg, self.control_dt)
        self._times, self._states = times, states
        self.message = msg

    def reference_at(self, t: float) -> np.ndarray:
        return self._states[_index_at(self._times, t, len(self._states))]

    def _tick(self, x: np.ndarray, t: float, law) -> ControlCommand:
        """One control tick under ``law(msg, i, x, x_ref) -> (u, mode,
        degraded)``, the controller's torque law on interval ``i``; held
        instead when ``_holds``."""
        if self._holds(x, t):
            return self._hold_last()
        msg = self.message
        i = msg.interval_at(t)
        x_ref = self.reference_at(t)
        u, mode, degraded = law(msg, i, x, x_ref)
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

    def _feedback(self, msg, i, x, x_ref):
        K = np.asarray(msg.K_gains[i], float)
        if len(msg.contacts[i]) < 2:
            K = mask_base_gain(K, self.model.nv)
        err = mod.difference(self.model, x_ref, x)
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


def nullspace_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space of A (singular values
    below 1e-10 of the largest count as zero)."""
    A = np.atleast_2d(np.asarray(A, float))
    if A.size == 0:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T


def _stage_qp(G, d, W, lb, ub):
    """min ||G z - d||^2 subject to lb <= W z <= ub, from feasible z = 0.

    Primal active-set iteration; each working-set subproblem is a plain
    least squares solved by SVD (minimum norm in flat directions), which
    keeps the step accurate without squaring the conditioning through
    normal equations.  Problem sizes here are tens of rows and columns.
    """
    n = G.shape[1]
    z = np.zeros(n)
    if W.size == 0:
        return np.linalg.lstsq(G, d, rcond=None)[0]
    m = W.shape[0]
    if np.any(lb > 1e-9) or np.any(ub < -1e-9):
        # a primal active-set method cannot recover from this; the caller
        # owns the starting point and must seed it inside the bounds
        raise ConfigError("stage QP starting point violates its bounds")
    active: list[tuple[int, int]] = []   # (row, side); +1 upper, -1 lower
    for _ in range(30 * (n + m) + 30):
        if active:
            Z = nullspace_basis(np.vstack([W[j] for j, _ in active]))
        else:
            Z = np.eye(n)
        if Z.shape[1]:
            w, *_ = np.linalg.lstsq(G @ Z, d - G @ z, rcond=None)
            p = Z @ w
        else:
            p = np.zeros(n)
        if np.abs(p).max() <= 1e-9 * max(1.0, np.abs(z).max()):
            if not active:
                return z
            grad = G.T @ (G @ z - d)
            V = np.vstack([s * W[j] for j, s in active])
            lam, *_ = np.linalg.lstsq(V.T, -grad, rcond=None)
            worst = int(np.argmin(lam))
            if lam[worst] >= -1e-9 * max(1.0, float(np.abs(lam).max())):
                return z
            active.pop(worst)
            continue
        # step to the nearest blocking row
        alpha, hit = 1.0, None
        Wp = W @ p
        Wz = W @ z
        taken = {j for j, _ in active}
        for j in range(m):
            if j in taken:
                continue
            if Wp[j] > 1e-13 and np.isfinite(ub[j]):
                a = (ub[j] - Wz[j]) / Wp[j]
                if a < alpha:
                    alpha, hit = a, (j, 1)
            elif Wp[j] < -1e-13 and np.isfinite(lb[j]):
                a = (lb[j] - Wz[j]) / Wp[j]
                if a < alpha:
                    alpha, hit = a, (j, -1)
        z = z + max(alpha, 0.0) * p
        if hit is not None:
            active.append(hit)
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
    later stages start feasible automatically).  A first-stage residual
    above ``STAGE1_TOL * max(1, |a_1|_inf)`` raises
    :class:`Stage1Infeasible` (the dynamics cannot be realized within the
    actuation and cone limits).
    """
    if not tasks:
        raise ConfigError("hqp_solve needs at least one task")
    y = np.array(y0, dtype=float)
    Z = np.eye(y.size)
    residuals, null_dims = [], []
    for A, a in tasks:
        A = np.atleast_2d(np.asarray(A, float))
        a = np.atleast_1d(np.asarray(a, float))
        if Z.shape[1]:
            G = A @ Z
            w = _stage_qp(G, a - A @ y, ineq.B @ Z,
                          ineq.lb - ineq.B @ y, ineq.ub - ineq.B @ y)
            y = y + Z @ w
            Z = Z @ nullspace_basis(G)
        res = float(np.abs(A @ y - a).max()) if a.size else 0.0
        if not residuals and res > STAGE1_TOL * max(1.0, np.abs(a).max()):
            raise Stage1Infeasible(
                f"dynamics-stage residual {res:.3g} exceeds tolerance")
        residuals.append(res)
        null_dims.append(Z.shape[1])
    return HqpSolution(y=y, stage_residuals=residuals, null_dims=null_dims)


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


def stance_tasks(model: RobotModel, gains: WbcGains, x, x_ref, u_ff,
                 frames, lam_ref) -> list[tuple[np.ndarray, np.ndarray]]:
    """Build the stance hierarchy at one tick as ``(A, a)`` pairs.

    Priorities: (0) contact dynamics, (1) swing feet, (2) centre of mass,
    (3) angular momentum, (4) contact forces.  The linear momentum is the
    CoM rows times the total mass, so the CoM stage already fixes it and
    the momentum stage holds the angular row alone.  All task references
    are evaluated on the rollout state ``x_ref`` under the feed-forward
    torque, so a perfectly tracking robot sees consistent, zero-error
    targets.
    """
    frames = tuple(frames)
    q, v = mod.split_state(model, x)
    q_d, v_d = mod.split_state(model, x_ref)
    nv, nu = model.nv, model.nu
    nf = 2 * len(frames)
    ny = nv + nu + nf

    # one multibody pass and one frame gather per state: the measured ones
    # here, for the contact and swing feet together; the reference pass
    # inside the reference dynamics, and a gather for its swing feet
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

    # reference accelerations are contact-consistent under the feed-forward
    contacts = ct.ContactSet(frames=frames)
    ref = ct.contact_forward_dynamics(
        model, q_d, v_d, np.asarray(u_ff, float), contacts)
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

    def control(self, x: np.ndarray, t: float) -> ControlCommand:
        return self._tick(x, t, self._hierarchy)

    def _hierarchy(self, msg, i, x, x_ref):
        model, bounds = self.model, self.bounds
        frames = tuple(msg.contacts[i])
        u_ff = np.asarray(msg.us_ff[i], float)
        if len(frames) < 2:
            q, v = mod.split_state(model, x)
            q_d, v_d = mod.split_state(model, x_ref)
            u = flight_pd(u_ff, q[3:], v[3:], q_d[3:], v_d[3:],
                          self.gains.flight_kp, self.gains.flight_kd,
                          bounds.u_lb, bounds.u_ub)
            return u, "flight_pd", False
        try:
            tasks = stance_tasks(model, self.gains, x, x_ref, u_ff, frames,
                                 np.asarray(msg.forces_ref[i], float))
            ineq = wbc_inequality_rows(model, bounds, self.cone, len(frames))
            seed = wbc_seed(model, bounds, self.cone, len(frames))
            y = hqp_solve(tasks, ineq, seed).y
        except (Stage1Infeasible, MaxIterations):
            u = self._last.u if self._last is not None else np.zeros(model.nu)
            return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", True
        u = y[model.nv:model.nv + model.nu]
        return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", False


# ------------------------------------------------------------ tick logging

def dense_forces(model: RobotModel, frames, stacked) -> np.ndarray:
    """Spread per-active-frame (fx, fy) pairs over all feet, zeros elsewhere."""
    out = np.zeros(2 * len(model.contact_frames))
    stacked = np.asarray(stacked, float)
    for k, f in enumerate(frames):
        out[2 * f:2 * f + 2] = stacked[2 * k:2 * k + 2]
    return out


def log_columns(model: RobotModel) -> list:
    """Fixed column order of the per-tick controller log."""
    nx = model.nq + model.nv
    feet = range(len(model.contact_frames))
    cols = ["t"]
    cols += [f"u_cmd_{i}" for i in range(model.nu)]
    cols += [f"u_meas_{i}" for i in range(model.nu)]
    cols += [f"x_{i}" for i in range(nx)]
    cols += [f"x_ref_{i}" for i in range(nx)]
    cols += ["k_G", "k_G_ref"]
    cols += [f"lam_{a}{f}" for f in feet for a in ("x", "y")]
    cols += [f"lam_ref_{a}{f}" for f in feet for a in ("x", "y")]
    cols += [f"contact_{f}" for f in feet]
    return cols


def log_row(model: RobotModel, t: float, u_cmd, u_meas, x, x_ref,
            lam_dense, lam_ref_dense, active_frames) -> list:
    """One log record matching :func:`log_columns` (dense force layout)."""
    k_g, k_g_ref = (centroidal(model, multibody(model, q, v), v).k_G
                    for q, v in (mod.split_state(model, y) for y in (x, x_ref)))
    flags = [1.0 if f in tuple(active_frames) else 0.0
             for f in range(len(model.contact_frames))]
    return ([float(t)] + list(map(float, u_cmd)) + list(map(float, u_meas))
            + list(map(float, x)) + list(map(float, x_ref))
            + [float(k_g), float(k_g_ref)]
            + list(map(float, lam_dense)) + list(map(float, lam_ref_dense))
            + flags)
