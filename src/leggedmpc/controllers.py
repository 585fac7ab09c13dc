"""Tracking controllers that execute policy messages at the control rate.

Two interchangeable consumers of :class:`~leggedmpc.mpc.PolicyMessage`:

* :class:`RiccatiController` applies the solver's feedback law directly,
  ``u = clamp(u_ff + K (x_ref (-) x))``.  References between nodes come
  from a contact-consistent rollout of the feed-forward torque (the step of
  ``contact.predict``), and the base columns of ``K`` are switched off
  when fewer than two feet are in contact (leg odometry is unreliable
  there).
* :class:`WholeBodyController` resolves the classical task hierarchy --
  contact dynamics with actuation limits, swing feet, centre of mass,
  angular momentum, contact forces -- as a cascade of small quadratic
  programs in the accumulated null space.  Flight phases fall back to a
  joint-space PD around the feed-forward torque.  Its gains are module
  constants (``SWING_KP`` to ``FLIGHT_KD``), one tuning for every caller.

Both run the same tick and differ only in their torque law.  The tick looks
the interval and reference state up by one rule (a time within 1e-12 s
before a node time belongs to that node), and holds the last command
(flagged degraded) when the active message runs out instead of
extrapolating it, or when the measured state is not finite
(``InvalidMeasurement`` with no command to hold).

Work that does not change from tick to tick is done once, and work no tick
reads is not done.  ``update_message`` rolls out the message's first
interval alone, which holds the ticks up to the plan's next node (all
ticks of a 50 Hz message on a 20 ms node grid), and the whole-body
controller prepares each of its states there: the contact dynamics,
including at the interval's last state, and the reference side of the
stance tasks (``stance_reference``).  A tick in that interval solves no
dynamics and evaluates nothing at the reference state.  A later interval is
rolled out from its own node state when a tick or ``reference_at`` first
reads it; such a tick pays the steps it fills and, on the whole-body
controller, the preparation of its own state, once.  The new message is
swapped in only once its first interval is ready, and a fill writes only
once all of it succeeded, so a ``RankDeficientContacts`` leaves no
half-filled reference behind.  The whole-body controller's inequality rows
and seed are built once per contact count.

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
iteration.  Each command is a function of the tick's inputs and the message:
what a fill keeps has the same bits whichever tick filled it, and no working
set carries over from the previous tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgels, dgeqrf, dorgqr, dormqr, dtrtrs

from . import _kernels
from . import contact as ct
from . import model as mod
from .centroidal import CentroidalQuantities, centroidal
from .costs import Bounds, FrictionCone, cone_matrices
from .dynamics import frame_motion, multibody
from .errors import (ConfigError, InvalidMeasurement, MaxIterations, Stage1Infeasible,
                     check_setting)
from .model import RobotModel
from .mpc import PolicyMessage, _index_at


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

@dataclass
class _Reference:
    """One message's reference states at the control period, filled as far
    as the ticks have read them.

    Each node interval runs in equal steps near the control period from its
    own optimal state; node times snap back to the optimal states, so only
    the in-between states are predicted (``contact.predict``'s step).
    """

    msg: PolicyMessage
    times: np.ndarray   # every reference time, sorted, spanning the message
    starts: list        # index of each interval's node state, then the final
    steps: list         # step length of each interval
    states: list        # reference state at each time; None until filled
    sols: list          # contact dynamics kept at a state (whole-body only)
    terms: list         # StanceReference at a stance state (whole-body only)


def _plan(msg: PolicyMessage, control_dt: float) -> _Reference:
    """The reference grid of ``msg`` with its node states alone filled."""
    times, starts, steps = [], [], []
    for i in range(len(msg.us_ff)):
        t0 = float(msg.node_times[i])
        t1 = float(msg.node_times[i + 1])
        n = max(1, int(round((t1 - t0) / control_dt)))
        h = (t1 - t0) / n
        starts.append(len(times))
        steps.append(h)
        times += [t0 + j * h for j in range(n)]
    starts.append(len(times))
    times.append(float(msg.node_times[-1]))
    states = [None] * len(times)
    for k, x in zip(starts, msg.xs_ref):
        states[k] = np.asarray(x, float)
    return _Reference(msg, np.asarray(times), starts, steps, states,
                      [None] * len(times), [None] * len(times))


def _interval(msg: PolicyMessage, i: int):
    """Interval ``i``'s feed-forward torque and planned contact set."""
    return (np.asarray(msg.us_ff[i], float),
            ct.ContactSet(frames=tuple(msg.contacts[i])))


def _put(held: list, new: dict):
    for k, value in new.items():
        held[k] = value


def _check_message(model: RobotModel, msg: PolicyMessage):
    """``ConfigError`` unless ``msg`` has one state per node time, one torque,
    gain, force vector and contact set per interval (at least one) between
    strictly increasing node times, each of the model's shape: a state
    (nq + nv,), a torque (nu,), a gain (nu, 2 nv) and two forces per contact
    of a set of distinct contact frames of the model; and finite numbers
    only."""
    n = len(msg.us_ff)
    if n < 1 or [len(msg.node_times), len(msg.xs_ref), len(msg.K_gains) + 1,
            len(msg.forces_ref) + 1, len(msg.contacts) + 1] != [n + 1] * 5:
        raise ConfigError("message lists do not match its node times")
    if not np.all(np.diff(np.asarray(msg.node_times, float)) > 0):
        raise ConfigError("message node times do not strictly increase")
    frames = set(range(len(model.contact_frames)))
    if any(len(set(c)) < len(c) or not set(c) <= frames for c in msg.contacts):
        raise ConfigError("a message contact set is not of distinct frames of the model")
    nu, nv = model.nu, model.nv
    shapes = ([((model.nq + nv,), x) for x in msg.xs_ref]
              + [((nu,), u) for u in msg.us_ff]
              + [((nu, 2 * nv), K) for K in msg.K_gains]
              + [((2 * len(c),), f) for c, f in zip(msg.contacts, msg.forces_ref)])
    if any(np.shape(a) != shape for shape, a in shapes):
        raise ConfigError("message arrays do not have the model's shapes")
    if not all(np.isfinite(np.asarray(a, float)).all() for a in (
            msg.stamp, msg.node_times, *msg.xs_ref, *msg.us_ff, *msg.K_gains,
            *msg.forces_ref)):
        raise ConfigError("message holds a non-finite number")


class _MessageTracker:
    """Message ingestion, the message's reference and the tick.

    ``update_message`` builds the new message's reference in locals: its
    grid, and its first interval, where the message's first ticks land,
    rolled out and prepared for them (``_fill``).  Only then
    is it swapped in, in one assignment, so a rejected message leaves the
    previous one, its reference and the last command in place (single
    consumer; the swap is the only cross-thread boundary).  A later interval
    is rolled out from its own node state when a tick or ``reference_at``
    first reads it.  A fill writes what it computed only once all of it
    succeeded, so a ``RankDeficientContacts`` met there leaves nothing
    half-filled, and the same read raises again.
    """

    def __init__(self, model: RobotModel, bounds: Bounds,
                 control_dt: float = 1.0 / 400.0):
        self.model = model
        self.bounds = bounds
        self.control_dt = check_setting("control_dt", control_dt, zero_ok=False)
        self._ref: _Reference | None = None
        self._last: ControlCommand | None = None

    @property
    def message(self) -> PolicyMessage | None:
        """The active message."""
        return None if self._ref is None else self._ref.msg

    def update_message(self, msg: PolicyMessage):
        """Make ``msg`` the active message, unless ``_check_message`` rejects
        it (``ConfigError``) or its first interval meets a singular contact
        set (``RankDeficientContacts``)."""
        _check_message(self.model, msg)
        ref = _plan(msg, self.control_dt)
        first = range(ref.starts[1])
        self._fill(ref, 0, first[-1], first)
        self._ref = ref

    def _lookup(self, t: float):
        """The active reference, and the interval and reference index of
        time ``t``."""
        ref = self._ref
        return ref, ref.msg.interval_at(t), _index_at(ref.times, t,
                                                      len(ref.states))

    def reference_at(self, t: float) -> np.ndarray:
        ref, i, j = self._lookup(t)
        self._fill(ref, i, j, ())
        return ref.states[j]

    def _rollout(self, ref: _Reference, i: int, j: int):
        """The states that carry interval ``i`` of ``ref`` from its last
        filled state through state ``j``, and the contact dynamics solved on
        the way, as ``{index: value}``; a step from a state whose dynamics
        ``ref`` keeps solves none.  Nothing is written to ``ref``."""
        k = j
        while ref.states[k] is None:
            k -= 1
        states, sols = {}, {}
        if k == j:
            return states, sols
        model = self.model
        u, contacts = _interval(ref.msg, i)
        q, v = mod.split_state(model, ref.states[k])
        for m in range(k, j):
            sol = ref.sols[m]
            if sol is None:
                sol = sols[m] = ct.contact_forward_dynamics(model, q, v, u,
                                                            contacts)
            q, v = mod.semi_implicit_step(model, q, v, sol.vdot, ref.steps[i])
            states[m + 1] = mod.state(model, q, v)
        return states, sols

    def _fill(self, ref: _Reference, i: int, j: int, ticks):
        """Fill interval ``i`` of ``ref`` through state ``j`` and prepare it
        for ticks at the states ``ticks``: the states alone here."""
        if ref.states[j] is None:
            _put(ref.states, self._rollout(ref, i, j)[0])

    def _tick(self, x: np.ndarray, t: float, law) -> ControlCommand:
        """One control tick under ``law(ref, i, j, x) -> (u, mode,
        degraded)``, the controller's torque law on interval ``i`` at
        reference state ``j`` of ``ref``; held instead when ``_holds``."""
        if self._holds(x, t):
            return self._hold_last()
        ref, i, j = self._lookup(t)
        self._fill(ref, i, j, (j,))
        msg = ref.msg
        x_ref = ref.states[j]
        u, mode, degraded = law(ref, i, j, x)
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
    Its reference keeps states alone: no contact dynamics outlive the
    rollout step that solved them.
    """

    def control(self, x: np.ndarray, t: float) -> ControlCommand:
        return self._tick(x, t, self._feedback)

    def _feedback(self, ref, i, j, x):
        msg = ref.msg
        K = np.asarray(msg.K_gains[i], float)
        if len(msg.contacts[i]) < 2:
            K = mask_base_gain(K, self.model.nv)
        err = mod.difference(self.model, ref.states[j], x)
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
        return None, None, _kernels.eye(n)
    qr, tau = dgeqrf(W[[j for j, _ in active]].T)[:2]
    Q = np.zeros((n, n))
    Q[:, :k] = qr
    Q = dorgqr(Q, tau)[0]
    return qr[:k], Q, Q[:, k:]


def _frobenius(G) -> float:
    """``np.linalg.norm(G)`` by the code it runs for a matrix, without its
    argument handling: the root of the dot of G raveled in memory order."""
    g = G.ravel(order="K")
    return math.sqrt(g.dot(g))


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
    ridge = STAGE_RIDGE * (_frobenius(G) or 1.0)
    H = np.concatenate((G, ridge * _kernels.eye(n)))
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

MOMENTUM_DK = 10.0      # angular-momentum rate per unit of its error


def momentum_policy(cen, cen_ref, hdot_ref: np.ndarray) -> float:
    """Commanded angular-momentum rate: the referenced rate corrected by
    the angular-momentum error."""
    return hdot_ref[2] + MOMENTUM_DK * (cen_ref.k_G - cen.k_G)


def wbc_seed(model: RobotModel, bounds: Bounds, n_contacts: int) -> np.ndarray:
    """A point inside the torque box and friction cones (zeros elsewhere).

    Torques sit at zero clipped into the box; each contact force starts at
    its cone's apex, zero, where every cone row holds.
    """
    nv, nu = model.nv, model.nu
    y = np.zeros(nv + nu + 2 * n_contacts)
    y[nv:nv + nu] = np.clip(0.0, bounds.u_lb, bounds.u_ub)
    return y


def wbc_inequality_rows(model: RobotModel, bounds: Bounds, cone: FrictionCone,
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
    if n_contacts:
        C = cone_matrices(cone)
        Bc = np.zeros((3 * n_contacts, ny))
        for k in range(n_contacts):
            Bc[3 * k:3 * k + 3, nv + nu + 2 * k:nv + nu + 2 * k + 2] = C
        rows.append(Bc)
        lows.append(np.zeros(3 * n_contacts))
        highs.append(np.full(3 * n_contacts, np.inf))
    return RowBounds(B=np.vstack(rows), lb=np.concatenate(lows),
                     ub=np.concatenate(highs))


@dataclass
class StanceReference:
    """The reference side of a stance tick: what ``stance_tasks`` reads of
    the reference state and of the contact dynamics solved there, none of
    which the measurement changes."""

    cen: CentroidalQuantities       # centroidal terms at the reference state
    hdot: np.ndarray                # momentum rate A_G vdot + Adot_v (3,)
    swing_pos: np.ndarray | None    # swing-foot positions, stacked (2 each);
    swing_vel: np.ndarray | None    # their velocities and accelerations
    swing_acc: np.ndarray | None    # J vdot + bias; None without swing feet


def _swing(model: RobotModel, frames: tuple) -> tuple:
    return tuple(f for f in range(len(model.contact_frames))
                 if f not in frames)


def stance_reference(model: RobotModel, x_ref, ref: ct.ContactSolution,
                     frames) -> StanceReference:
    """The reference side of a stance tick at the reference state ``x_ref``,
    read off ``ref``, the contact dynamics solved there under the
    feed-forward torque and ``frames``: one centroidal evaluation and one
    gather of the swing feet on its multibody pass."""
    v_d = mod.split_state(model, x_ref)[1]
    cen = centroidal(model, ref.mb, v_d)
    hdot = cen.A_G @ ref.vdot + cen.Adot_v
    swing = _swing(model, tuple(frames))
    if not swing:
        return StanceReference(cen, hdot, None, None, None)
    pos, J, vel, bias = frame_motion(model, ref.mb, swing)
    return StanceReference(cen, hdot, pos.ravel(), vel.ravel(),
                           J @ ref.vdot + bias)


SWING_KP, SWING_KD = 350.0, 25.0    # swing-foot errors to accelerations
COM_KP, COM_KD = 60.0, 90.0         # CoM errors to accelerations


def stance_tasks(model: RobotModel, x, ref: StanceReference, frames,
                 lam_ref) -> list[tuple[np.ndarray, np.ndarray]]:
    """Build the stance hierarchy at one tick as ``(A, a)`` pairs.

    Priorities: (0) contact dynamics, (1) swing feet, (2) centre of mass,
    (3) angular momentum, (4) contact forces.  The linear momentum is the
    CoM rows times the total mass, so the CoM stage already fixes it and
    the momentum stage holds the angular row alone.  The task references
    come prepared in ``ref`` (``stance_reference``), from the rollout state
    and the contact dynamics solved there under the feed-forward torque and
    ``frames``, so a perfectly tracking robot sees consistent, zero-error
    targets.  Only the measured state is evaluated here; no dynamics are
    solved.
    """
    frames = tuple(frames)
    q, v = mod.split_state(model, x)
    nv, nu = model.nv, model.nu
    nf = 2 * len(frames)
    ny = nv + nu + nf

    # one multibody pass and one frame gather at the measured state, for the
    # contact and swing feet together
    swing = _swing(model, frames)
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
    cen_ref = ref.cen
    m_tot = model.total_mass

    if swing:
        k = len(frames)
        target = (ref.swing_acc
                  + SWING_KP * (ref.swing_pos - pos[k:].ravel())
                  + SWING_KD * (ref.swing_vel - vel[k:].ravel()))
        A = np.zeros((2 * len(swing), ny))
        A[:, :nv] = J[nf:]
        tasks.append((A, target - bias[nf:]))

    # CoM rows are the linear momentum rows scaled by the total mass
    acc_com_d = ref.hdot[:2] / m_tot
    target = (acc_com_d + COM_KP * (cen_ref.p_G - cen.p_G)
              + COM_KD * (cen_ref.v_G - cen.v_G))
    A = np.zeros((2, ny))
    A[:, :nv] = cen.A_G[:2] / m_tot
    tasks.append((A, target - cen.Adot_v[:2] / m_tot))

    kdot_c = momentum_policy(cen, cen_ref, ref.hdot)
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


FLIGHT_KP, FLIGHT_KD = 60.0, 2.0    # joint PD with fewer than two feet down


class WholeBodyController(_MessageTracker):
    """Instantaneous task hierarchy tracking the planned motion.

    Stance ticks solve the QP cascade, its contact forces held in the
    friction cone ``cone``, and command the torque block of its solution;
    planned intervals with fewer than two feet in contact use the flight PD;
    an infeasible dynamics stage, or a stage QP whose active set does not
    settle, re-issues the previous clamped torques with the degraded flag
    set.
    """

    def __init__(self, model: RobotModel, bounds: Bounds, cone: FrictionCone,
                 control_dt: float = 1.0 / 400.0):
        super().__init__(model, bounds, control_dt)
        self.cone = cone
        self._rows = {}

    def control(self, x: np.ndarray, t: float) -> ControlCommand:
        return self._tick(x, t, self._hierarchy)

    def _constraints(self, n_contacts: int) -> tuple[RowBounds, np.ndarray]:
        """The inequality rows and the seed of a stance cascade, built once
        per contact count (the model, the bounds and the cone are fixed)."""
        if n_contacts not in self._rows:
            self._rows[n_contacts] = (
                wbc_inequality_rows(self.model, self.bounds, self.cone,
                                    n_contacts),
                wbc_seed(self.model, self.bounds, n_contacts))
        return self._rows[n_contacts]

    def _fill(self, ref, i, j, ticks):
        """Fill interval ``i`` of ``ref`` through state ``j`` and, in a
        stance interval, prepare each state of ``ticks``: the contact
        dynamics there, solved once by whichever of its rollout step or its
        tick comes first, and its ``stance_reference``.  The dynamics solved
        on the way are kept."""
        frames = tuple(ref.msg.contacts[i])
        ticks = [k for k in ticks if len(frames) >= 2 and ref.terms[k] is None]
        if ref.states[j] is not None and not ticks:
            return
        states, sols = self._rollout(ref, i, j)
        terms = {}
        for k in ticks:
            x = states[k] if k in states else ref.states[k]
            sol = sols[k] if k in sols else ref.sols[k]
            if sol is None:
                sol = sols[k] = ct.contact_forward_dynamics(
                    self.model, *mod.split_state(self.model, x),
                    *_interval(ref.msg, i))
            terms[k] = stance_reference(self.model, x, sol, frames)
        _put(ref.states, states)
        _put(ref.sols, sols)
        _put(ref.terms, terms)

    def _hierarchy(self, ref, i, j, x):
        model, bounds, msg = self.model, self.bounds, ref.msg
        frames = tuple(msg.contacts[i])
        u_ff = np.asarray(msg.us_ff[i], float)
        if len(frames) < 2:
            q, v = mod.split_state(model, x)
            q_d, v_d = mod.split_state(model, ref.states[j])
            u = flight_pd(u_ff, q[3:], v[3:], q_d[3:], v_d[3:],
                          FLIGHT_KP, FLIGHT_KD, bounds.u_lb, bounds.u_ub)
            return u, "flight_pd", False
        try:
            tasks = stance_tasks(model, x, ref.terms[j], frames,
                                 np.asarray(msg.forces_ref[i], float))
            y = hqp_solve(tasks, *self._constraints(len(frames))).y
        except (Stage1Infeasible, MaxIterations):
            u = self._last.u if self._last is not None else np.zeros(model.nu)
            return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", True
        u = y[model.nv:model.nv + model.nu]
        return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", False
