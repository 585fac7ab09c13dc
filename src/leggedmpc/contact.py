"""Rigid-contact forward dynamics, impulse dynamics and their derivatives.

Contacts are planar points pinned to the ground; the constrained dynamics
solve the primal-dual system

    [ M  -J_C.T ] [ vdot   ]   [ S u - h ]
    [ J_C   0   ] [ lambda ] = [ -a_C    ]

with a_C = Jdot*v + psi the constraint-space bias and psi = BAUMGARTE_GAIN *
(frame velocity) the velocity-level Baumgarte (1972) stabilization, which
damps slip and leaves position drift alone.  A touchdown is an inelastic
impulse: the contact points come to rest, J v+ = 0.  The solve goes through
the contact-space inertia (Schur complement) Mhat = J M^-1 J.T.  A forward
solve runs one multibody pass (``dynamics.multibody``: kinematics, body
twists, bias accelerations, M and h) and one frame gather
(``dynamics.frame_motion``: the contact Jacobian, the frame velocities of
the Baumgarte term and the frame acceleration bias), and the solution keeps
the pass for its derivatives and the costs.  An impulse reads no
velocity-dependent term: it computes the kinematics, M and the contact
Jacobian alone (``dynamics.mass_matrix``, ``dynamics.frame_jacobian``), and
its solution keeps those.

The derivative routines differentiate the KKT conditions implicitly:
``dynamics.tangent_sweep`` gives the exact derivatives of the
inverse-dynamics and constraint residuals at fixed (vdot, lambda) in one
sweep over the tree, and one solve with the KKT matrix maps them onto the
state and control sensitivities of (vdot, lambda) together.

``predict`` is the one forward prediction: semi-implicit steps under a
constant torque and a fixed contact set, taken by the running nodes and the
MPC loop's delay prediction.  The tracking controllers' reference rollout
takes the same steps (``contact_forward_dynamics``, then
``model.semi_implicit_step``) one at a time, so that it can skip the solve
at a state whose dynamics it already keeps.

Every routine also takes a stack of states (leading axes on q, v and u, a
(B, nc) frame array in the ``ContactSet``) as one pass of array operations.
Each state keeps its own rank check, and a state's results do not depend on
the rest of the stack: alone, it gives the same bits.

The solves call numpy's LAPACK gufuncs directly (``_kernels.solve`` and
``_kernels.eigvalsh``), the kernels beneath ``np.linalg.solve`` and
``np.linalg.eigvalsh``: the same bits without the wrappers' dispatch.
scipy's LAPACK is not bit-equal to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import (Multibody, Tangents, frame_jacobian, frame_motion, mass_matrix,
                       multibody, tangent_sweep)
from .errors import DimensionMismatch, RankDeficientContacts
from .kinematics import Kinematics, _matvec, forward_kinematics
from .model import RobotModel, semi_implicit_step, split_state, state

COND_LIMIT = 1e12
# Baumgarte velocity gain 2*zeta*omega of the contact constraint, with
# critical damping zeta = 1 and omega = 20 rad/s
BAUMGARTE_GAIN = 40.0


@dataclass
class ContactSet:
    """The active point contacts, each held by the module's Baumgarte term:
    ``frames`` is a tuple, or a (B, nc) array that gives each of B stacked
    states its own frames."""

    frames: tuple[int, ...] | np.ndarray = ()

    def __post_init__(self):
        if not (isinstance(self.frames, np.ndarray) and self.frames.ndim == 2):
            self.frames = tuple(int(f) for f in self.frames)

    @property
    def nf(self) -> int:
        frames = self.frames
        return 2 * (len(frames) if type(frames) is tuple else frames.shape[-1])


@dataclass
class ContactSolution:
    """The solved dynamics; stacked states give fields with leading axes."""

    vdot: np.ndarray            # (nv,)
    forces: np.ndarray          # (nf,) stacked per frame (fx, fy)
    # the terms the derivatives and the costs read
    J: np.ndarray               # (nf, nv) contact Jacobian
    mb: Multibody


@dataclass
class ImpulseSolution:
    """The solved impulse, with the terms its derivatives and costs read."""

    v_plus: np.ndarray          # (nv,)
    impulses: np.ndarray        # (nf,)
    J: np.ndarray               # (nf, nv)
    kin: Kinematics
    M: np.ndarray               # (nv, nv)


@dataclass
class DynamicsDerivatives:
    dvdot_dx: np.ndarray        # (nv, 2nv)
    dvdot_du: np.ndarray        # (nv, nu)
    dforces_dx: np.ndarray      # (nf, 2nv)
    dforces_du: np.ndarray      # (nf, nu)


def actuation(model: RobotModel, u: np.ndarray) -> np.ndarray:
    """Map joint torques into generalized forces (base rows are zero)."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (model.nu,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected (..., {model.nu})")
    tau = np.zeros(u.shape[:-1] + (model.nv,))
    tau[..., 3:] = u
    return tau


def contact_jacobian_stack(model: RobotModel, q, frames) -> np.ndarray:
    """Stacked world point-velocity Jacobian (2*len(frames), nv) of contact
    frames (``dynamics.frame_jacobian``)."""
    return frame_jacobian(model, forward_kinematics(model, q), frames)[1]


def _kkt_forward(M, J, rhs, bias, what: str):
    """(x, lam) of [[M, -J.T], [J, 0]] [x; lam] = [rhs; -bias].

    One solve gives M^-1 [J.T | rhs]; the multipliers then come from the
    contact-space inertia Mhat = J M^-1 J.T, whose condition is checked
    for every stacked system; the ``rows`` of the RankDeficientContacts it
    raises mark the singular ones.
    """
    Minv = _kernels.solve(M, np.concatenate([J.swapaxes(-1, -2), rhs[..., None]], -1))
    Minv_Jt, x_free = Minv[..., :-1], Minv[..., -1]
    Mhat = J @ Minv_Jt
    # Mhat is symmetric positive semidefinite: its condition is the ratio of
    # its extreme eigenvalues, infinite when the smallest is not positive; a
    # system that is not finite counts as singular (and skips the eigensolver)
    finite = np.isfinite(Mhat).all((-2, -1))
    eig = (_kernels.eigvalsh(np.where(finite[..., None, None], Mhat, 1.0))
           if J.shape[-2] else np.ones((1, 1)))
    cond = eig[..., -1] / np.maximum(eig[..., 0], 1e-300)
    singular = ~(finite & (cond <= COND_LIMIT))
    if np.count_nonzero(singular):
        raise RankDeficientContacts(
            f"{what} inertia condition {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}",
            rows=singular)
    lam = -_kernels.solve(Mhat, (bias + _matvec(J, x_free))[..., None])[..., 0]
    return x_free + _matvec(Minv_Jt, lam), lam


def contact_forward_dynamics(model: RobotModel, q, v, u, contacts: ContactSet) -> ContactSolution:
    """Constrained acceleration and contact forces for torque command u.

    Stacked states (leading axes on q, v and u, with (B, nc) frames in
    ``contacts``) are solved in one pass.
    """
    mb = multibody(model, q, v)
    tau_b = actuation(model, u) - mb.h
    if not contacts.nf:          # in flight: the unconstrained dynamics
        vdot = _kernels.solve(mb.M, tau_b[..., None])[..., 0]
        return ContactSolution(vdot=vdot, forces=np.zeros(vdot.shape[:-1] + (0,)),
                               J=np.zeros(mb.M.shape[:-2] + (0, model.nv)), mb=mb)
    _, J, vel, bias = frame_motion(model, mb, contacts.frames)
    a_C = bias + BAUMGARTE_GAIN * vel.reshape(vel.shape[:-2] + (-1,))
    vdot, lam = _kkt_forward(mb.M, J, tau_b, a_C, "contact-space")
    return ContactSolution(vdot=vdot, forces=lam, J=J, mb=mb)


def predict(model: RobotModel, x, u, contacts: ContactSet, h, n: int):
    """``n`` semi-implicit steps of length ``h`` from x, u and contacts fixed.

    Returns each step's ``ContactSolution`` and the state it reaches, as two
    lists of ``n``.  Stacked states (leading axes on x, u and h, with (B, nc)
    frames in ``contacts``) run as one pass.  The steps carry (q, v), not
    the packed state: ``state`` wraps the base angle, and ``se2.wrap_angle``
    is not idempotent (it moves some negative angles already in (-pi, pi]
    by an ulp), so ``split_state(state(q, v))`` need not be (q, v) bit for
    bit.  It is for the states returned here: their angles come out of
    ``integrate_q``, already wrapped, and ``wrap_angle`` moves no angle it
    produced.  So ``split_state(xs[k])`` is, bit for bit, the (q, v) that
    ``sols[k + 1]`` was solved at.
    """
    q, v = split_state(model, x)
    h = np.asarray(h, dtype=float)[..., None]
    sols, xs = [], []
    for _ in range(n):
        sol = contact_forward_dynamics(model, q, v, u, contacts)
        q, v = semi_implicit_step(model, q, v, sol.vdot, h)
        sols.append(sol)
        xs.append(state(model, q, v))
    return sols, xs


def impulse_dynamics(model: RobotModel, q, v_minus,
                     contacts: ContactSet) -> ImpulseSolution:
    """Instantaneous inelastic velocity change when the given contacts gain closure.

    The contact points come to rest, J v+ = 0; the configuration is
    unchanged.  It reads no velocity-dependent term, so it takes the
    kinematics, M and the contact Jacobian alone.  Stacked states run as one
    pass, as in ``contact_forward_dynamics``.
    """
    v_minus = model.check_v(v_minus)
    kin = forward_kinematics(model, q)
    M = mass_matrix(model, kin)
    J = frame_jacobian(model, kin, contacts.frames)[1]
    # the velocity jump dv = v+ - v- solves M dv = J.T imp, J dv = -J v-
    dv, imp = _kkt_forward(M, J, np.zeros(v_minus.shape), _matvec(J, v_minus),
                           "impulse contact-space")
    return ImpulseSolution(v_plus=v_minus + dv, impulses=imp, J=J, kin=kin, M=M)


# ------------------------------------------------------------------ derivatives

def _kkt_solve(M, J, rhs):
    """Solve [[M, -J.T], [J, 0]] X = rhs for stacked KKT systems and RHS blocks.

    Returns the top (nv) and bottom (nf) rows of X.
    """
    nv = M.shape[-1]
    nf = J.shape[-2]
    K = np.zeros(M.shape[:-2] + (nv + nf, nv + nf))
    K[..., :nv, :nv] = M
    K[..., :nv, nv:] = -J.swapaxes(-1, -2)
    K[..., nv:, :nv] = J
    sol = _kernels.solve(K, rhs)
    return sol[..., :nv, :], sol[..., nv:, :]


def contact_dynamics_derivatives(model: RobotModel, contacts: ContactSet,
                                 sol: ContactSolution,
                                 tan: Tangents) -> DynamicsDerivatives:
    """First-order sensitivities of (vdot, lambda) w.r.t. state tangent and u.

    The residuals F1 = rnea(q, v, vdot, lambda) - S u and F2 = J vdot +
    Jdot v + psi vanish at the solution ``sol``; ``tan``, the tangent sweep
    at (v, vdot) under the solved forces, differentiates both at fixed
    (vdot, lambda) (its first frames must be the contact frames), and one
    solve with the KKT matrix maps them, stacked with the actuation map S,
    onto the state and control sensitivities.  Stacked states run as one
    pass.
    """
    nv, nf = model.nv, contacts.nf
    lead = sol.vdot.shape[:-1]
    # psi = BAUMGARTE_GAIN * (frame velocity)
    F2_x = tan.dacc[..., :nf, :] + BAUMGARTE_GAIN * tan.dvel[..., :nf, :]
    rhs = np.zeros(lead + (nv + nf, 2 * nv + model.nu))
    rhs[..., :nv, :2 * nv] = -tan.dtau
    rhs[..., :nv, 2 * nv:] = model.S
    rhs[..., nv:, :2 * nv] = -F2_x
    top, bot = _kkt_solve(sol.mb.M, sol.J, rhs)
    return DynamicsDerivatives(dvdot_dx=top[..., :2 * nv], dvdot_du=top[..., 2 * nv:],
                               dforces_dx=bot[..., :2 * nv], dforces_du=bot[..., 2 * nv:])


def impulse_dynamics_derivatives(model: RobotModel, v_minus, contacts: ContactSet,
                                 sol: ImpulseSolution) -> DynamicsDerivatives:
    """Sensitivities of (v+, impulses) at the solution ``sol`` from
    ``v_minus``; there is no control channel.

    The residuals are the gravity-free momentum balance F1 = M (v+ - v-) -
    J.T impulses and the closure F2 = J v+.  Stacked states run as one pass.
    """
    v_minus = model.check_v(v_minus)
    nv, nf = model.nv, contacts.nf
    lead = v_minus.shape[:-1]
    frames = contacts.frames
    lam = sol.impulses.reshape(lead + (-1, 2))
    rhs = np.empty(lead + (nv + nf, 2 * nv))
    # configuration block: F1 is rnea(q, 0, v+ - v-, impulses) without
    # gravity; F2 is the frame velocity under v+
    rhs[..., :nv, :nv] = -tangent_sweep(model, sol.kin, np.zeros(v_minus.shape),
                                        sol.v_plus - v_minus, (frames, lam),
                                        gravity=False).dtau[..., :nv]
    rhs[..., nv:, :nv] = -tangent_sweep(model, sol.kin, sol.v_plus,
                                        frames=frames).dvel[..., :nv]
    # velocity block: dF1/dv- = -M, dF2/dv- = 0
    rhs[..., :nv, nv:] = sol.M
    rhs[..., nv:, nv:] = 0.0
    dvp_dx, dlam_dx = _kkt_solve(sol.M, sol.J, rhs)
    return DynamicsDerivatives(dvdot_dx=dvp_dx, dvdot_du=np.zeros(lead + (nv, 0)),
                               dforces_dx=dlam_dx, dforces_du=np.zeros(lead + (nf, 0)))
