"""Rigid-contact forward dynamics, impulse dynamics and their derivatives.

Contacts are planar points pinned to the ground; the constrained dynamics
solve the primal-dual system

    [ M  -J_C.T ] [ vdot   ]   [ S u - h ]
    [ J_C   0   ] [ lambda ] = [ -a_C    ]

with a_C = Jdot*v + psi the constraint-space bias and psi a Baumgarte
stabilization term 2*zeta*omega*(frame velocity) + omega^2*(position drift).
The solve goes through the contact-space inertia (Schur complement)
Mhat = J M^-1 J.T.  One call runs forward kinematics once, and the body
twists and their bias accelerations once: M, h, the contact Jacobian
(stacked from the body Jacobians for all frames at once), the frame
acceleration bias and the Baumgarte velocities all read that
``Kinematics`` and those arrays, and the solution keeps the ``Kinematics``
for its derivatives.

The derivative routines differentiate the KKT conditions implicitly:
``dynamics.tangent_sweep`` gives the exact derivatives of the
inverse-dynamics and constraint residuals at fixed (vdot, lambda) in one
sweep over the tree, and the KKT matrix maps them onto the sensitivities of
(vdot, lambda).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import mass_matrix, nonlinear_effects, tangent_sweep
from .errors import DimensionMismatch, RankDeficientContacts
from .kinematics import (
    Kinematics,
    bias_accelerations,
    body_twists,
    forward_kinematics,
    frame_acceleration_bias,
    frame_positions,
    frame_velocities,
)
from .model import RobotModel

COND_LIMIT = 1e12


@dataclass
class ContactSet:
    """Active point contacts plus their stabilization parameters.

    ``anchors`` maps frame index -> world-frame anchor point; frames without
    an anchor get velocity-only stabilization (no position drift term).
    """

    frames: tuple[int, ...] = ()
    baumgarte_freq: float = 20.0
    baumgarte_damping: float = 1.0
    anchors: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.frames = tuple(int(f) for f in self.frames)

    @property
    def nf(self) -> int:
        return 2 * len(self.frames)


@dataclass
class ContactSolution:
    vdot: np.ndarray            # (nv,)
    forces: np.ndarray          # (nf,) stacked per frame (fx, fy)
    kkt_residual: float
    # cached terms reused by the derivative routine
    M: np.ndarray = None
    J: np.ndarray = None
    a_C: np.ndarray = None
    tau_b: np.ndarray = None
    kin: Kinematics = None

    def frame_force(self, k: int) -> np.ndarray:
        return self.forces[2 * k: 2 * k + 2]


@dataclass
class ImpulseSolution:
    v_plus: np.ndarray          # (nv,)
    impulses: np.ndarray        # (nf,)
    kkt_residual: float
    M: np.ndarray = None
    J: np.ndarray = None
    kin: Kinematics = None


@dataclass
class DynamicsDerivatives:
    dvdot_dx: np.ndarray        # (nv, 2nv)
    dvdot_du: np.ndarray        # (nv, nu)
    dforces_dx: np.ndarray      # (nf, 2nv)
    dforces_du: np.ndarray      # (nf, nu)


def actuation(model: RobotModel, u: np.ndarray) -> np.ndarray:
    """Map joint torques into generalized forces (base rows are zero)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (model.nu,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected ({model.nu},)")
    tau = np.zeros(model.nv)
    tau[3:] = u
    return tau


def _baumgarte(model: RobotModel, q, v, contacts: ContactSet, kin=None,
               tw=None) -> np.ndarray:
    """Stabilization bias psi stacked per frame (``tw``: body twists under v)."""
    frames = contacts.frames
    w = contacts.baumgarte_freq
    z = contacts.baumgarte_damping
    if kin is None:
        kin = forward_kinematics(model, q)
    vel = frame_velocities(model, q, v, frames, kin=kin, tw=tw).ravel()
    psi = 2.0 * z * w * vel
    if contacts.anchors:
        pos = frame_positions(model, kin, frames)
        for k, f in enumerate(frames):
            if f in contacts.anchors:
                drift = pos[k] - np.asarray(contacts.anchors[f], dtype=float)
                psi[2 * k: 2 * k + 2] += w * w * drift
    return psi


def contact_jacobian_stack(model: RobotModel, q, frames, kin=None) -> np.ndarray:
    """Stacked world point-velocity Jacobian (2*len(frames), nv) of contact frames.

    Frame k on body b at offset r moves with R_b (B_b[:2] + perp(r) B_b[2]),
    evaluated for all frames in one batch.
    """
    if kin is None:
        kin = forward_kinematics(model, q)
    idx = np.asarray(frames, dtype=int).reshape(-1)
    b, r = model.contact_bodies[idx], model.contact_offsets[idx]
    Bb = kin.B[b]
    local = Bb[:, :2] + np.stack([-r[:, 1], r[:, 0]], -1)[:, :, None] * Bb[:, 2:]
    return (kin.R[b] @ local).reshape(-1, model.nv)


def contact_forward_dynamics(model: RobotModel, q, v, u, contacts: ContactSet) -> ContactSolution:
    """Constrained acceleration and contact forces for torque command u."""
    q = model.check_q(q)
    v = model.check_v(v)
    kin = forward_kinematics(model, q)
    M = mass_matrix(model, q, kin=kin)
    tw = body_twists(model, kin, v)
    bias = bias_accelerations(model, kin, v, tw)
    h = nonlinear_effects(model, q, v, kin=kin, tw=tw, bias=bias)
    tau_b = actuation(model, u) - h

    if not contacts.frames:
        vdot = np.linalg.solve(M, tau_b)
        res = float(np.abs(M @ vdot - tau_b).max())
        return ContactSolution(vdot=vdot, forces=np.zeros(0), kkt_residual=res,
                               M=M, J=np.zeros((0, model.nv)), a_C=np.zeros(0),
                               tau_b=tau_b, kin=kin)

    J = contact_jacobian_stack(model, q, contacts.frames, kin=kin)
    a_C = (frame_acceleration_bias(model, q, v, contacts.frames, kin=kin, tw=tw,
                                   bias=bias)
           + _baumgarte(model, q, v, contacts, kin=kin, tw=tw))

    Minv_Jt = np.linalg.solve(M, J.T)
    Mhat = J @ Minv_Jt
    cond = np.linalg.cond(Mhat)
    if cond > COND_LIMIT:
        raise RankDeficientContacts(
            f"contact-space inertia condition {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    lam = -np.linalg.solve(Mhat, a_C + Minv_Jt.T @ tau_b)
    vdot = np.linalg.solve(M, tau_b + J.T @ lam)
    res = max(
        float(np.abs(M @ vdot - J.T @ lam - tau_b).max()),
        float(np.abs(J @ vdot + a_C).max()),
    )
    return ContactSolution(vdot=vdot, forces=lam, kkt_residual=res,
                           M=M, J=J, a_C=a_C, tau_b=tau_b, kin=kin)


def impulse_dynamics(model: RobotModel, q, v_minus, contacts: ContactSet,
                     restitution: float = 0.0) -> ImpulseSolution:
    """Instantaneous velocity change when the given contacts gain closure.

    Post-impact contact-point velocity satisfies J v+ = -e * J v-; the
    configuration is unchanged.
    """
    q = model.check_q(q)
    v_minus = model.check_v(v_minus)
    if not (0.0 <= restitution <= 1.0):
        raise ValueError("restitution must lie in [0, 1]")
    kin = forward_kinematics(model, q)
    M = mass_matrix(model, q, kin=kin)
    if not contacts.frames:
        return ImpulseSolution(v_plus=v_minus.copy(), impulses=np.zeros(0),
                               kkt_residual=0.0, M=M, J=np.zeros((0, model.nv)),
                               kin=kin)
    J = contact_jacobian_stack(model, q, contacts.frames, kin=kin)
    Minv_Jt = np.linalg.solve(M, J.T)
    Mhat = J @ Minv_Jt
    if np.linalg.cond(Mhat) > COND_LIMIT:
        raise RankDeficientContacts("impulse contact set is rank deficient")
    Jv = J @ v_minus
    imp = -np.linalg.solve(Mhat, (1.0 + restitution) * Jv)
    v_plus = v_minus + Minv_Jt @ imp
    res = max(
        float(np.abs(M @ (v_plus - v_minus) - J.T @ imp).max()),
        float(np.abs(J @ v_plus + restitution * Jv).max()),
    )
    return ImpulseSolution(v_plus=v_plus, impulses=imp, kkt_residual=res, M=M, J=J,
                           kin=kin)


# ------------------------------------------------------------------ derivatives

def _kkt_inverse_apply(M, J, rhs_top, rhs_bot):
    """Solve [[M, -J.T], [J, 0]] [a; b] = [rhs_top; rhs_bot] for stacked RHS."""
    nv = M.shape[0]
    nf = J.shape[0]
    K = np.zeros((nv + nf, nv + nf))
    K[:nv, :nv] = M
    K[:nv, nv:] = -J.T
    K[nv:, :nv] = J
    sol = np.linalg.solve(K, np.vstack([rhs_top, rhs_bot]))
    return sol[:nv], sol[nv:]


def contact_dynamics_derivatives(model: RobotModel, q, v, u, contacts: ContactSet,
                                 sol: ContactSolution | None = None) -> DynamicsDerivatives:
    """First-order sensitivities of (vdot, lambda) w.r.t. state tangent and u.

    The residuals F1 = rnea(q, v, vdot, lambda) - S u and F2 = J vdot +
    Jdot v + psi vanish at the solution; one tangent sweep differentiates
    both at fixed (vdot, lambda), and the KKT matrix maps them onto the
    sensitivities.
    """
    q = model.check_q(q)
    v = model.check_v(v)
    if sol is None:
        sol = contact_forward_dynamics(model, q, v, u, contacts)
    nv, nu, nf = model.nv, model.nu, contacts.nf
    frames = contacts.frames
    lam_map = {f: sol.frame_force(k) for k, f in enumerate(frames)}
    tan = tangent_sweep(model, sol.kin, v, sol.vdot, lam_map, frames)
    F1_x = tan.dtau

    if nf == 0:
        Minv = np.linalg.inv(sol.M)
        return DynamicsDerivatives(
            dvdot_dx=-Minv @ F1_x,
            dvdot_du=Minv @ model.S,
            dforces_dx=np.zeros((0, 2 * nv)),
            dforces_du=np.zeros((0, nu)),
        )

    # psi = 2 z w (frame velocity) + w^2 (anchored position drift)
    w, z = contacts.baumgarte_freq, contacts.baumgarte_damping
    F2_x = tan.dacc + 2.0 * z * w * tan.dvel
    for k, f in enumerate(frames):
        if f in contacts.anchors:
            F2_x[2 * k: 2 * k + 2, :nv] += w * w * sol.J[2 * k: 2 * k + 2]

    dvdot_dx, dlam_dx = _kkt_inverse_apply(sol.M, sol.J, -F1_x, -F2_x)
    dvdot_du, dlam_du = _kkt_inverse_apply(sol.M, sol.J, model.S,
                                           np.zeros((nf, nu)))
    return DynamicsDerivatives(dvdot_dx=dvdot_dx, dvdot_du=dvdot_du,
                               dforces_dx=dlam_dx, dforces_du=dlam_du)


def impulse_dynamics_derivatives(model: RobotModel, q, v_minus, contacts: ContactSet,
                                 restitution: float = 0.0,
                                 sol: ImpulseSolution | None = None) -> DynamicsDerivatives:
    """Sensitivities of (v+, impulses); there is no control channel.

    The residuals are the gravity-free momentum balance F1 = M (v+ - v-) -
    J.T impulses and the closure F2 = J (v+ + e v-).
    """
    q = model.check_q(q)
    v_minus = model.check_v(v_minus)
    if sol is None:
        sol = impulse_dynamics(model, q, v_minus, contacts, restitution)
    nv, nf = model.nv, contacts.nf
    frames = contacts.frames
    lam_map = {f: sol.impulses[2 * k: 2 * k + 2] for k, f in enumerate(frames)}
    zero = np.zeros(nv)
    F1_x = np.empty((nv, 2 * nv))
    F2_x = np.empty((nf, 2 * nv))
    # configuration block: F1 is rnea(q, 0, v+ - v-, impulses) without
    # gravity; F2 is the frame velocity under v+ + e v-
    F1_x[:, :nv] = tangent_sweep(model, sol.kin, zero, sol.v_plus - v_minus,
                                 lam_map, gravity=False).dtau[:, :nv]
    F2_x[:, :nv] = tangent_sweep(model, sol.kin, sol.v_plus + restitution * v_minus,
                                 frames=frames).dvel[:, :nv]
    # velocity block: dF1/dv- = -M, dF2/dv- = e*J
    F1_x[:, nv:] = -sol.M
    F2_x[:, nv:] = restitution * sol.J

    dvp_dx, dlam_dx = _kkt_inverse_apply(sol.M, sol.J, -F1_x, -F2_x)
    return DynamicsDerivatives(dvdot_dx=dvp_dx, dvdot_du=np.zeros((nv, 0)),
                               dforces_dx=dlam_dx, dforces_du=np.zeros((nf, 0)))
