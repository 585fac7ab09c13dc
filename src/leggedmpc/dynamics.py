"""Inverse dynamics, its exact tangent sweep and the mass matrix.

Sign conventions: ``rnea(model, q, v, a, forces)`` returns the generalized
force tau with

    M(q) a + h(q, v) - J_C(q).T @ lambda = tau

so gravity enters as a bias (``rnea(q, 0, 0)`` is the force needed to hold
the robot statically) and contact forces ``lambda`` are world-frame forces
applied *on* the robot at contact frames.

``rnea`` and ``mass_matrix`` work on the body Jacobians B_i that
``forward_kinematics`` returns (Featherstone, *Rigid Body Dynamics
Algorithms*, 2008): body twists are tw = B v, body accelerations come from
one pass per tree depth, tau = sum_i B_i.T f_i is one product, and the
joint-space inertia is M = sum_i B_i.T I_i B_i.  ``tangent_sweep``
differentiates the same recursion body by body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se2
from .kinematics import (
    Kinematics,
    bias_accelerations,
    crf,
    crm,
    forward_kinematics,
)
from .model import RobotModel


def rnea(model: RobotModel, q: np.ndarray, v: np.ndarray, a: np.ndarray,
         contact_forces: dict[int, np.ndarray] | None = None,
         kin: Kinematics | None = None, tw: np.ndarray | None = None,
         bias: np.ndarray | None = None) -> np.ndarray:
    """Generalized force tau = M(q) a + h(q, v) - J_C.T lambda.

    ``contact_forces`` maps contact-frame index -> world-frame force (2,).
    Body accelerations are B a plus the velocity bias of
    ``bias_accelerations`` plus gravity, folded in as a fictitious upward
    world acceleration; each body's net force f_i then reaches tau as
    B_i.T f_i.  ``tw`` (body twists under v) and ``bias`` (their
    ``bias_accelerations``) are reused when the caller has them.
    """
    q = model.check_q(q)
    v = model.check_v(v)
    a = model.check_v(a)
    if kin is None:
        kin = forward_kinematics(model, q)
    B, I = kin.B, model.spatial_inertias
    if tw is None:
        tw = B @ v
    if bias is None:
        bias = bias_accelerations(model, kin, v, tw)
    ac = B @ a + bias
    # world gravity seen in each body frame: R_i.T (-g)
    ac[:, :2] -= model.gravity @ kin.R
    mom = (I @ tw[:, :, None])[..., 0]
    # f = I ac + crf(tw) I tw
    f = (I @ ac[:, :, None])[..., 0]
    f[:, 0] -= tw[:, 2] * mom[:, 1]
    f[:, 1] += tw[:, 2] * mom[:, 0]
    f[:, 2] += tw[:, 0] * mom[:, 1] - tw[:, 1] * mom[:, 0]
    if contact_forces:
        frames = list(contact_forces)
        b = model.contact_bodies[frames]
        r = model.contact_offsets[frames]
        lam = np.array([contact_forces[k] for k in frames], dtype=float)
        fl = (lam[:, None, :] @ kin.R[b])[:, 0]      # R_b.T lam, body frame
        w = np.column_stack([fl, r[:, 0] * fl[:, 1] - r[:, 1] * fl[:, 0]])
        np.subtract.at(f, b, w)
    tau = f.ravel() @ B.reshape(-1, model.nv)
    tau[3:] += model.reflected_inertia * a[3:]
    return tau


@dataclass
class Tangents:
    """Exact first derivatives along the state tangent (dq, dv), 2*nv columns.

    ``dtau`` differentiates ``rnea(q, v, a, forces)`` at fixed (a, forces);
    ``dvel`` and ``dacc`` stack, per frame, the world velocity and the world
    classical acceleration (J a + Jdot v) of the requested contact frames.
    The v block of ``dvel`` is the frame Jacobian itself.
    """

    dtau: np.ndarray | None     # (nv, 2nv), None without ``a``
    dvel: np.ndarray            # (2*len(frames), 2nv)
    dacc: np.ndarray | None     # (2*len(frames), 2nv), None without ``a``


def tangent_sweep(model: RobotModel, kin: Kinematics, v: np.ndarray,
                  a: np.ndarray | None = None,
                  contact_forces: dict[int, np.ndarray] | None = None,
                  frames=(), gravity: bool = True) -> Tangents:
    """Forward-mode derivatives of RNEA and of frame motion, in one tree sweep.

    Configuration perturbations act on the right, as in ``integrate_q``, so a
    joint's transform moves by dX_i = -crm(S_i dq_i) X_i (S_i = I for the
    floating root).  The sweep carries the (3, 2nv) tangents of the body
    twist, the gravity-free body acceleration under ``a`` and the folded-in
    gravity, and the tangent of each body's world angle; the backward pass
    differentiates the force recursion of ``rnea`` term by term
    (Carpentier & Mansard, RSS 2018).  Without ``a`` only the twists and
    ``dvel`` are computed.  ``gravity=False`` drops gravity from ``dtau``.
    """
    nv, nb = model.nv, model.nbodies
    n = 2 * nv
    dyn = a is not None
    tw = np.empty((nb, 3))
    dtw = np.zeros((nb, 3, n))
    dth = np.zeros((nb, nv))          # world angle tangent, q block only
    tw[0] = v[:3]
    dtw[0, :, nv:nv + 3] = np.eye(3)
    dth[0, 2] = 1.0
    if dyn:
        ac = np.empty((nb, 3))        # gravity-free body accelerations
        dac = np.zeros((nb, 3, n))
        gr = np.empty((nb, 3))        # gravity as an upward body acceleration
        dgr = np.zeros((nb, 3, n))
        g_world = (np.array([-model.gravity[0], -model.gravity[1], 0.0])
                   if gravity else np.zeros(3))
        ac[0] = a[:3]
        gr[0] = kin.X[0] @ g_world
        dgr[0, :, :3] = crm(gr[0])
    for i in range(1, nb):
        p = model.joints[i].parent
        X = kin.X[i]
        cq, cv = 2 + i, nv + 2 + i
        vi = v[cq]
        u = X @ tw[p]
        tw[i] = u
        tw[i, 2] += vi
        dtw[i] = X @ dtw[p]
        # -crm(S dq) X tw_p = crm(X tw_p) S dq
        dtw[i, 0, cq] += u[1]
        dtw[i, 1, cq] -= u[0]
        dtw[i, 2, cv] += 1.0
        dth[i] = dth[p]
        dth[i, cq] += 1.0
        if dyn:
            gi = X @ gr[p]
            gr[i] = gi
            dgr[i] = X @ dgr[p]
            dgr[i, 0, cq] += gi[1]
            dgr[i, 1, cq] -= gi[0]
            y = X @ ac[p]
            # crm(tw) S v_i = v_i (tw_y, -tw_x, 0)
            ac[i] = y + np.array([vi * tw[i, 1], -vi * tw[i, 0], a[cq]])
            dac[i] = X @ dac[p]
            dac[i, 0, cq] += y[1]
            dac[i, 1, cq] -= y[0]
            dac[i, 0] += vi * dtw[i, 1]
            dac[i, 1] -= vi * dtw[i, 0]
            dac[i, 0, cv] += tw[i, 1]
            dac[i, 1, cv] -= tw[i, 0]

    dvel = np.empty((2 * len(frames), n))
    dacc = np.empty((2 * len(frames), n)) if dyn else None
    for k, frame in enumerate(frames):
        c = model.contact_frames[frame]
        b = c.body
        r = np.asarray(c.offset, dtype=float)
        pr = np.array([-r[1], r[0]])
        R = se2.rot(kin.pose[b, 2])
        t, dt_ = tw[b], dtw[b]
        vel = t[:2] + t[2] * pr
        dvl = dt_[:2] + np.outer(pr, dt_[2])
        dvl[:, :nv] += np.outer([-vel[1], vel[0]], dth[b])
        dvel[2 * k: 2 * k + 2] = R @ dvl
        if dyn:
            A, dA = ac[b], dac[b]
            acc = A[:2] + A[2] * pr + t[2] * np.array([-t[1], t[0]]) - t[2] ** 2 * r
            dal = (dA[:2] + np.outer(pr, dA[2]) + np.outer([-t[1], t[0]], dt_[2])
                   + t[2] * np.stack([-dt_[1], dt_[0]])
                   - 2.0 * t[2] * np.outer(r, dt_[2]))
            dal[:, :nv] += np.outer([-acc[1], acc[0]], dth[b])
            dacc[2 * k: 2 * k + 2] = R @ dal
    if not dyn:
        return Tangents(dtau=None, dvel=dvel, dacc=None)

    I = model.spatial_inertias
    f = np.empty((nb, 3))
    df = np.empty((nb, 3, n))
    for i in range(nb):
        h = I[i] @ tw[i]
        f[i] = I[i] @ (ac[i] + gr[i]) + crf(tw[i]) @ h
        # d(crf(tw) h) = crf(dtw) h + crf(tw) I dtw, with crf(x) h = Hm x
        Hm = np.array([[0.0, 0.0, -h[1]], [0.0, 0.0, h[0]], [h[1], -h[0], 0.0]])
        df[i] = I[i] @ (dac[i] + dgr[i]) + (Hm + crf(tw[i]) @ I[i]) @ dtw[i]
    if contact_forces:
        for frame, lam in contact_forces.items():
            c = model.contact_frames[frame]
            b = c.body
            fl = se2.rot(kin.pose[b, 2]).T @ np.asarray(lam, dtype=float)
            rx, ry = c.offset
            f[b, :2] -= fl
            f[b, 2] -= rx * fl[1] - ry * fl[0]
            dfl = np.outer([fl[1], -fl[0]], dth[b])
            df[b, :2, :nv] -= dfl
            df[b, 2, :nv] -= rx * dfl[1] - ry * dfl[0]

    dtau = np.empty((nv, n))
    for i in range(nb - 1, 0, -1):
        p = model.joints[i].parent
        X = kin.X[i]
        dtau[2 + i] = df[i, 2]
        # d(X.T f) = X.T df + X.T crf(S dq) f
        df[i, 0, 2 + i] -= f[i, 1]
        df[i, 1, 2 + i] += f[i, 0]
        f[p] += X.T @ f[i]
        df[p] += X.T @ df[i]
    dtau[:3] = df[0]
    return Tangents(dtau=dtau, dvel=dvel, dacc=dacc)


def nonlinear_effects(model: RobotModel, q: np.ndarray, v: np.ndarray,
                      kin: Kinematics | None = None, tw: np.ndarray | None = None,
                      bias: np.ndarray | None = None) -> np.ndarray:
    """Coriolis, centrifugal and gravity bias h(q, v) = rnea(q, v, 0)."""
    return rnea(model, q, v, np.zeros(model.nv), kin=kin, tw=tw, bias=bias)


def gravity_torque(model: RobotModel, q: np.ndarray,
                   kin: Kinematics | None = None) -> np.ndarray:
    """Static bias g(q) = rnea(q, 0, 0)."""
    z = np.zeros(model.nv)
    return rnea(model, q, z, z, kin=kin)


def mass_matrix(model: RobotModel, q: np.ndarray,
                kin: Kinematics | None = None) -> np.ndarray:
    """Joint-space inertia M = sum_i B_i.T I_i B_i plus the reflected inertia.

    Symmetric positive definite.  The sum is one product of the stacked body
    Jacobians with the inertia-weighted ones; the reflected inertia adds to
    the joint diagonal.
    """
    q = model.check_q(q)
    if kin is None:
        kin = forward_kinematics(model, q)
    nv = model.nv
    B = kin.B
    M = B.reshape(-1, nv).T @ (model.spatial_inertias @ B).reshape(-1, nv)
    joints = np.arange(3, nv)
    M[joints, joints] += model.reflected_inertia
    return M
