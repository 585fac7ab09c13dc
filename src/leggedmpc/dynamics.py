"""The multibody pass, the frame gather, inverse dynamics and its exact tangent sweep.

Sign conventions: ``rnea(model, q, v, a, forces)`` returns the generalized
force tau with

    M(q) a + h(q, v) - J_C(q).T @ lambda = tau

so gravity enters as a bias (``rnea(q, 0, 0)`` is the force needed to hold
the robot statically) and contact forces ``lambda`` are world-frame forces
applied *on* the robot at contact frames.

Everything works on the body Jacobians B_i that ``forward_kinematics``
returns (Featherstone, *Rigid Body Dynamics Algorithms*, 2008): body twists
are tw = B v, body accelerations come from one pass per tree depth, tau =
sum_i B_i.T f_i is one product, and the joint-space inertia is M = sum_i
B_i.T I_i B_i.  ``multibody`` is the one pass per state: kinematics,
twists, bias accelerations, M and h (as Pinocchio's ``computeAllTerms``).
``frame_motion`` is the one gather of contact frames from a pass: their
positions, Jacobian, velocities and acceleration bias.  ``tangent_sweep``
differentiates the same recursion, one tree depth at a time too.  Every
function takes stacked states (leading axes on q, v, a and the
``Kinematics``) as one pass; alone, a state runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import (
    Kinematics,
    _frames,
    _matvec,
    _perp,
    bias_accelerations,
    forward_kinematics,
)
from .model import RobotModel

_MOTIONS = np.arange(3)


def _subtract_contact_forces(model, kin, f, contact_forces, dth=None, df=None):
    """Subtract world contact forces, as body wrenches, from body forces ``f``.

    ``contact_forces`` is a pair of frame (..., k) and world force (..., k, 2)
    arrays.  With ``dth`` (nb, nv), the body world-angle tangents, the
    wrenches' tangent is subtracted from ``df``.
    """
    frames, lam = contact_forces
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0:
        return
    rows, r = _frames(model, kin, frames)
    fl = (lam[..., None, :] @ kin.R[rows])[..., 0, :]      # R_b.T lam, body frame
    np.subtract.at(f, rows, np.concatenate(
        [fl, r[..., :1] * fl[..., 1:] - r[..., 1:] * fl[..., :1]], -1))
    if df is not None:
        nv = model.nv
        d = np.zeros(r.shape[:-1] + (3, 2 * nv))
        d[..., :2, :nv] = -_perp(fl)[..., None] * dth[rows][..., None, :]
        d[..., 2, :nv] = r[..., :1] * d[..., 1, :nv] - r[..., 1:] * d[..., 0, :nv]
        np.subtract.at(df, rows, d)


def _rnea(model, kin, tw, bias, a, contact_forces=None):
    """``rnea`` on a kinematics pass, its body twists ``tw`` and their ``bias``.

    Body accelerations are B a plus the velocity bias plus gravity, folded
    in as a fictitious upward world acceleration; each body's net force f_i
    then reaches tau as B_i.T f_i.
    """
    B, I = kin.B, model.spatial_inertias
    ac = _matvec(B, a[..., None, :]) + bias
    # world gravity seen in each body frame: R_i.T (-g)
    ac[..., :2] -= model.gravity @ kin.R
    mom = _matvec(I, tw)
    # f = I ac + crf(tw) I tw
    f = _matvec(I, ac)
    f[..., 0] -= tw[..., 2] * mom[..., 1]
    f[..., 1] += tw[..., 2] * mom[..., 0]
    f[..., 2] += tw[..., 0] * mom[..., 1] - tw[..., 1] * mom[..., 0]
    if contact_forces is not None:
        _subtract_contact_forces(model, kin, f, contact_forces)
    lead = B.shape[:-3]
    tau = (f.reshape(lead + (1, -1)) @ B.reshape(lead + (-1, model.nv)))[..., 0, :]
    return tau


def rnea(model: RobotModel, q: np.ndarray, v: np.ndarray, a: np.ndarray,
         contact_forces=None) -> np.ndarray:
    """Generalized force tau = M(q) a + h(q, v) - J_C.T lambda.

    ``contact_forces`` pairs contact frames with their world-frame forces
    (see ``_subtract_contact_forces``).  Stacked states (leading axes on q,
    v, a) run as one pass.
    """
    q = model.check_q(q)
    v = model.check_v(v)
    a = model.check_v(a)
    kin = forward_kinematics(model, q)
    return _rnea(model, kin, *bias_accelerations(model, kin, v), a, contact_forces)


def _gravity(model, kin):
    """Static bias g(q) = rnea(q, 0, 0) on the kinematics pass at q."""
    z = np.zeros(kin.pose.shape[:-2] + (model.nv,))
    return _rnea(model, kin, *bias_accelerations(model, kin, z), z)


def gravity_torque(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Static bias g(q) = rnea(q, 0, 0)."""
    return _gravity(model, forward_kinematics(model, model.check_q(q)))


@dataclass
class Multibody:
    """The rigid-body terms at one state (q, v), from ``multibody``.

    Stacked states give the same fields with leading axes.
    """

    kin: Kinematics
    tw: np.ndarray        # (nb, 3) body twists B v
    bias: np.ndarray      # (nb, 3) body accelerations at zero vdot, no gravity
    M: np.ndarray         # (nv, nv) joint-space inertia
    h: np.ndarray         # (nv,) nonlinear effects rnea(q, v, 0)


def multibody(model: RobotModel, q: np.ndarray, v: np.ndarray) -> Multibody:
    """Kinematics, body twists, bias accelerations, M and h at (q, v), in one pass.

    One ``forward_kinematics`` places the bodies and one
    ``bias_accelerations`` gives the twists and their bias.  The joint-space
    inertia M = sum_i B_i.T I_i B_i is one product of the stacked body
    Jacobians with the inertia-weighted ones, and the Coriolis, centrifugal
    and gravity bias h = rnea(q, v, 0) reads the same twists and bias, with
    the bits of ``rnea``.  Stacked states (leading axes on q and v) run as
    one pass, and a state of a stack gives the same bits as the same state
    alone.
    """
    q = model.check_q(q)
    v = model.check_v(v)
    kin = forward_kinematics(model, q)
    tw, bias = bias_accelerations(model, kin, v)
    B, nv = kin.B, model.nv
    lead = B.shape[:-3]
    M = (B.reshape(lead + (-1, nv)).swapaxes(-1, -2)
         @ (model.spatial_inertias @ B).reshape(lead + (-1, nv)))
    return Multibody(kin, tw, bias, M, _rnea(model, kin, tw, bias, np.zeros_like(v)))


def frame_motion(model: RobotModel, mb: Multibody, frames):
    """World positions, Jacobian, velocities and acceleration bias of contact
    frames, from one gather of their bodies.

    Frame k on body b at offset r is at p_b + R_b r and moves with
    R_b (B_b[:2] + perp(r) B_b[2]) v.  The bias is the classical (point)
    acceleration at zero generalized acceleration, the Jdot v of
    d/dt(J v) = J vdot + Jdot v.  Returns positions (k, 2), the stacked
    Jacobian (2k, nv), velocities (k, 2) and the bias (2k,), for all frames
    (and all stacked states) at once.
    """
    kin = mb.kin
    rows, r = _frames(model, kin, frames)
    R, pr = kin.R[rows], _perp(r)
    pos = kin.pose[rows][..., :2] + _matvec(R, r)
    Bb = kin.B[rows]
    local = Bb[..., :2, :] + pr[..., None] * Bb[..., 2:, :]
    J = (R @ local).reshape(r.shape[:-2] + (-1, model.nv))
    t, acc = mb.tw[rows], mb.bias[rows]
    w = t[..., 2:]
    vel = _matvec(R, t[..., :2] + w * pr)
    local = acc[..., :2] + acc[..., 2:] * pr + w * _perp(t[..., :2] + w * pr)
    return pos, J, vel, _matvec(R, local).reshape(r.shape[:-2] + (-1,))


@dataclass
class Tangents:
    """Exact first derivatives along the state tangent (dq, dv), 2*nv columns.

    ``dtau`` differentiates ``rnea(q, v, a, forces)`` at fixed (a, forces);
    ``dvel`` and ``dacc`` stack, per frame, the world velocity and the world
    classical acceleration (J a + Jdot v) of the requested contact frames.
    The v block of ``dvel`` is the frame Jacobian itself.  Stacked states
    give the same fields with leading axes.
    """

    dtau: np.ndarray | None     # (nv, 2nv), None without ``a``
    dvel: np.ndarray            # (2*len(frames), 2nv)
    dacc: np.ndarray | None     # (2*len(frames), 2nv), None without ``a``


def tangent_sweep(model: RobotModel, kin: Kinematics, v: np.ndarray,
                  a: np.ndarray | None = None, contact_forces=None,
                  frames=(), gravity: bool = True) -> Tangents:
    """Forward-mode derivatives of RNEA and of frame motion, one tree depth at a time.

    Configuration perturbations act on the right, as in ``integrate_q``, so a
    joint's transform moves by dX_i = -crm(S_i dq_i) X_i (S_i = I for the
    floating root).  The sweep carries the (3, 2nv) tangents of the body
    twist, the gravity-free body acceleration under ``a`` and the folded-in
    gravity down the tree, all bodies of one depth (and all stacked states)
    at once; the tangent of a body's world angle is the angular row of its
    Jacobian.  The force recursion of ``rnea`` is then differentiated term
    by term on the way back up (Carpentier & Mansard, RSS 2018).  Without
    ``a`` only the twists and ``dvel`` are computed.  ``gravity=False``
    drops gravity from ``dtau``.
    """
    nv, nb = model.nv, model.nbodies
    n = 2 * nv
    lead = kin.pose.shape[:-2]
    dyn = a is not None
    # the motions swept down the tree, on the last axis: body twist,
    # gravity-free body acceleration under a, and gravity as an upward
    # acceleration; dm holds their (3, 2nv) tangents
    m = np.zeros(lead + (nb, 3, 3))
    dm = np.zeros(lead + (nb, 3, 3, n))
    m[..., 0, :, 0] = v[..., :3]
    dm[..., 0, :, 0, nv:nv + 3] = np.eye(3)
    if dyn:
        m[..., 0, :, 1] = a[..., :3]
        if gravity:
            g = kin.X[..., 0, :, :] @ np.append(-model.gravity, 0.0)
            # a base rotation turns g: its tangent is crm(g) dq, in column 2
            m[..., 0, :, 2] = g
            dm[..., 0, 0, 2, 2], dm[..., 0, 1, 2, 2] = g[..., 1], -g[..., 0]
    for lv in model.levels:
        i, p = lv.bodies, lv.parents
        k, cq, cv = np.arange(len(i)), 2 + i, nv + 2 + i
        X = kin.X[..., i, :, :]
        mi = X @ m[..., p, :, :]
        dmi = (X @ dm[..., p, :, :, :].reshape(lead + (len(i), 3, -1))).reshape(
            mi.shape + (n,))
        # -crm(S dq) X m_p = crm(X m_p) S dq, for every motion
        dmi[..., k[:, None], 0, _MOTIONS, cq[:, None]] += mi[..., 1, :]
        dmi[..., k[:, None], 1, _MOTIONS, cq[:, None]] -= mi[..., 0, :]
        vi = v[..., cq]
        mi[..., 2, 0] += vi
        dmi[..., k, 2, 0, cv] += 1.0
        if dyn:
            # crm(tw) S v_i = v_i (tw_y, -tw_x, 0), plus the joint acceleration
            t, dt_ = mi[..., 0], dmi[..., 0, :]
            mi[..., 0, 1] += vi * t[..., 1]
            mi[..., 1, 1] -= vi * t[..., 0]
            mi[..., 2, 1] += a[..., cq]
            dmi[..., 0, 1, :] += vi[..., None] * dt_[..., 1, :]
            dmi[..., 1, 1, :] -= vi[..., None] * dt_[..., 0, :]
            dmi[..., k, 0, 1, cv] += t[..., 1]
            dmi[..., k, 1, 1, cv] -= t[..., 0]
        m[..., i, :, :], dm[..., i, :, :, :] = mi, dmi
    tw, dtw = m[..., 0], dm[..., 0, :]

    dth = kin.B[..., 2, :]                    # world angle tangents, q block
    rows, r = _frames(model, kin, frames)
    R, pr, th = kin.R[rows], _perp(r), dth[rows][..., None, :]
    t, dt_ = tw[rows], dtw[rows]
    w, dw = t[..., 2:], dt_[..., 2:, :]
    vel = t[..., :2] + w * pr
    dvl = dt_[..., :2, :] + pr[..., None] * dw
    dvl[..., :nv] += _perp(vel)[..., None] * th
    dvel = (R @ dvl).reshape(r.shape[:-2] + (-1, n))
    if not dyn:
        return Tangents(dtau=None, dvel=dvel, dacc=None)
    A, dA = m[..., 1][rows], dm[..., 1, :][rows]
    acc = A[..., :2] + A[..., 2:] * pr + w * _perp(t[..., :2]) - w * w * r
    dal = (dA[..., :2, :] + pr[..., None] * dA[..., 2:, :]
           + _perp(t[..., :2])[..., None] * dw
           + w[..., None] * np.stack([-dt_[..., 1, :], dt_[..., 0, :]], -2)
           - 2.0 * (w * r)[..., None] * dw)
    dal[..., :nv] += _perp(acc)[..., None] * th
    dacc = (R @ dal).reshape(r.shape[:-2] + (-1, n))

    # f = I (ac + gr) + crf(tw) h with h = I tw, and crf(x) h = Hm x, so
    # df = I (dac + dgr) + (Hm + crf(tw) I) dtw
    I = model.spatial_inertias
    h = _matvec(I, tw)
    Hm, crf = np.zeros((2,) + lead + (nb, 3, 3))
    Hm[..., 0, 2], Hm[..., 1, 2] = -h[..., 1], h[..., 0]
    Hm[..., 2, 0], Hm[..., 2, 1] = h[..., 1], -h[..., 0]
    crf[..., 0, 1], crf[..., 1, 0] = -tw[..., 2], tw[..., 2]
    crf[..., 2, 0], crf[..., 2, 1] = -tw[..., 1], tw[..., 0]
    f = _matvec(I, m[..., 1] + m[..., 2]) + _matvec(Hm, tw)
    df = I @ (dm[..., 1, :] + dm[..., 2, :]) + (Hm + crf @ I) @ dtw
    if contact_forces is not None:
        _subtract_contact_forces(model, kin, f, contact_forces, dth, df)

    dtau = np.empty(lead + (nv, n))
    for lv in reversed(model.levels):
        i, p = lv.bodies, lv.parents
        k, cq = np.arange(len(i)), 2 + i
        XT = kin.X[..., i, :, :].swapaxes(-1, -2)
        fi, dfi = f[..., i, :], df[..., i, :, :]
        dtau[..., cq, :] = dfi[..., 2, :]
        # d(X.T f) = X.T df + X.T crf(S dq) f
        dfi[..., k, 0, cq] -= fi[..., 1]
        dfi[..., k, 1, cq] += fi[..., 0]
        # siblings share a parent: accumulate unbuffered
        np.add.at(f, (Ellipsis, p, slice(None)), _matvec(XT, fi))
        np.add.at(df, (Ellipsis, p, slice(None), slice(None)), XT @ dfi)
    dtau[..., :3, :] = df[..., 0, :, :]
    return Tangents(dtau=dtau, dvel=dvel, dacc=dacc)
