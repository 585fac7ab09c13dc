"""The multibody pass, the frame gather, inverse dynamics and its exact tangent sweep.

Sign conventions: the generalized force tau satisfies

    M(q) a + h(q, v) - J_C(q).T @ lambda = tau

where h is ``multibody``'s bias force: Coriolis, centrifugal and gravity
terms together.  So gravity enters as a bias (h at rest, ``gravity_torque``,
is the force needed to hold the robot statically), and contact forces
``lambda`` are world-frame forces applied *on* the robot at contact frames.
``tangent_sweep`` differentiates the left-hand side at fixed (a, lambda).

Everything works on the body Jacobians B_i that ``forward_kinematics``
returns (Featherstone, *Rigid Body Dynamics Algorithms*, 2008): body twists
are tw = B v, body accelerations come from one pass per tree depth, tau =
sum_i B_i.T f_i is one product, and the joint-space inertia is M = sum_i
B_i.T I_i B_i.  ``multibody`` is the one pass per state: kinematics,
twists, bias accelerations, M and h (as Pinocchio's ``computeAllTerms``).
``frame_motion`` is the one gather of contact frames from a pass: their
positions, Jacobian, velocities and acceleration bias.  A caller that needs
no velocities (the impulse dynamics) takes the kinematics, ``mass_matrix``
and ``frame_jacobian`` alone, the same code without the twists, and a cost
that reads no Jacobian takes ``frame_velocities`` (positions and
velocities) or ``kinematics.frame_positions``, the same code without the
Jacobian.  ``tangent_sweep``
differentiates the same recursion, one tree depth at a time too.  Every
function takes stacked states (leading axes on q, v, a and the
``Kinematics``) as one pass; alone, a state runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels
from .kinematics import (
    Kinematics,
    _frame_points,
    _frames,
    _matvec,
    _perp,
    bias_accelerations,
    forward_kinematics,
)
from .model import GRAVITY, RobotModel


@dataclass(frozen=True)
class _SweepIndex:
    """Where ``tangent_sweep`` writes the per-body entries of one tree level.

    The level's bodies b_k move the tangent columns 2 + b_k (q) and
    nv + 2 + b_k (v).  The indices address C-ordered arrays flattened after
    their leading axes: the level's (L, 3, 3, 2nv) motion tangents and the
    (nb, 3, 2nv) force tangents.  Each is a basic slice where the bodies run
    evenly upwards (``_kernels.basic_index``), so the write is a view, not an
    indexed scatter.  ``crm`` lists the three motions of every body, in
    (body, motion) order: two strides, so always an index array.
    """

    cq: slice | np.ndarray          # the q columns, 2 + b_k
    crm: tuple                      # [k, a, :, 2 + b_k] of the motions, a = 0, 1
    joint: tuple                    # [k, 2, 0, v_k], [k, 0, 1, v_k], [k, 1, 1, v_k]
    force: tuple                    # [b_k, a, 2 + b_k] of the forces, a = 0, 1


@cache
def _sweep_index(nv: int, bodies: tuple) -> _SweepIndex:
    n = 2 * nv

    def motion(k, a, m, col):           # flat offset of [k, a, m, col]
        return ((k * 3 + a) * 3 + m) * n + col

    index = _kernels.basic_index
    return _SweepIndex(
        cq=index([2 + b for b in bodies]),
        crm=tuple(np.array([motion(k, a, m, 2 + b) for k, b in enumerate(bodies)
                            for m in range(3)]) for a in (0, 1)),
        joint=tuple(index([motion(k, a, m, nv + 2 + b) for k, b in enumerate(bodies)])
                    for a, m in ((2, 0), (0, 1), (1, 1))),
        force=tuple(index([(b * 3 + a) * n + 2 + b for b in bodies]) for a in (0, 1)))


def _subtract_contact_forces(model, kin, f, contact_forces, dth, df):
    """Subtract world contact forces, as body wrenches, from body forces
    ``f``, and their tangent from the force tangents ``df``.

    ``contact_forces`` is a pair of frames (a tuple, or a (..., k) array of
    stacked states) and world forces (..., k, 2); ``dth`` (nb, nv) holds the
    body world-angle tangents.  Frames on distinct bodies (in each stacked
    state) are subtracted in one indexed operation; a frames tuple, and one
    state's frames, read that from their plan.
    """
    frames, lam = contact_forces
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0:
        return
    rows, r, plan = _frames(model, kin, frames)
    fl = (lam[..., None, :] @ kin.R[rows])[..., 0, :]      # R_b.T lam, body frame
    w = np.concatenate([fl, r[..., :1] * fl[..., 1:] - r[..., 1:] * fl[..., :1]], -1)
    nv = model.nv
    d = np.zeros(fl.shape[:-1] + (3, 2 * nv))
    d[..., :2, :nv] = -_perp(fl)[..., None] * dth[rows][..., None, :]
    d[..., 2, :nv] = r[..., :1] * d[..., 1, :nv] - r[..., 1:] * d[..., 0, :nv]
    if plan is None:
        idx = np.sort(rows[-1], -1)
        shared = bool((idx[..., 1:] == idx[..., :-1]).any())
    else:
        shared = plan.shared
    if not shared:
        f[rows] -= w
        df[rows] -= d
        return
    # frames share a body: subtract frame by frame, in order (the
    # differences of an unbuffered np.subtract.at, without its indexing)
    if plan is None:
        at, idx = tuple(a[..., 0] for a in rows[:-1]), rows[-1]
        bodies = [at + (idx[..., j],) for j in range(idx.shape[-1])]
    else:
        lead = (slice(None),) * (kin.pose.ndim - 2)
        bodies = [lead + (b,) for b in plan.bodies]
    for j, at in enumerate(bodies):
        f[at] -= w[..., j, :]
        df[at] -= d[..., j, :, :]


def _rnea(model, kin, tw, bias):
    """The bias force h(q, v) on a kinematics pass, its body twists ``tw``
    and their ``bias``: the Newton-Euler recursion at zero acceleration.

    Body accelerations are the velocity bias plus gravity, folded in as a
    fictitious upward world acceleration; each body's net force f_i then
    reaches h as B_i.T f_i.
    """
    B, I = kin.B, model.spatial_inertias
    # a new array, so that gravity below is not written into the pass's
    # bias, with -0.0 entries turned +0.0 as B a + bias turns them at a = 0
    # (tests/helpers.py keeps that form as the bits oracle of h)
    ac = bias + 0.0
    # world gravity seen in each body frame: R_i.T (-g)
    ac[..., :2] -= GRAVITY @ kin.R
    mom = _matvec(I, tw)
    # f = I ac + crf(tw) I tw
    f = _matvec(I, ac)
    f[..., 0] -= tw[..., 2] * mom[..., 1]
    f[..., 1] += tw[..., 2] * mom[..., 0]
    f[..., 2] += tw[..., 0] * mom[..., 1] - tw[..., 1] * mom[..., 0]
    lead = B.shape[:-3]
    tau = (f.reshape(lead + (1, -1)) @ B.reshape(lead + (-1, model.nv)))[..., 0, :]
    return tau


@dataclass
class Multibody:
    """The rigid-body terms at one state (q, v), from ``multibody``.

    Stacked states give the same fields with leading axes.
    """

    kin: Kinematics
    tw: np.ndarray        # (nb, 3) body twists B v
    bias: np.ndarray      # (nb, 3) body accelerations at zero vdot, no gravity
    M: np.ndarray         # (nv, nv) joint-space inertia
    h: np.ndarray         # (nv,) bias force: Coriolis, centrifugal and gravity


def multibody(model: RobotModel, q: np.ndarray, v: np.ndarray) -> Multibody:
    """Kinematics, body twists, bias accelerations, M and h at (q, v), in one pass.

    One ``forward_kinematics`` places the bodies and one
    ``bias_accelerations`` gives the twists and their bias.  The joint-space
    inertia M = sum_i B_i.T I_i B_i is one product of the stacked body
    Jacobians with the inertia-weighted ones, and the Coriolis, centrifugal
    and gravity bias h reads the same twists and bias (``_rnea``).  Stacked
    states (leading axes on q and v) run as one pass, and a state of a stack
    gives the same bits as the same state alone.
    """
    q = model.check_q(q)
    v = model.check_v(v)
    kin = forward_kinematics(model, q)
    tw, bias = bias_accelerations(model, kin, v)
    return Multibody(kin, tw, bias, mass_matrix(model, kin),
                     _rnea(model, kin, tw, bias))


def gravity_torque(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Static bias g(q): ``multibody(q, 0).h`` without the mass matrix."""
    q = model.check_q(q)
    kin = forward_kinematics(model, q)
    tw, bias = bias_accelerations(model, kin, np.zeros(q.shape[:-1] + (model.nv,)))
    return _rnea(model, kin, tw, bias)


def mass_matrix(model: RobotModel, kin: Kinematics) -> np.ndarray:
    """Joint-space inertia M = sum_i B_i.T I_i B_i on a kinematics pass."""
    B, nv = kin.B, model.nv
    lead = B.shape[:-3]
    return (B.reshape(lead + (-1, nv)).swapaxes(-1, -2)
            @ (model.spatial_inertias @ B).reshape(lead + (-1, nv)))


def _jacobian(model, kin, rows, R, pr):
    """Stacked world Jacobian of the frames gathered at ``rows``: frame k on
    body b at offset r moves with R_b (B_b[:2] + perp(r) B_b[2]) v."""
    Bb = kin.B[rows]
    local = Bb[..., :2, :] + pr[..., None] * Bb[..., 2:, :]
    return (R @ local).reshape(R.shape[:-3] + (-1, model.nv))


def frame_jacobian(model: RobotModel, kin: Kinematics, frames):
    """World positions (k, 2) and stacked Jacobian (2k, nv) of contact
    frames on a kinematics pass: ``frame_motion`` without the velocities."""
    rows, R, r, pos = _frame_points(model, kin, frames)
    return pos, _jacobian(model, kin, rows, R, _perp(r))


def _frame_velocities(model, mb, frames):
    rows, R, r, pos = _frame_points(model, mb.kin, frames)
    pr, t = _perp(r), mb.tw[rows]
    w = t[..., 2:]
    body_vel = t[..., :2] + w * pr       # in the body's axes
    return rows, R, pr, w, body_vel, pos, _matvec(R, body_vel)


def frame_velocities(model: RobotModel, mb: Multibody, frames):
    """World positions and velocities (k, 2) of contact frames:
    ``frame_motion`` without the Jacobian and the bias."""
    return _frame_velocities(model, mb, frames)[-2:]


def frame_motion(model: RobotModel, mb: Multibody, frames):
    """World positions, Jacobian, velocities and acceleration bias of contact
    frames, from one gather of their bodies.

    The bias is the classical (point) acceleration at zero generalized
    acceleration, the Jdot v of d/dt(J v) = J vdot + Jdot v.  Returns
    positions (k, 2), the stacked Jacobian (2k, nv), velocities (k, 2) and
    the bias (2k,), for all frames (and all stacked states) at once.
    """
    rows, R, pr, w, body_vel, pos, vel = _frame_velocities(model, mb, frames)
    acc = mb.bias[rows]
    local = acc[..., :2] + acc[..., 2:] * pr + w * _perp(body_vel)
    return (pos, _jacobian(model, mb.kin, rows, R, pr), vel,
            _matvec(R, local).reshape(R.shape[:-3] + (-1,)))


@dataclass
class Tangents:
    """Exact first derivatives along the state tangent (dq, dv), 2*nv columns.

    ``dtau`` differentiates tau = M(q) a + h(q, v) - J_C(q).T lambda at
    fixed (a, lambda).
    ``dvel`` stacks, per requested frame, the world velocity of the frame;
    its v block is the frame Jacobian itself.  ``dacc`` stacks the world
    classical acceleration (J a + Jdot v) of the contact frames alone, those
    of the forces, which lead the requested frames: the rows the contact
    derivatives read.  Stacked states give the same fields with leading
    axes.
    """

    dtau: np.ndarray | None     # (nv, 2nv), None without ``a``
    dvel: np.ndarray            # (2*len(frames), 2nv)
    dacc: np.ndarray | None     # (2*nc, 2nv), nc contact frames; None without ``a``


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
    Jacobian.  The force recursion of tau, under ``a`` and
    ``contact_forces``, is then differentiated term by term on the way back
    up (Carpentier & Mansard, RSS 2018).  Without ``a`` only the twists and
    ``dvel`` are computed.  ``gravity=False`` drops gravity from ``dtau``.
    ``frames`` lists the frames of ``contact_forces`` first; ``dacc`` covers
    those of them it lists.
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
    dm[..., 0, :, 0, nv:nv + 3] = _kernels.eye(3)
    if dyn:
        m[..., 0, :, 1] = a[..., :3]
        if gravity:
            g = kin.X[..., 0, :, :] @ np.append(-GRAVITY, 0.0)
            # a base rotation turns g: its tangent is crm(g) dq, in column 2
            m[..., 0, :, 2] = g
            dm[..., 0, 0, 2, 2], dm[..., 0, 1, 2, 2] = g[..., 1], -g[..., 0]
    for lv in model.levels:
        i, p = lv.at, lv.parents_at
        ix = _sweep_index(nv, tuple(lv.bodies.tolist()))
        X = kin.X[..., i, :, :]
        mi = X @ m[..., p, :, :]
        dmp = dm[..., p, :, :, :]
        # C order, so that dmi flattened is a view (an index array makes X,
        # and so the product, follow the indexed axis in memory)
        dmi = np.ascontiguousarray(X @ dmp.reshape(dmp.shape[:-2] + (-1,)))
        dmi = dmi.reshape(mi.shape + (n,))
        flat = dmi.reshape(lead + (-1,))
        # -crm(S dq) X m_p = crm(X m_p) S dq, for every motion
        flat[..., ix.crm[0]] += mi[..., 1, :].reshape(lead + (-1,))
        flat[..., ix.crm[1]] -= mi[..., 0, :].reshape(lead + (-1,))
        vi = v[..., ix.cq]
        mi[..., 2, 0] += vi
        flat[..., ix.joint[0]] += 1.0
        if dyn:
            # crm(tw) S v_i = v_i (tw_y, -tw_x, 0), plus the joint acceleration
            t, dt_ = mi[..., 0], dmi[..., 0, :]
            mi[..., 0, 1] += vi * t[..., 1]
            mi[..., 1, 1] -= vi * t[..., 0]
            mi[..., 2, 1] += a[..., ix.cq]
            dmi[..., 0, 1, :] += vi[..., None] * dt_[..., 1, :]
            dmi[..., 1, 1, :] -= vi[..., None] * dt_[..., 0, :]
            flat[..., ix.joint[1]] += t[..., 1]
            flat[..., ix.joint[2]] -= t[..., 0]
        m[..., i, :, :], dm[..., i, :, :, :] = mi, dmi
    tw, dtw = m[..., 0], dm[..., 0, :]

    dth = kin.B[..., 2, :]                    # world angle tangents, q block
    rows, r, _ = _frames(model, kin, frames)
    R, pr, th = kin.R[rows], _perp(r), dth[rows][..., None, :]
    t, dt_ = tw[rows], dtw[rows]
    w, dw = t[..., 2:], dt_[..., 2:, :]
    vel = t[..., :2] + w * pr
    dvl = dt_[..., :2, :] + pr[..., None] * dw
    dvl[..., :nv] += _perp(vel)[..., None] * th
    dvel = (R @ dvl).reshape(R.shape[:-3] + (-1, n))
    if not dyn:
        return Tangents(dtau=None, dvel=dvel, dacc=None)
    # dacc covers the contact frames alone, the first of ``frames``
    nc = 0 if contact_forces is None else np.shape(contact_forces[0])[-1]
    if nc < r.shape[-2]:
        rows = _frames(model, kin, frames[:nc] if type(frames) is tuple
                       else np.asarray(frames)[..., :nc])[0]
        r, pr, R, th = r[..., :nc, :], pr[..., :nc, :], R[..., :nc, :, :], th[..., :nc, :, :]
        t, dt_ = t[..., :nc, :], dt_[..., :nc, :, :]
        w, dw = t[..., 2:], dt_[..., 2:, :]
    A, dA = m[..., 1][rows], dm[..., 1, :][rows]
    acc = A[..., :2] + A[..., 2:] * pr + w * _perp(t[..., :2]) - w * w * r
    dal = (dA[..., :2, :] + pr[..., None] * dA[..., 2:, :]
           + _perp(t[..., :2])[..., None] * dw
           + w[..., None] * np.stack([-dt_[..., 1, :], dt_[..., 0, :]], -2)
           - 2.0 * (w * r)[..., None] * dw)
    dal[..., :nv] += _perp(acc)[..., None] * th
    dacc = (R @ dal).reshape(R.shape[:-3] + (-1, n))

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
    df = np.ascontiguousarray(I @ (dm[..., 1, :] + dm[..., 2, :]) + (Hm + crf @ I) @ dtw)
    if contact_forces is not None:
        _subtract_contact_forces(model, kin, f, contact_forces, dth, df)

    dtau = np.empty(lead + (nv, n))
    dflat = df.reshape(lead + (-1,))          # C order: a view
    for lv in reversed(model.levels):
        i = lv.at
        ix = _sweep_index(nv, tuple(lv.bodies.tolist()))
        XT = kin.X[..., i, :, :].swapaxes(-1, -2)
        # views where ``i`` is a slice: the level's own rows are not read again
        fi = f[..., i, :]
        # d(X.T f) = X.T df + X.T crf(S dq) f
        dflat[..., ix.force[0]] -= fi[..., 1]
        dflat[..., ix.force[1]] += fi[..., 0]
        dfi = df[..., i, :, :]
        dtau[..., ix.cq, :] = dfi[..., 2, :]
        fp, dfp = _matvec(XT, fi), XT @ dfi
        if not lv.siblings:
            f[..., lv.parents_at, :] += fp
            df[..., lv.parents_at, :, :] += dfp
            continue
        # siblings share a parent: add child by child, in order (the sums
        # of an unbuffered np.add.at, without its indexing machinery)
        for j, p in enumerate(lv.parents.tolist()):
            f[..., p, :] += fp[..., j, :]
            df[..., p, :, :] += dfp[..., j, :, :]
    dtau[..., :3, :] = df[..., 0, :, :]
    return Tangents(dtau=dtau, dvel=dvel, dacc=dacc)
