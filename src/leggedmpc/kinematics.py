"""Forward kinematics and the motion of contact frames, one tree depth at a time.

Planar spatial vectors follow the package ordering (vx, vy, omega) for
motions and (fx, fy, n) for forces; a motion coordinate transform X maps
parent-frame motions into child-frame coordinates and X.T maps child-frame
forces back to the parent.

``forward_kinematics`` walks the tree level by level (``RobotModel.levels``):
all bodies of one depth are placed, transformed and given their body
Jacobian B_i in one batch of array operations, so a pass costs a few array
operations per depth instead of per body.  With B_i, a body twist is
tw_i = B_i v, and ``bias_accelerations`` gives the twists and their
velocity bias one depth at a time.  Contact frames are gathered for all
requested frames at once (``_frames``); ``dynamics.frame_motion`` reads
their motion from the multibody pass.  Stacked states (leading axes on q
and v, frames (..., k) per state) run as one pass.

A frames tuple reads its frames by a plan (``RobotModel.frame_plan``),
built once per tuple, whether the state is alone or stacked: the bodies'
rows as a basic slice where they run evenly upwards (after the leading
axes of a stack), with the frame offsets.  The gathers of poses,
rotations, Jacobians and twists are then views, not index-array copies,
with the same bits; bodies that do not run evenly (or repeat) keep an
index array.  One state reads any frames so.  A frames array (..., k) of
stacked states indexes per leading index, so their frames may differ per
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, se2
from .model import RobotModel


def motion_transform(pose: np.ndarray) -> np.ndarray:
    """X mapping motions from the frame ``pose`` is expressed in, into ``pose``'s frame."""
    RT = se2.rot(pose[2]).T
    px, py = pose[0], pose[1]
    X = np.empty((3, 3))
    X[:2, :2] = RT
    X[:2, 2] = RT @ np.array([-py, px])
    X[2, :2] = 0.0
    X[2, 2] = 1.0
    return X


@dataclass
class Kinematics:
    """World poses, joint transforms, body Jacobians and world rotations.

    Stacked states give the same fields with leading axes.
    """

    pose: np.ndarray      # (nb, 3) world poses
    X: np.ndarray         # (nb, 3, 3) motion transforms parent->body (root: world->body)
    B: np.ndarray         # (nb, 3, nv) body Jacobians: body twist i = B[i] @ v
    R: np.ndarray         # (nb, 2, 2) body-to-world rotations


def _rows(idx: np.ndarray) -> tuple:
    """Index of rows ``idx`` (..., k) of an array (..., n, ...), per leading index."""
    lead = idx.shape[:-1]
    return tuple(np.arange(n).reshape((n,) + (1,) * (len(lead) - d))
                 for d, n in enumerate(lead)) + (idx,)


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (A @ x[..., None])[..., 0]


def forward_kinematics(model: RobotModel, q: np.ndarray) -> Kinematics:
    """Poses, transforms and body Jacobians, computed one tree depth at a time.

    Every joint frame, and so every parent->body transform X, follows from
    q in one batch.  The world transforms and the body Jacobians
    B_i = X_i B_parent(i) + S_i (S_i: the joint's motion subspace) then take
    one batched step per depth of the tree.  World angles are the atan2 of
    the world rotations, in [-pi, pi].  A stack of configurations (..., nq)
    is one pass too, with the leading axes in front of every field.
    """
    q = model.check_q(q)
    lead = q.shape[:-1]
    nb, nv = model.nbodies, model.nv
    rel = np.empty(lead + (nb, 3))
    rel[...] = model.placements
    rel[..., 0, :] = q[..., :3]
    rel[..., 1:, 2] += q[..., 3:]
    c, s = np.cos(rel[..., 2]), np.sin(rel[..., 2])
    px, py = rel[..., 0], rel[..., 1]
    # T: homogeneous body->parent transforms, made body->world level by level
    T = np.zeros(lead + (nb, 3, 3))
    T[..., 0, 0] = c
    T[..., 0, 1] = -s
    T[..., 1, 0] = s
    T[..., 1, 1] = c
    T[..., :2, 2] = rel[..., :2]
    T[..., 2, 2] = 1.0
    X = np.zeros(lead + (nb, 3, 3))
    X[..., :2, :2] = T[..., :2, :2].swapaxes(-1, -2)
    X[..., 0, 2] = s * px - c * py
    X[..., 1, 2] = c * px + s * py
    X[..., 2, 2] = 1.0
    B = np.zeros(lead + (nb, 3, nv))
    B[..., 0, :, :3] = _kernels.eye(3)
    for lv in model.levels:
        i, p = lv.at, lv.parents_at
        T[..., i, :, :] = T[..., p, :, :] @ T[..., i, :, :]
        Bi = X[..., i, :, :] @ B[..., p, :, :]
        Bi += lv.axes
        B[..., i, :, :] = Bi
    pose = np.empty(lead + (nb, 3))
    pose[..., :2] = T[..., :2, 2]
    pose[..., 2] = np.arctan2(T[..., 1, 0], T[..., 0, 0])
    return Kinematics(pose=pose, X=X, B=B, R=T[..., :2, :2])


def bias_accelerations(model: RobotModel, kin: Kinematics, v: np.ndarray):
    """Body twists tw = B v and body accelerations at zero generalized
    acceleration (and no gravity), each (nb, 3).

    a_i = X_i a_parent + crm(tw_i) S_i v_i, one tree depth at a time.  The
    root's bias is zero, so the first depth below it is just its Coriolis
    terms.
    """
    tw = _matvec(kin.B, v[..., None, :])
    acc = np.zeros(tw.shape)
    # crm(tw_i) S_i v_i = v_i (tw_y, -tw_x, 0); body i >= 1 has rate v[2 + i]
    acc[..., 1:, 0] = v[..., 3:] * tw[..., 1:, 1]
    acc[..., 1:, 1] = -v[..., 3:] * tw[..., 1:, 0]
    for lv in model.levels[1:]:
        i = lv.at
        acc[..., i, :] += _matvec(kin.X[..., i, :, :], acc[..., lv.parents_at, :])
    return tw, acc


def _frames(model: RobotModel, kin: Kinematics, frames):
    """Index of the bodies of ``frames``, the frame offsets, and the plan
    that gave them, if one did.

    A frames tuple, and any frames of one state, read their
    ``model.frame_plan``: a basic slice where the bodies run evenly, after
    the leading axes of stacked states.  A frames array (..., k) of stacked
    states indexes per leading index (see ``_rows``) and broadcasts over the
    leading axes of ``kin``; its plan is None.
    """
    lead = kin.pose.shape[:-2]
    if not lead or type(frames) is tuple:
        plan = model.frame_plan(frames)
        return (plan.at if not lead else (slice(None),) * len(lead) + (plan.at,),
                plan.offsets, plan)
    idx = np.asarray(frames, dtype=int)
    if idx.shape[:-1] != lead:
        idx = np.broadcast_to(idx, lead + idx.shape[-1:])
    return _rows(model.contact_bodies[idx]), model.contact_offsets[idx], None


_FLIP = np.array([-1.0, 1.0])


def _perp(r: np.ndarray) -> np.ndarray:
    """Rows rotated by +90 degrees: (x, y) -> (-y, x)."""
    return r[..., ::-1] * _FLIP


def _frame_points(model: RobotModel, kin: Kinematics, frames):
    """Body index, world rotations R, offsets r and world positions of
    contact frames: frame k on body b at offset r is at p_b + R_b r."""
    rows, r, _ = _frames(model, kin, frames)
    R = kin.R[rows]
    return rows, R, r, kin.pose[rows][..., :2] + _matvec(R, r)


def frame_positions(model: RobotModel, kin: Kinematics, frames) -> np.ndarray:
    """World positions of contact frames, shape (len(frames), 2)."""
    return _frame_points(model, kin, frames)[3]


def frame_position(model: RobotModel, kin: Kinematics, frame: int) -> np.ndarray:
    """World position (2,) of one contact frame, per state of a stack."""
    return frame_positions(model, kin, (frame,))[..., 0, :]
