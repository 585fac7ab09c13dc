"""Forward kinematics, frame Jacobians and acceleration bias terms.

Planar spatial vectors follow the package ordering (vx, vy, omega) for
motions and (fx, fy, n) for forces; a motion coordinate transform X maps
parent-frame motions into child-frame coordinates and X.T maps child-frame
forces back to the parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se2
from .model import FLOATING, RobotModel

S_REVOLUTE = np.array([0.0, 0.0, 1.0])


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


def crm(v: np.ndarray) -> np.ndarray:
    """Motion cross-product matrix (planar)."""
    vx, vy, w = v
    return np.array([[0.0, -w, vy], [w, 0.0, -vx], [0.0, 0.0, 0.0]])


def crf(v: np.ndarray) -> np.ndarray:
    """Force cross-product matrix: crf(v) = -crm(v).T."""
    vx, vy, w = v
    return np.array([[0.0, -w, 0.0], [w, 0.0, 0.0], [-vy, vx, 0.0]])


def spatial_inertia(mass: float, com: np.ndarray, inertia: float) -> np.ndarray:
    cx, cy = com
    return np.array(
        [
            [mass, 0.0, -mass * cy],
            [0.0, mass, mass * cx],
            [-mass * cy, mass * cx, inertia + mass * (cx * cx + cy * cy)],
        ]
    )


def joint_pose(model: RobotModel, joint: int, q: np.ndarray) -> np.ndarray:
    """Pose of body ``joint`` in its parent's frame (root: in the world)."""
    j = model.joints[joint]
    if j.kind == FLOATING:
        return np.asarray(q[:3], dtype=float)
    return se2.compose(np.asarray(j.placement, dtype=float),
                       np.array([0.0, 0.0, q[3 + joint - 1]]))


@dataclass
class Kinematics:
    """Per-body world poses and parent-to-body motion transforms."""

    pose: np.ndarray      # (nb, 3) world poses
    X: np.ndarray         # (nb, 3, 3) motion transforms parent->body (root: world->body)


def forward_kinematics(model: RobotModel, q: np.ndarray) -> Kinematics:
    q = model.check_q(q)
    nb = model.nbodies
    pose = np.empty((nb, 3))
    X = np.empty((nb, 3, 3))
    for i in range(nb):
        rel = joint_pose(model, i, q)
        X[i] = motion_transform(rel)
        parent = model.joints[i].parent
        pose[i] = rel if parent < 0 else se2.compose(pose[parent], rel)
    return Kinematics(pose=pose, X=X)


def body_twists(model: RobotModel, kin: Kinematics, v: np.ndarray) -> np.ndarray:
    """Body-frame twist of every body for generalized velocity ``v``."""
    v = model.check_v(v)
    nb = model.nbodies
    tw = np.empty((nb, 3))
    tw[0] = v[:3]
    for i in range(1, nb):
        tw[i] = kin.X[i] @ tw[model.joints[i].parent]
        tw[i, 2] += v[2 + i]
    return tw


def body_jacobians(model: RobotModel, kin: Kinematics) -> np.ndarray:
    """Stack B with body_twist_i = B[i] @ v, shape (nb, 3, nv)."""
    nb, nv = model.nbodies, model.nv
    B = np.zeros((nb, 3, nv))
    B[0, :, :3] = np.eye(3)
    for i in range(1, nb):
        B[i] = kin.X[i] @ B[model.joints[i].parent]
        B[i, 2, 2 + i] += 1.0
    return B


def frame_position(model: RobotModel, kin: Kinematics, frame: int) -> np.ndarray:
    c = model.contact_frames[frame]
    return se2.act(kin.pose[c.body], np.asarray(c.offset, dtype=float))


def frame_positions(model: RobotModel, kin: Kinematics, frames) -> np.ndarray:
    return np.array([frame_position(model, kin, f) for f in frames]).reshape(-1, 2)


def frame_jacobian(model: RobotModel, kin: Kinematics, B: np.ndarray, frame: int) -> np.ndarray:
    """World-frame point-velocity Jacobian (2 x nv) of a contact frame."""
    c = model.contact_frames[frame]
    rx, ry = c.offset
    Bb = B[c.body]
    R = se2.rot(kin.pose[c.body, 2])
    local = Bb[:2, :] + np.outer(np.array([-ry, rx]), Bb[2, :])
    return R @ local


def contact_jacobian(model: RobotModel, q: np.ndarray, frames,
                     kin: Kinematics | None = None) -> np.ndarray:
    """Stacked world point-velocity Jacobian (2*len(frames) x nv)."""
    if kin is None:
        kin = forward_kinematics(model, q)
    B = body_jacobians(model, kin)
    if len(frames) == 0:
        return np.zeros((0, model.nv))
    return np.vstack([frame_jacobian(model, kin, B, f) for f in frames])


def frame_velocities(model: RobotModel, q: np.ndarray, v: np.ndarray, frames,
                     kin: Kinematics | None = None) -> np.ndarray:
    """World linear velocities of contact frames, shape (len(frames), 2)."""
    if kin is None:
        kin = forward_kinematics(model, q)
    tw = body_twists(model, kin, v)
    out = np.empty((len(frames), 2))
    for k, f in enumerate(frames):
        c = model.contact_frames[f]
        rx, ry = c.offset
        t = tw[c.body]
        local = t[:2] + t[2] * np.array([-ry, rx])
        out[k] = se2.rot(kin.pose[c.body, 2]) @ local
    return out


def _perp(u):
    return np.array([-u[1], u[0]])


def frame_acceleration_bias(model: RobotModel, q: np.ndarray, v: np.ndarray, frames,
                            kin: Kinematics | None = None) -> np.ndarray:
    """World acceleration of contact points under zero generalized acceleration.

    This is the classical (point) acceleration, i.e. the Jdot*v term of
    d/dt(J v) = J vdot + Jdot v, stacked per frame into a vector of length
    2*len(frames).
    """
    v = model.check_v(v)
    if kin is None:
        kin = forward_kinematics(model, model.check_q(q))
    nb = model.nbodies
    tw = body_twists(model, kin, v)
    acc = np.empty((nb, 3))
    acc[0] = 0.0
    for i in range(1, nb):
        Svj = np.array([0.0, 0.0, v[2 + i]])
        acc[i] = kin.X[i] @ acc[model.joints[i].parent] + crm(tw[i]) @ Svj
    out = np.empty(2 * len(frames))
    for k, f in enumerate(frames):
        c = model.contact_frames[f]
        r = np.asarray(c.offset, dtype=float)
        t, a = tw[c.body], acc[c.body]
        local = a[:2] + a[2] * _perp(r) + t[2] * _perp(t[:2] + t[2] * _perp(r))
        out[2 * k: 2 * k + 2] = se2.rot(kin.pose[c.body, 2]) @ local
    return out
