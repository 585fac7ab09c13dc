"""Programmatic default models used by tests, scenarios and docs."""

from __future__ import annotations

import numpy as np

from .model import FLOATING, REVOLUTE, Body, ContactFrame, Joint, RobotModel

# default planar quadruped geometry
TRUNK_MASS = 10.0
TRUNK_INERTIA = 0.35
LINK_MASS = 0.5
LINK_LENGTH = 0.2
LINK_INERTIA = LINK_MASS * LINK_LENGTH ** 2 / 12.0
HIP_X = (0.3, 0.1, -0.1, -0.3)
HIP_BEND = (0.5, 0.5, -0.5, -0.5)   # nominal hip angles, knees bend opposite ways
TORQUE_LIMIT = 40.0                 # every joint's, N m


def default_quadruped() -> RobotModel:
    """Planar quadruped: trunk plus four two-link legs (nv = 11, nu = 8)."""
    bodies = [Body("trunk", TRUNK_MASS, (0.0, 0.0), TRUNK_INERTIA)]
    joints = [Joint(FLOATING, -1, (0.0, 0.0, 0.0))]
    frames = []
    for leg, hx in enumerate(HIP_X):
        upper = len(bodies)
        bodies.append(Body(f"upper{leg}", LINK_MASS, (0.0, -LINK_LENGTH / 2), LINK_INERTIA))
        joints.append(Joint(REVOLUTE, 0, (hx, 0.0, 0.0)))
        bodies.append(Body(f"lower{leg}", LINK_MASS, (0.0, -LINK_LENGTH / 2), LINK_INERTIA))
        joints.append(Joint(REVOLUTE, upper, (0.0, -LINK_LENGTH, 0.0)))
        frames.append(ContactFrame(f"foot{leg}", upper + 1, (0.0, -LINK_LENGTH)))
    return RobotModel(
        name="planar_quadruped",
        bodies=bodies,
        joints=joints,
        contact_frames=frames,
        torque_limit=np.full(8, TORQUE_LIMIT),
    )


def nominal_configuration(model: RobotModel) -> np.ndarray:
    """Symmetric stance: feet directly below the hips, base level."""
    height = 2.0 * LINK_LENGTH * np.cos(HIP_BEND[0])
    q = np.zeros(model.nq)
    q[1] = height
    for leg, bend in enumerate(HIP_BEND):
        q[3 + 2 * leg] = bend
        q[4 + 2 * leg] = -2.0 * bend
    return q


def nominal_state(model: RobotModel) -> np.ndarray:
    return np.concatenate([nominal_configuration(model), np.zeros(model.nv)])
