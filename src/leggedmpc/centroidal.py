"""Centroidal momentum from the floating-base rows of the joint-space dynamics.

The base rows of M(q) v are the robot's total momentum expressed in the base
frame, and the base rows of the velocity bias h(q, v) - g(q) are the rate of
that momentum at zero generalized acceleration and without gravity, as a
wrench in the base frame.  Transforming both to a
world-aligned frame at the centre of mass gives the centroidal momentum
matrix and its drift (Orin, Goswami & Lee, *Centroidal dynamics of a
humanoid robot*, Auton. Robots 2013):

    A_G = X_G.T M[:3],    Adot_G v = X_G.T (h - g)[:3],

with X_G the motion transform from the centre-of-mass frame into the base
frame.  M[:3, :3] is the composite inertia of the whole robot about the base
frame, so it also holds the total mass and the centre of mass.

Gravity is the base accelerating upwards with the joints locked, so the
drift needs no second recursion: g(q) = M[:, :3] a_g with a_g = (-R_base.T
g, 0), and the base rows of g come from M's base block, g[:3] = M[:3, :3]
a_g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se2
from .dynamics import Multibody
from .kinematics import motion_transform
from .model import GRAVITY, RobotModel


@dataclass
class CentroidalQuantities:
    p_G: np.ndarray        # centre of mass, world frame (2,)
    k_G: float             # angular momentum about the centre of mass
    A_G: np.ndarray        # centroidal momentum matrix (3, nv), rows (lx, ly, k)
    v_G: np.ndarray        # centre-of-mass velocity: linear momentum / m (2,)
    Adot_v: np.ndarray     # momentum-matrix drift (dA_G/dt) v (3,)


def centroidal(model: RobotModel, mb: Multibody, v: np.ndarray) -> CentroidalQuantities:
    """Centroidal momentum, its matrix and drift at velocity v, on the
    multibody pass ``mb`` at (q, v) (``dynamics.multibody``).

    The centre of mass comes from the composite base inertia M[:3, :3] of
    the pass (first moment over mass, in the base frame); A_G[2, 2], the
    angular momentum of a unit base rotation with the joints locked, is the
    locked rotational inertia about the centre of mass.  The drift
    reads the pass's h, less g(q) from M's base block.
    """
    v = model.check_v(v)
    kin, M = mb.kin, mb.M
    # (h - g)[:3] with g[:3] = M[:3, :3] a_g, a_g = (-R_base.T g, 0)
    coriolis = mb.h[:3] + M[:3, :2] @ (GRAVITY @ kin.R[0])
    m_tot = model.total_mass
    base = kin.pose[0]
    p_G = se2.act(base, np.array([M[1, 2], -M[0, 2]]) / M[0, 0])
    rel = base.copy()
    rel[:2] -= p_G
    XGt = motion_transform(rel).T
    A_G = XGt @ M[:3]
    momentum = A_G @ v
    return CentroidalQuantities(
        p_G=p_G,
        k_G=float(momentum[2]),
        A_G=A_G,
        v_G=momentum[:2] / m_tot,
        Adot_v=XGt @ coriolis,
    )
