"""Centroidal momentum quantities and state-dimension bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se2
from .kinematics import forward_kinematics, motion_transform
from .model import RobotModel


@dataclass
class CentroidalQuantities:
    p_G: np.ndarray        # centre of mass, world frame (2,)
    l_G: np.ndarray        # linear momentum (2,)
    k_G: float             # angular momentum about the centre of mass
    A_G: np.ndarray        # centroidal momentum matrix (3, nv), rows (lx, ly, k)
    I_G: float             # locked rotational inertia about the centre of mass
    v_G: np.ndarray        # centre-of-mass velocity l_G / m (2,)


def centroidal(model: RobotModel, q: np.ndarray, v: np.ndarray) -> CentroidalQuantities:
    q = model.check_q(q)
    v = model.check_v(v)
    kin = forward_kinematics(model, q)
    B = kin.B
    inertias = model.spatial_inertias
    m_tot = model.total_mass

    coms = np.empty((model.nbodies, 2))
    for i, b in enumerate(model.bodies):
        coms[i] = se2.act(kin.pose[i], np.asarray(b.com))
    p_G = (np.array([b.mass for b in model.bodies]) @ coms) / m_tot

    # momentum of body i in its own frame is I_i B_i v; forces transform
    # covariantly, so pushing it into a world-aligned frame at the centre of
    # mass uses the transpose of the motion transform CoM-frame -> body
    A_G = np.zeros((3, model.nv))
    I_G = 0.0
    for i, b in enumerate(model.bodies):
        rel = kin.pose[i].copy()
        rel[:2] -= p_G
        A_G += motion_transform(rel).T @ (inertias[i] @ B[i])
        d = coms[i] - p_G
        I_G += b.inertia + b.mass * float(d @ d)

    h = A_G @ v
    return CentroidalQuantities(
        p_G=p_G,
        l_G=h[:2],
        k_G=float(h[2]),
        A_G=A_G,
        I_G=float(I_G),
        v_G=h[:2] / m_tot,
    )


def dimension_table(nv: int, nu: int, n_f: int, momentum_dim: int) -> dict[str, int]:
    """State-plus-control counts of the two standard transcription choices.

    The full-body optimal-control transcription carries (q, v) states and
    torque controls; the centroidal transcription carries momenta plus
    configuration and treats generalized velocity and contact forces as
    decision inputs.
    """
    return {
        "fullbody": 2 * nv + nu,
        "centroidal": (momentum_dim + nv) + (nv + n_f),
    }


def model_dimensions(model: RobotModel, active_contacts: int) -> dict[str, int]:
    """Decision-variable counts per node for the planar model (momentum dim 3)."""
    n_f = 2 * int(active_contacts)
    table = dimension_table(model.nv, model.nu, n_f, momentum_dim=3)
    table["n_f"] = n_f
    table["nv"] = model.nv
    table["nu"] = model.nu
    return table


def crossover_force_dimension(nv: int, momentum_dim: int = 3) -> int:
    """Contact-force dimension at which both transcriptions have equal size.

    fullbody = 2*nv + (nv - momentum_dim); centroidal = momentum_dim + 2*nv + n_f.
    """
    return nv - 2 * momentum_dim
