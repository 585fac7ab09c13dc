"""Cost weights, friction-cone geometry, and quadratic penalty primitives.

All cost terms follow the convention ``cost = sum_i w_i * r_i**2`` (no 1/2
factor), so gradients are ``2 J^T W r`` and Gauss-Newton Hessians are
``2 J^T W J``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import RobotModel


@dataclass
class CostWeights:
    """Diagonal weights of the one running/terminal cost.

    Q, N, R weight posture, velocity, and control regularization about the
    reference posture ``q_ref``.  The penalty scales of the other cost terms
    are constants of ``problem``, beside the code that reads them.
    """

    Q: np.ndarray
    N: np.ndarray
    R: np.ndarray
    q_ref: np.ndarray

    def __post_init__(self):
        for name in ("Q", "N", "R", "q_ref"):
            setattr(self, name, np.asarray(getattr(self, name), float))
        for name in ("Q", "N", "R"):
            if np.any(getattr(self, name) < 0):
                raise ConfigError(f"cost weight {name} has negative entries")


def default_weights(model: RobotModel, q_ref: np.ndarray) -> CostWeights:
    """Weights that keep a torque-actuated quadruped near its posture."""
    nv, nu = model.nv, model.nu
    Q = np.concatenate([[0.0, 50.0, 100.0], np.full(nv - 3, 2.0)])
    N = np.concatenate([[2.0, 2.0, 2.0], np.full(nv - 3, 0.2)])
    R = np.full(nu, 5e-4)
    return CostWeights(Q=Q, N=N, R=R, q_ref=np.asarray(q_ref, float))


@dataclass
class Bounds:
    """Box bounds on joint coordinates/velocities and torques.

    Base rows are unbounded (±inf); only joint entries are finite.
    """

    q_lb: np.ndarray
    q_ub: np.ndarray
    v_lb: np.ndarray
    v_ub: np.ndarray
    u_lb: np.ndarray
    u_ub: np.ndarray

    def __post_init__(self):
        for name in ("q_lb", "q_ub", "v_lb", "v_ub", "u_lb", "u_ub"):
            setattr(self, name, np.asarray(getattr(self, name), float))
        if np.any(self.u_lb > self.u_ub) or np.any(self.q_lb > self.q_ub):
            raise ConfigError("lower bound exceeds upper bound")


def default_bounds(model: RobotModel, q_nominal: np.ndarray,
                   joint_range: float = 1.6, v_limit: float = 30.0) -> Bounds:
    nq, nv = model.nq, model.nv
    q_lb = np.full(nq, -np.inf)
    q_ub = np.full(nq, np.inf)
    q_lb[3:] = q_nominal[3:] - joint_range
    q_ub[3:] = q_nominal[3:] + joint_range
    v_lb = np.full(nv, -np.inf)
    v_ub = np.full(nv, np.inf)
    v_lb[3:] = -v_limit
    v_ub[3:] = v_limit
    u_max = np.asarray(model.torque_limit, float)
    return Bounds(q_lb, q_ub, v_lb, v_ub, -u_max, u_max)


# ------------------------------------------------------------ friction cone

@dataclass(frozen=True)
class FrictionCone:
    mu: float
    rotation: float = 0.0     # surface normal angle from world vertical, rad
    lambda_min: float = 0.0

    def __post_init__(self):
        if self.mu < 0 or self.lambda_min < 0:
            raise ConfigError("friction cone needs mu >= 0 and lambda_min >= 0")


def cone_matrices(cone: FrictionCone) -> tuple[np.ndarray, np.ndarray]:
    """Half-space form (C, c) of the planar cone: feasible iff C @ lam >= c.

    Rows express |t| <= mu*n and n >= lambda_min with (t, n) the force in the
    surface frame; the rotation maps world forces into that frame, so the
    planar cone is represented exactly (no inner approximation needed).
    """
    A = np.array([[-1.0, cone.mu],
                  [1.0, cone.mu],
                  [0.0, 1.0]])
    th = cone.rotation
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    C = A @ R.T
    c = np.array([0.0, 0.0, cone.lambda_min])
    return C, c


def cone_violation(C: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Cone violation of stacked contact forces, the cone penalty's residual.

    ``lam`` stacks one (fx, fy) pair per contact.  The residual stacks
    max(0, c - C lam_k) per contact (3 rows each), so its weighted square is
    the cone penalty.  Leading axes of ``lam`` carry through.
    """
    lead, n = lam.shape[:-1], lam.shape[-1] // 2
    return np.maximum(0.0, c - lam.reshape(lead + (n, 2)) @ C.T).reshape(lead + (3 * n,))


def cone_residual(C: np.ndarray, c: np.ndarray, lam: np.ndarray):
    """``cone_violation`` and its Jacobian in the forces: (3n, 2n), block
    diagonal with -C on the violated rows and zero on the others."""
    lead, n = lam.shape[:-1], lam.shape[-1] // 2
    r = cone_violation(C, c, lam)
    J = np.zeros(lead + (n, 3, n, 2))
    k = np.arange(n)
    J[..., k, :, k, :] = -C
    J[r.reshape(lead + (n, 3)) == 0.0] = 0.0
    return r, J.reshape(lead + (3 * n, 2 * n))


# ----------------------------------------------------------- bound penalty

def interval_violation(z: np.ndarray, lb: np.ndarray, ub: np.ndarray):
    """Signed distance outside [lb, ub], zero inside."""
    return np.maximum(0.0, z - ub) + np.minimum(0.0, z - lb)

