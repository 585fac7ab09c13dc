"""Planar multibody model and the state-manifold operations.

A model is a kinematic tree of planar rigid bodies rooted at exactly one
floating base.  Configurations are ``q = (base pose in SE(2), joint angles)``
and velocities are tangent vectors ``v = (base twist in body frame, joint
rates)`` with the ordering (linear x, linear y, angular, joints) fixed
everywhere in the package.  The configuration manifold is SE(2) x R^nj, so
``integrate``/``difference`` compose the base block through the group
exponential/logarithm and treat joints additively.  The state functions
take stacked states (leading axes) too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels, se2
from .errors import DimensionMismatch

FLOATING = "floating"
REVOLUTE = "revolute"

GRAVITY = np.array([0.0, -9.81])    # world gravity, m/s^2, for every model


@dataclass(frozen=True)
class Body:
    name: str
    mass: float
    com: tuple[float, float]     # centre of mass in the body frame
    inertia: float               # rotational inertia about the centre of mass


@dataclass(frozen=True)
class Joint:
    kind: str                    # FLOATING (root only) or REVOLUTE
    parent: int                  # parent body index, -1 for the world
    placement: tuple[float, float, float]  # joint frame in the parent body frame


@dataclass(frozen=True)
class ContactFrame:
    name: str
    body: int
    offset: tuple[float, float]  # point in the body frame


def spatial_inertia(mass: float, com, inertia: float) -> np.ndarray:
    """Planar spatial inertia (3, 3) of a body about its frame origin."""
    cx, cy = com
    return np.array(
        [
            [mass, 0.0, -mass * cy],
            [0.0, mass, mass * cx],
            [-mass * cy, mass * cx, inertia + mass * (cx * cx + cy * cy)],
        ]
    )


@dataclass(frozen=True)
class TreeLevel:
    """The bodies at one depth of the tree (depth >= 1), with their parents.

    ``axes`` (n, 3, nv) are their joint motion subspaces: a unit angular
    rate in the body's velocity column ``2 + body``.  Every parent sits one
    level up, so a pass over the levels in order sees each parent finished
    before its children.  ``at`` and ``parents_at`` index the bodies and
    the parents in a per-body array: a basic slice where they run evenly
    upwards (a quadruped's legs), so the passes read and write views, and a
    parent that all of them share as a one-row slice, which broadcasts.
    ``siblings`` tells whether two of the bodies share a parent.
    """

    bodies: np.ndarray
    parents: np.ndarray
    axes: np.ndarray
    at: slice | np.ndarray
    parents_at: slice | np.ndarray
    siblings: bool


@dataclass(frozen=True)
class FramePlan:
    """How one state's pass reads a tuple of contact frames.

    ``at`` indexes the frames' bodies in a per-body array: a basic slice
    where they run evenly upwards (a quadruped's feet), so the gathers are
    views, else an index array.  ``bodies`` holds the body of each frame
    and ``offsets`` (k, 2) the frames' points in their body frames;
    ``shared`` tells whether two of the frames sit on one body.
    """

    at: slice | np.ndarray
    bodies: tuple[int, ...]
    offsets: np.ndarray
    shared: bool


@dataclass
class RobotModel:
    """Immutable description of a planar floating-base kinematic tree.

    ``bodies[i]`` moves through ``joints[i]``; ``joints[0]`` must be the
    floating root.  ``torque_limits`` bound the actuated (revolute) joints
    symmetrically unless explicit lower bounds are given.

    The constructor also lays the tree out as arrays for the level-batched
    passes of ``kinematics`` and ``dynamics``: ``levels`` (one
    ``TreeLevel`` per depth below the root), the joint ``placements``
    (nb, 3), the body ``spatial_inertias`` (nb, 3, 3), and the body index
    and offset of each contact frame (``contact_bodies``,
    ``contact_offsets``).  ``S`` (nv, nu) is the actuation map: joint
    torques u enter the dynamics as the generalized force S u, zero on the
    base rows.  ``frame_plan`` builds, once per tuple of contact frames,
    how one state's pass reads those frames.
    """

    name: str
    bodies: list[Body]
    joints: list[Joint]
    contact_frames: list[ContactFrame]
    torque_limit: np.ndarray          # (nu,) positive; bounds are [-tl, +tl]
    levels: tuple[TreeLevel, ...] = field(init=False, repr=False, compare=False)
    placements: np.ndarray = field(init=False, repr=False, compare=False)
    spatial_inertias: np.ndarray = field(init=False, repr=False, compare=False)
    contact_bodies: np.ndarray = field(init=False, repr=False, compare=False)
    contact_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    S: np.ndarray = field(init=False, repr=False, compare=False)
    _frame_plans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bodies) != len(self.joints):
            raise DimensionMismatch("one joint per body required")
        if not self.bodies:
            raise DimensionMismatch("empty model")
        if self.joints[0].kind != FLOATING or self.joints[0].parent != -1:
            raise DimensionMismatch("joints[0] must be the floating root")
        for i, j in enumerate(self.joints[1:], start=1):
            if j.kind != REVOLUTE:
                raise DimensionMismatch("only one floating joint allowed (at the root)")
            if not (0 <= j.parent < i):
                raise DimensionMismatch(f"joint {i} parent {j.parent} breaks tree ordering")
        for b in self.bodies:
            if b.mass <= 0.0:
                raise DimensionMismatch(f"body {b.name}: mass must be positive")
            if b.inertia < 0.0:
                raise DimensionMismatch(f"body {b.name}: inertia must be non-negative")
        self.torque_limit = np.asarray(self.torque_limit, dtype=float).reshape(self.nu)
        if np.any(self.torque_limit <= 0.0):
            raise DimensionMismatch("torque limits must be positive")
        for c in self.contact_frames:
            if not (0 <= c.body < len(self.bodies)):
                raise DimensionMismatch(f"contact frame {c.name}: bad body index")
        self._lay_out_tree()

    def _lay_out_tree(self):
        depth = [0]
        for j in self.joints[1:]:
            depth.append(depth[j.parent] + 1)
        levels = []
        for d in range(1, max(depth) + 1):
            bodies = np.array([i for i in range(self.nbodies) if depth[i] == d])
            parents = np.array([self.joints[i].parent for i in bodies])
            axes = np.zeros((len(bodies), 3, self.nv))
            axes[np.arange(len(bodies)), 2, bodies + 2] = 1.0
            p = parents.tolist()
            parents_at = (slice(p[0], p[0] + 1) if len(set(p)) == 1
                          else _kernels.basic_index(p))
            levels.append(TreeLevel(bodies, parents, axes,
                                    _kernels.basic_index(bodies.tolist()), parents_at,
                                    len(set(p)) < len(p)))
        self.levels = tuple(levels)
        self.placements = np.array([j.placement for j in self.joints], dtype=float)
        self.spatial_inertias = np.array(
            [spatial_inertia(b.mass, b.com, b.inertia) for b in self.bodies])
        self.contact_bodies = np.array([c.body for c in self.contact_frames],
                                       dtype=int)
        self.contact_offsets = np.array([c.offset for c in self.contact_frames],
                                        dtype=float).reshape(-1, 2)
        self.S = np.eye(self.nv, self.nu, -3)
        self._frame_plans = {}

    def frame_plan(self, frames) -> FramePlan:
        """The ``FramePlan`` of the contact frames ``frames`` (a sequence of
        frame indices), built on first use and kept per frames tuple."""
        key = frames if type(frames) is tuple else tuple(np.asarray(frames).tolist())
        plan = self._frame_plans.get(key)
        if plan is None:
            bodies = tuple(self.contact_frames[f].body for f in key)
            offsets = self.contact_offsets[list(key)]
            offsets.flags.writeable = False
            plan = self._frame_plans[key] = FramePlan(
                _kernels.basic_index(list(bodies)) if bodies else slice(0, 0),
                bodies, offsets, len(set(bodies)) < len(bodies))
        return plan

    # ---- dimensions (the tree never changes, so each is computed once) ----
    @cached_property
    def nj(self) -> int:
        return len(self.joints) - 1

    @cached_property
    def nv(self) -> int:
        return 3 + self.nj

    @cached_property
    def nq(self) -> int:
        return 3 + self.nj

    @cached_property
    def nu(self) -> int:
        return self.nj

    @cached_property
    def nbodies(self) -> int:
        return len(self.bodies)

    @property
    def total_mass(self) -> float:
        return float(sum(b.mass for b in self.bodies))

    def check_q(self, q: np.ndarray) -> np.ndarray:
        return _check(q, self.nq, "q")

    def check_v(self, v: np.ndarray) -> np.ndarray:
        return _check(v, self.nv, "v")


def _check(a, n: int, name: str) -> np.ndarray:
    """``a`` as floats, its last axis of length n; leading axes index a batch."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (n,):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected (..., {n})")
    return a


def normalize_q(q: np.ndarray) -> np.ndarray:
    q = np.array(q, dtype=float)
    q[..., 2] = se2.wrap_angle(q[..., 2])
    return q


def state(model: RobotModel, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pack (q, v) into a single state vector with the base angle wrapped."""
    q = normalize_q(model.check_q(q))
    v = model.check_v(v)
    return np.concatenate([q, v], -1)


def split_state(model: RobotModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _check(x, model.nq + model.nv, "x")
    return x[..., : model.nq], x[..., model.nq:]


# ---- manifold operations ------------------------------------------------

def integrate_q(model: RobotModel, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Configuration update q (+) dq: SE(2) composition for the base, additive joints."""
    q = model.check_q(q)
    dq = model.check_v(dq)
    if q.ndim == dq.ndim == 1:      # one pose: SE(2) on floats (``se2``)
        out = q + dq
        out[:3] = se2._compose1(q[:3].tolist(), se2._exp1(*dq[:3].tolist()))
        return out
    base = se2.compose(q[..., :3], se2.exp(dq[..., :3]))
    return np.concatenate([base, q[..., 3:] + dq[..., 3:]], -1)


def difference_q(model: RobotModel, q1: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Tangent dq with q0 (+) dq = q1; base part via the SE(2) logarithm."""
    q1 = model.check_q(q1)
    q0 = model.check_q(q0)
    if q1.ndim == q0.ndim == 1:
        out = q1 - q0
        out[:3] = se2._log1(*se2._compose1(se2._inverse1(*q0[:3].tolist()),
                                           q1[:3].tolist()))
        return out
    base = se2.log(se2.compose(se2.inverse(q0[..., :3]), q1[..., :3]))
    return np.concatenate([base, q1[..., 3:] - q0[..., 3:]], -1)


def integrate(model: RobotModel, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """State update x (+) dx for a full tangent vector dx of size 2*nv."""
    dx = _check(dx, 2 * model.nv, "dx")
    q, v = split_state(model, x)
    qn = integrate_q(model, q, dx[..., : model.nv])
    return np.concatenate([qn, v + dx[..., model.nv:]], -1)


def difference(model: RobotModel, x1: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Tangent dx with x0 (+) dx = x1."""
    q1, v1 = split_state(model, x1)
    q0, v0 = split_state(model, x0)
    return np.concatenate([difference_q(model, q1, q0), v1 - v0], -1)


def semi_implicit_step(model: RobotModel, q: np.ndarray, v: np.ndarray,
                       vdot: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Velocity first, then configuration with the updated velocity."""
    v_next = v + dt * np.asarray(vdot, dtype=float)
    q_next = integrate_q(model, q, dt * v_next)
    return q_next, v_next


# ---- integrator chain-rule blocks ----------------------------------------

def _with_base_block(model: RobotModel, block: np.ndarray) -> np.ndarray:
    """Identity (nv, nv) matrices, one per leading index, with base block ``block``."""
    J = np.zeros(block.shape[:-2] + (model.nv, model.nv))
    J[..., :, :] = _kernels.eye(model.nv)
    J[..., :3, :3] = block
    return J


def dintegrate_q(model: RobotModel, dq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of integrate_q(q, dq) w.r.t. right perturbations of q and dq.

    Returns (Jq, Jdq), each (nv, nv):
        integrate_q(q (+) e, dq)  =  integrate_q(q, dq) (+) Jq e   + O(e^2)
        integrate_q(q, dq + e)    =  integrate_q(q, dq) (+) Jdq e  + O(e^2)
    """
    base = model.check_v(dq)[..., :3]
    return (_with_base_block(model, se2.adjoint(se2.inverse(se2.exp(base)))),
            _with_base_block(model, se2.right_jacobian(base)))


def ddifference_q(model: RobotModel, q1: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Jacobian of difference_q(q1, q0) w.r.t. a right perturbation of q1."""
    return ddifference_q_at(model, difference_q(model, q1, q0))


def ddifference_q_at(model: RobotModel, dq: np.ndarray) -> np.ndarray:
    """``ddifference_q`` from the difference ``dq = difference_q(q1, q0)``,
    for a caller that already holds it."""
    return _with_base_block(model, se2.right_jacobian_inv(dq[..., :3]))
