"""Shared fixtures and finite-difference utilities for the test suite."""

from __future__ import annotations

import numpy as np

from leggedmpc import model as mod
from leggedmpc import presets, se2


def fd_jacobian(f, x, eps=1e-6):
    """Central-difference Jacobian of f: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        fp = np.atleast_1d(np.asarray(f(x + dx), dtype=float))
        fm = np.atleast_1d(np.asarray(f(x - dx), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def fd_config_jacobian(m, f, q, eps=1e-6):
    """Central-difference Jacobian w.r.t. right tangent perturbations of q."""
    f0 = np.atleast_1d(np.asarray(f(q), dtype=float))
    J = np.empty((f0.size, m.nv))
    for i in range(m.nv):
        dq = np.zeros(m.nv)
        dq[i] = eps
        fp = np.atleast_1d(np.asarray(f(mod.integrate_q(m, q, dq)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(mod.integrate_q(m, q, -dq)), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def fd_state_jacobian(m, f, x, eps=1e-6):
    """Central-difference Jacobian w.r.t. the 2*nv state tangent, manifold-aware."""
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((f0.size, 2 * m.nv))
    for i in range(2 * m.nv):
        dx = np.zeros(2 * m.nv)
        dx[i] = eps
        fp = np.atleast_1d(np.asarray(f(mod.integrate(m, x, dx)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(mod.integrate(m, x, -dx)), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def random_state(m, rng, spread=0.3, base_height=None):
    q = presets.nominal_configuration(m) if m.name == "planar_quadruped" else np.zeros(m.nq)
    q = q + spread * rng.normal(size=m.nq)
    if base_height is not None:
        q[1] = base_height
    v = spread * rng.normal(size=m.nv)
    return np.concatenate([mod.normalize_q(q), v])


# ------------------------------------------------- per-body reference passes
#
# The multibody recursions written one body at a time, as in Featherstone's
# *Rigid Body Dynamics Algorithms* (2008): forward kinematics, RNEA and the
# composite-rigid-body mass matrix.  The package evaluates the same
# quantities one tree depth at a time; these loops are the oracle it is
# checked against.

def ref_joint_pose(m, joint, q):
    """Pose of body ``joint`` in its parent's frame (root: in the world)."""
    j = m.joints[joint]
    if j.parent < 0:
        return np.asarray(q[:3], dtype=float)
    return se2.compose(np.asarray(j.placement, dtype=float),
                       np.array([0.0, 0.0, q[3 + joint - 1]]))


def ref_motion_transform(pose):
    RT = se2.rot(pose[2]).T
    X = np.zeros((3, 3))
    X[:2, :2] = RT
    X[:2, 2] = RT @ np.array([-pose[1], pose[0]])
    X[2, 2] = 1.0
    return X


def ref_crm(v):
    vx, vy, w = v
    return np.array([[0.0, -w, vy], [w, 0.0, -vx], [0.0, 0.0, 0.0]])


def ref_crf(v):
    return -ref_crm(v).T


def ref_inertia(body):
    cx, cy = body.com
    mass = body.mass
    return np.array([[mass, 0.0, -mass * cy],
                     [0.0, mass, mass * cx],
                     [-mass * cy, mass * cx,
                      body.inertia + mass * (cx * cx + cy * cy)]])


def ref_forward_kinematics(m, q):
    """(pose, X, B): world poses, parent->body transforms, body Jacobians."""
    nb = m.nbodies
    pose = np.empty((nb, 3))
    X = np.empty((nb, 3, 3))
    B = np.zeros((nb, 3, m.nv))
    for i in range(nb):
        rel = ref_joint_pose(m, i, q)
        X[i] = ref_motion_transform(rel)
        p = m.joints[i].parent
        pose[i] = rel if p < 0 else se2.compose(pose[p], rel)
        if p < 0:
            B[i, :, :3] = np.eye(3)
        else:
            B[i] = X[i] @ B[p]
            B[i, 2, 2 + i] += 1.0
    return pose, X, B


def ref_twists_and_bias(m, q, v):
    """Body twists and body accelerations at zero acceleration, no gravity."""
    _, X, _ = ref_forward_kinematics(m, q)
    nb = m.nbodies
    tw = np.empty((nb, 3))
    acc = np.zeros((nb, 3))
    tw[0] = v[:3]
    for i in range(1, nb):
        p = m.joints[i].parent
        Svj = np.array([0.0, 0.0, v[2 + i]])
        tw[i] = X[i] @ tw[p] + Svj
        acc[i] = X[i] @ acc[p] + ref_crm(tw[i]) @ Svj
    return tw, acc


def ref_rnea(m, q, v, a, contact_forces=None):
    """tau = M a + h - J_C.T lambda, one body at a time."""
    pose, X, _ = ref_forward_kinematics(m, q)
    nb = m.nbodies
    tw = np.empty((nb, 3))
    ac = np.empty((nb, 3))
    tw[0] = v[:3]
    ac[0] = X[0] @ np.array([-m.gravity[0], -m.gravity[1], 0.0]) + a[:3]
    for i in range(1, nb):
        p = m.joints[i].parent
        Svj = np.array([0.0, 0.0, v[2 + i]])
        tw[i] = X[i] @ tw[p] + Svj
        ac[i] = (X[i] @ ac[p] + np.array([0.0, 0.0, a[2 + i]])
                 + ref_crm(tw[i]) @ Svj)
    f = np.empty((nb, 3))
    for i in range(nb):
        I = ref_inertia(m.bodies[i])
        f[i] = I @ ac[i] + ref_crf(tw[i]) @ (I @ tw[i])
    for frame, lam in (contact_forces or {}).items():
        c = m.contact_frames[frame]
        fl = se2.rot(pose[c.body, 2]).T @ np.asarray(lam, dtype=float)
        rx, ry = c.offset
        f[c.body, :2] -= fl
        f[c.body, 2] -= rx * fl[1] - ry * fl[0]
    tau = np.zeros(m.nv)
    for i in range(nb - 1, 0, -1):
        tau[2 + i] = f[i, 2] + m.reflected_inertia[i - 1] * a[2 + i]
        f[m.joints[i].parent] += X[i].T @ f[i]
    tau[:3] = f[0]
    return tau


def ref_mass_matrix(m, q):
    """Composite-rigid-body algorithm."""
    _, X, _ = ref_forward_kinematics(m, q)
    nb, nv = m.nbodies, m.nv
    Ic = np.array([ref_inertia(b) for b in m.bodies])
    for i in range(nb - 1, 0, -1):
        Ic[m.joints[i].parent] += X[i].T @ Ic[i] @ X[i]
    M = np.zeros((nv, nv))
    M[:3, :3] = Ic[0]
    for i in range(1, nb):
        F = Ic[i][:, 2].copy()
        row = 2 + i
        M[row, row] = F[2] + m.reflected_inertia[i - 1]
        j = i
        while m.joints[j].parent >= 0:
            F = X[j].T @ F
            j = m.joints[j].parent
            if j == 0:
                M[row, :3] = F
                M[:3, row] = F
            else:
                M[row, 2 + j] = F[2]
                M[2 + j, row] = F[2]
    return M


def _ref_perp(u):
    return np.array([-u[1], u[0]])


def ref_frame_motion(m, q, v, frames):
    """Per-frame world position, velocity, acceleration bias and Jacobian rows."""
    pose, _, B = ref_forward_kinematics(m, q)
    tw, acc = ref_twists_and_bias(m, q, v)
    pos, vel, bias, jac = [], [], [], []
    for f in frames:
        c = m.contact_frames[f]
        r = np.asarray(c.offset, dtype=float)
        R = se2.rot(pose[c.body, 2])
        t, a = tw[c.body], acc[c.body]
        pos.append(se2.act(pose[c.body], r))
        vel.append(R @ (t[:2] + t[2] * _ref_perp(r)))
        bias.append(R @ (a[:2] + a[2] * _ref_perp(r)
                         + t[2] * _ref_perp(t[:2] + t[2] * _ref_perp(r))))
        Bb = B[c.body]
        jac.append(R @ (Bb[:2] + np.outer(_ref_perp(r), Bb[2])))
    k = len(frames)
    return (np.array(pos).reshape(k, 2), np.array(vel).reshape(k, 2),
            np.array(bias).reshape(2 * k), np.array(jac).reshape(2 * k, m.nv))


def ref_centroidal(m, q):
    """(p_G, A_G, I_G) summed body by body.

    The momentum of body i in its own frame is I_i B_i v; forces transform
    covariantly, so pushing it into a world-aligned frame at the centre of
    mass uses the transpose of the motion transform CoM frame -> body.
    """
    pose, _, B = ref_forward_kinematics(m, q)
    coms = np.array([se2.act(pose[i], np.asarray(b.com))
                     for i, b in enumerate(m.bodies)])
    masses = np.array([b.mass for b in m.bodies])
    p_G = masses @ coms / masses.sum()
    A_G = np.zeros((3, m.nv))
    I_G = 0.0
    for i, b in enumerate(m.bodies):
        rel = pose[i].copy()
        rel[:2] -= p_G
        A_G += ref_motion_transform(rel).T @ ref_inertia(b) @ B[i]
        d = coms[i] - p_G
        I_G += b.inertia + b.mass * float(d @ d)
    return p_G, A_G, I_G


def fd_centroidal_bias(m, q, v, eps=2.0 ** -17):
    """Momentum-matrix drift (dA_G/dt) v by central differences.

    A_G depends on the configuration only, so the difference of A_G(q) v
    with q flowing along v matches the directional derivative to O(eps^2).
    """
    qp = mod.integrate_q(m, q, eps * v)
    qm = mod.integrate_q(m, q, -eps * v)
    return (ref_centroidal(m, qp)[1] @ v - ref_centroidal(m, qm)[1] @ v) / (2.0 * eps)
