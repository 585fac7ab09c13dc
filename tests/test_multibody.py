from dataclasses import replace

import numpy as np
import pytest

from leggedmpc import dynamics, kinematics, presets, se2
from leggedmpc import contact as ct
from leggedmpc import model as mod
from leggedmpc.errors import DimensionMismatch

from helpers import (base_pendulum, centroidal_at, fd_config_jacobian, frame_motion_at,
                     random_state, single_body)


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


# ---------------------------------------------------------------- state ops

def test_integrate_pure_translation(quad):
    x = presets.nominal_state(quad)
    dx = np.zeros(2 * quad.nv)
    dx[0] = 1.0
    xn = mod.integrate(quad, x, 0.1 * dx)
    assert np.isclose(xn[0] - x[0], 0.1)
    assert np.isclose(xn[1], x[1])
    assert np.isclose(xn[2], 0.0)


def test_integrate_rotation_wraps_across_seam(quad):
    q = presets.nominal_configuration(quad)
    q[2] = np.pi - 0.1
    v = np.zeros(quad.nv)
    v[2] = 2.0
    qn = mod.integrate_q(quad, q, 0.1 * v)
    # oracle: compose rotation matrices and read the angle back via atan2
    R = se2.rot(np.pi - 0.1) @ se2.rot(0.2)
    assert np.isclose(qn[2], np.arctan2(R[1, 0], R[0, 0]), atol=1e-12)
    assert np.isclose(qn[2], -(np.pi - 0.1), atol=1e-12)


def test_difference_inverts_integrate(quad):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x0 = random_state(quad, rng, spread=1.0)
        dx = rng.normal(size=2 * quad.nv)
        dx[2] = np.clip(dx[2], -3.0, 3.0)  # stay inside the log's domain
        x1 = mod.integrate(quad, x0, dx)
        assert np.allclose(mod.difference(quad, x1, x0), dx, atol=1e-12)
        back = mod.integrate(quad, x0, mod.difference(quad, x1, x0))
        assert np.allclose(back, x1, atol=1e-12)


def test_difference_short_way_across_seam(quad):
    x0 = presets.nominal_state(quad)
    x1 = x0.copy()
    x0[2] = np.pi - 0.05
    x1[2] = -np.pi + 0.05
    d = mod.difference(quad, x1, x0)
    assert np.isclose(d[2], 0.1, atol=1e-12)


def test_integrate_dimension_mismatch(quad):
    with pytest.raises(DimensionMismatch):
        mod.integrate(quad, presets.nominal_state(quad), np.zeros(quad.nv))
    with pytest.raises(DimensionMismatch):
        mod.integrate_q(quad, np.zeros(4), np.zeros(quad.nv))


@pytest.mark.parametrize("change, match", [
    (lambda m: dict(joints=m.joints[:1]), "one joint per body"),
    (lambda m: dict(bodies=[], joints=[], contact_frames=[], torque_limit=[]),
     "empty model"),
    (lambda m: dict(joints=[replace(m.joints[0], kind=mod.REVOLUTE), m.joints[1]]),
     "floating root"),
    (lambda m: dict(joints=[m.joints[0], replace(m.joints[1], kind=mod.FLOATING)]),
     "only one floating joint"),
    (lambda m: dict(joints=[m.joints[0], replace(m.joints[1], parent=1)]),
     "breaks tree ordering"),
    (lambda m: dict(bodies=[m.bodies[0], replace(m.bodies[1], mass=0.0)]),
     "mass must be positive"),
    (lambda m: dict(bodies=[m.bodies[0], replace(m.bodies[1], inertia=-0.1)]),
     "inertia must be non-negative"),
    (lambda m: dict(torque_limit=[0.0]), "torque limits must be positive"),
    (lambda m: dict(contact_frames=[replace(m.contact_frames[0], body=2)]),
     "bad body index"),
], ids=["count", "empty", "root", "second_floating", "parent_order", "mass",
        "inertia", "torque_limit", "contact_body"])
def test_model_rejects_a_malformed_tree(change, match):
    m = base_pendulum()
    parts = dict(name=m.name, bodies=m.bodies, joints=m.joints,
                 contact_frames=m.contact_frames, torque_limit=m.torque_limit)
    with pytest.raises(DimensionMismatch, match=match):
        mod.RobotModel(**{**parts, **change(m)})


def test_integrate_chain_rule_blocks(quad):
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = mod.normalize_q(rng.normal(size=quad.nq))
        dq = rng.normal(size=quad.nv)
        Jq, Jdq = mod.dintegrate_q(quad, dq)
        base = mod.integrate_q(quad, q, dq)

        def wrt_q(qq):
            return mod.difference_q(quad, mod.integrate_q(quad, qq, dq), base)

        def wrt_dq(d):
            return mod.difference_q(quad, mod.integrate_q(quad, q, dq + d), base)

        Jq_fd = fd_config_jacobian(quad, wrt_q, q)
        assert np.allclose(Jq_fd, Jq, atol=1e-6)
        eps = 1e-6
        Jdq_fd = np.empty((quad.nv, quad.nv))
        for i in range(quad.nv):
            d = np.zeros(quad.nv)
            d[i] = eps
            Jdq_fd[:, i] = (wrt_dq(d) - wrt_dq(-d)) / (2 * eps)
        assert np.allclose(Jdq_fd, Jdq, atol=1e-6)


# ---------------------------------------------------------------- dynamics

def test_static_single_body_wrench():
    sb = single_body(mass=2.5, inertia=0.2)
    tau = dynamics.rnea(sb, np.zeros(3), np.zeros(3), np.zeros(3))
    assert np.allclose(tau, [0.0, 2.5 * 9.81, 0.0], atol=1e-12)


def test_static_pendulum_torque():
    pend = base_pendulum(mass=1.3, length=0.4)
    for th in (0.3, -1.1, 2.0, 0.0):
        q = np.array([0.0, 0.0, 0.0, th])
        tau = dynamics.rnea(pend, q, np.zeros(4), np.zeros(4))
        assert np.isclose(tau[3], 1.3 * 9.81 * 0.4 * np.sin(th), atol=1e-12)


def test_single_body_mass_matrix_closed_form():
    sb = single_body(mass=3.0, inertia=0.7, com=(0.2, -0.1))
    M = dynamics.multibody(sb, np.zeros(3), np.zeros(3)).M
    cx, cy, m, I = 0.2, -0.1, 3.0, 0.7
    expected = np.array(
        [
            [m, 0.0, -m * cy],
            [0.0, m, m * cx],
            [-m * cy, m * cx, I + m * (cx * cx + cy * cy)],
        ]
    )
    assert np.allclose(M, expected, atol=1e-14)


def test_mass_matrix_matches_rnea_probing(quad):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = random_state(quad, rng, spread=0.5)
        q = x[: quad.nq]
        M = dynamics.multibody(quad, q, np.zeros(quad.nv)).M
        g = dynamics.gravity_torque(quad, q)
        for i in range(quad.nv):
            e = np.zeros(quad.nv)
            e[i] = 1.0
            col = dynamics.rnea(quad, q, np.zeros(quad.nv), e) - g
            assert np.allclose(M[:, i], col, atol=1e-10)
        assert np.abs(M - M.T).max() < 1e-12
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_rnea_linear_in_contact_forces(quad):
    rng = np.random.default_rng(4)
    x = random_state(quad, rng)
    q, v = x[: quad.nq], x[quad.nq:]
    a = rng.normal(size=quad.nv)
    lam = np.array([[3.0, -1.0], [0.5, 7.0]])
    tau = dynamics.rnea(quad, q, v, a, ((0, 2), lam))
    tau_free = dynamics.rnea(quad, q, v, a)
    J0 = ct.contact_jacobian_stack(quad, q, [0])
    J2 = ct.contact_jacobian_stack(quad, q, [2])
    expected = tau_free - J0.T @ lam[0] - J2.T @ lam[1]
    assert np.allclose(tau, expected, atol=1e-10)


# ---------------------------------------------------------------- kinematics

def test_contact_jacobian_matches_fd(quad):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_state(quad, rng, spread=0.6)
        q = x[: quad.nq]
        frames = [0, 1, 2, 3]
        J = ct.contact_jacobian_stack(quad, q, frames)

        def pos(qq):
            kin = kinematics.forward_kinematics(quad, qq)
            return kinematics.frame_positions(quad, kin, frames).ravel()

        J_fd = fd_config_jacobian(quad, pos, q)
        assert np.abs(J - J_fd).max() < 1e-6


def test_frame_velocity_consistent_with_jacobian(quad):
    rng = np.random.default_rng(21)
    x = random_state(quad, rng)
    q, v = x[: quad.nq], x[quad.nq:]
    J = ct.contact_jacobian_stack(quad, q, [1, 3])
    vel = frame_motion_at(quad, q, v, [1, 3])[2].ravel()
    assert np.allclose(J @ v, vel, atol=1e-12)


def test_acceleration_bias_matches_fd(quad):
    # d/dt (J v) at constant v equals the zero-acceleration frame acceleration
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = random_state(quad, rng)
        q, v = x[: quad.nq], x[quad.nq:]
        frames = [0, 2]
        bias = frame_motion_at(quad, q, v, frames)[3]
        eps = 1e-6
        qp = mod.integrate_q(quad, q, eps * v)
        qm = mod.integrate_q(quad, q, -eps * v)
        vp = frame_motion_at(quad, qp, v, frames)[2].ravel()
        vm = frame_motion_at(quad, qm, v, frames)[2].ravel()
        assert np.abs((vp - vm) / (2 * eps) - bias).max() < 1e-5


# ---------------------------------------------------------------- centroidal

def _body_sum_momentum(m, q, v, p_G):
    """World-frame momentum from per-body geometric reasoning (oracle)."""
    mb = dynamics.multibody(m, q, v)
    kin, tw = mb.kin, mb.tw
    l = np.zeros(2)
    k = 0.0
    for i, b in enumerate(m.bodies):
        R = se2.rot(kin.pose[i, 2])
        c = np.asarray(b.com)
        vcom = R @ (tw[i, :2] + tw[i, 2] * np.array([-c[1], c[0]]))
        xcom = se2.act(kin.pose[i], c)
        r = xcom - p_G
        l += b.mass * vcom
        k += b.mass * (r[0] * vcom[1] - r[1] * vcom[0]) + b.inertia * tw[i, 2]
    return l, k


def test_centroidal_matches_body_sum(quad):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_state(quad, rng, spread=0.8)
        q, v = x[: quad.nq], x[quad.nq:]
        cq = centroidal_at(quad, q, v)
        l, k = _body_sum_momentum(quad, q, v, cq.p_G)
        assert np.abs(cq.A_G @ v - np.concatenate([l, [k]])).max() < 1e-10
        assert np.abs(cq.l_G - quad.total_mass * cq.v_G).max() < 1e-12
        assert cq.I_G > 0.0


def test_com_velocity_matches_fd(quad):
    rng = np.random.default_rng(16)
    x = random_state(quad, rng)
    q, v = x[: quad.nq], x[quad.nq:]
    cq = centroidal_at(quad, q, v)
    eps = 1e-7
    qp = mod.integrate_q(quad, q, eps * v)
    qm = mod.integrate_q(quad, q, -eps * v)
    vG_fd = (centroidal_at(quad, qp, v).p_G - centroidal_at(quad, qm, v).p_G) / (2 * eps)
    assert np.abs(cq.v_G - vG_fd).max() < 1e-6


# ------------------------------------------------------------ conservation

def _free_rollout_energy_drift(m, dt, steps, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    q = presets.nominal_configuration(m)
    q[1] += 1.0
    v = 0.5 * rng.normal(size=m.nv)
    g = mod.GRAVITY

    def energy(q, v):
        M = dynamics.multibody(m, q, v).M
        kin = kinematics.forward_kinematics(m, q)
        pe = 0.0
        for i, b in enumerate(m.bodies):
            pe -= b.mass * float(g @ se2.act(kin.pose[i], np.asarray(b.com)))
        return 0.5 * v @ M @ v + pe

    e0 = energy(q, v)
    drift = 0.0
    for _ in range(steps):
        mb = dynamics.multibody(m, q, v)
        vd = np.linalg.solve(mb.M, -mb.h)
        q, v = mod.semi_implicit_step(m, q, v, vd, dt)
        drift = max(drift, abs(energy(q, v) - e0))
    return drift


def test_free_rollout_energy_first_order_in_dt(quad):
    # per-step energy error is O(dt^2); accumulated over a fixed window the
    # drift is O(dt), so halving dt should halve it (measured 0.269 / 0.134
    # / 0.067 at dt = 2e-3 / 1e-3 / 5e-4 on this trajectory)
    d1 = _free_rollout_energy_drift(quad, 2e-3, 100)
    d2 = _free_rollout_energy_drift(quad, 1e-3, 200)
    assert d1 < 0.5
    assert 0.4 * d1 < d2 < 0.6 * d1


def test_flight_angular_momentum_drift_bounded(quad):
    rng = np.random.default_rng(23)
    q = presets.nominal_configuration(quad)
    q[1] += 1.0
    v = rng.normal(size=quad.nv)
    k0 = centroidal_at(quad, q, v).k_G
    for dt, steps in ((2e-3, 100), (1e-3, 200)):
        qq, vv = q.copy(), v.copy()
        worst = 0.0
        for _ in range(steps):
            mb = dynamics.multibody(quad, qq, vv)
            vd = np.linalg.solve(mb.M, -mb.h)
            qq, vv = mod.semi_implicit_step(quad, qq, vv, vd, dt)
            worst = max(worst, abs(centroidal_at(quad, qq, vv).k_G - k0))
        # per-step error is O(dt^2); over t/dt steps the bound is C*dt*t
        assert worst < 60.0 * dt * (dt * steps)

