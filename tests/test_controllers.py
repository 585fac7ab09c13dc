from dataclasses import replace

import numpy as np
import pytest

from leggedmpc import contact as ct
from leggedmpc import controllers as trk
from leggedmpc import costs as co
from leggedmpc import kinematics
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc import presets, schedule
from leggedmpc.errors import (ConfigError, InvalidMeasurement, MaxIterations,
                              Stage1Infeasible)

from helpers import centroidal_at


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


@pytest.fixture(scope="module")
def statics(quad):
    q0 = presets.nominal_configuration(quad)
    u_qs, forces_qs = rh.quasi_static_start(
        quad, q0, ct.ContactSet(frames=(0, 1, 2, 3)))
    return q0, u_qs, forces_qs


def all_feet(model):
    return tuple(range(len(model.contact_frames)))


def equilibrium_message(model, q0, u_qs, forces_qs, n_intervals=2, dt=0.02):
    """A message whose optimal trajectory is the standing fixed point."""
    x0 = mod.state(model, q0, np.zeros(model.nv))
    K = np.zeros((model.nu, 2 * model.nv))
    return rh.PolicyMessage(
        stamp=0.0,
        node_times=[i * dt for i in range(n_intervals + 1)],
        xs_ref=[np.array(x0) for _ in range(n_intervals + 1)],
        us_ff=[np.array(u_qs) for _ in range(n_intervals)],
        K_gains=[np.array(K) for _ in range(n_intervals)],
        forces_ref=[np.array(forces_qs) for _ in range(n_intervals)],
        contacts=[all_feet(model) for _ in range(n_intervals)],
        diagnostics={},
    )


@pytest.fixture
def hqp_solutions(monkeypatch):
    """The ``HqpSolution`` of every cascade the controllers solve, in order."""
    sols = []
    solve = trk.hqp_solve

    def recording(*args):
        sols.append(solve(*args))
        return sols[-1]

    monkeypatch.setattr(trk, "hqp_solve", recording)
    return sols


def no_rows(ny):
    """Inequality rows of a cascade without inequalities."""
    return trk.RowBounds(B=np.zeros((0, ny)), lb=np.zeros(0), ub=np.zeros(0))


@pytest.fixture(scope="module")
def solver_message(quad):
    """A real solver message for the standing task (non-trivial gains)."""
    q0 = presets.nominal_configuration(quad)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    kin = kinematics.forward_kinematics(quad, q0)
    feet = {f: kinematics.frame_position(quad, kin, f)
            for f in all_feet(quad)}
    cfg = rh.MpcConfig(horizon=0.2, node_dt=0.02, update_rate=50.0,
                       control_horizon_nodes=4)
    ctrl = rh.Mpc(quad, schedule.stand(all_feet(quad), feet),
                  co.default_weights(quad, q0), co.default_bounds(quad, q0),
                  cfg, x0)
    msg = ctrl.step(x0, 0.0)
    assert not msg.diagnostics["degraded"]
    return msg


# --------------------------------------------------------- riccati feedback

def test_riccati_zero_error_gives_feedforward(quad, solver_message):
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t0 = solver_message.node_times[0]
    cmd = ctrl.control(np.array(solver_message.xs_ref[0]), t0)
    assert cmd.mode == "riccati"
    assert not cmd.degraded
    np.testing.assert_allclose(cmd.u, solver_message.us_ff[0], atol=1e-12)
    # the low-level references are the planned joint trajectory
    q_d, v_d = mod.split_state(quad, solver_message.xs_ref[0])
    np.testing.assert_allclose(cmd.q_joints, q_d[3:], atol=0)
    np.testing.assert_allclose(cmd.v_joints, v_d[3:], atol=0)


def test_riccati_feedback_is_linear_in_tangent_error(quad, solver_message):
    # around zero error the clamp is inactive and u - u_ff = -K @ delta
    # exactly, because difference(x_ref, integrate(x_ref, delta)) = -delta.
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    rng = np.random.default_rng(3)
    x_ref = np.array(solver_message.xs_ref[0])
    K = np.asarray(solver_message.K_gains[0])
    t0 = solver_message.node_times[0]
    for _ in range(4):
        delta = 1e-3 * rng.standard_normal(2 * quad.nv)
        x = mod.integrate(quad, x_ref, delta)
        du = ctrl.control(x, t0).u - np.asarray(solver_message.us_ff[0])
        np.testing.assert_allclose(du, -K @ delta, atol=1e-10)


def test_riccati_masks_base_feedback_in_flight(quad):
    # fewer than two planned contacts: base-state errors must not produce
    # torque (leg odometry is meaningless mid-air), joint errors still do.
    nv, nu = quad.nv, quad.nu
    q0 = presets.nominal_configuration(quad)
    x0 = mod.state(quad, q0, np.zeros(nv))
    rng = np.random.default_rng(11)
    K = rng.standard_normal((nu, 2 * nv))
    msg = rh.PolicyMessage(
        stamp=0.0, node_times=[0.0, 0.02],
        xs_ref=[np.array(x0), np.array(x0)],
        us_ff=[np.zeros(nu)], K_gains=[K],
        forces_ref=[np.zeros(0)], contacts=[()],
        diagnostics={})
    ctrl = trk.RiccatiController(quad, co.default_bounds(quad, q0))
    ctrl.update_message(msg)

    base = np.zeros(2 * nv)
    base[[0, 1, 2, nv, nv + 1, nv + 2]] = 0.01
    cmd = ctrl.control(mod.integrate(quad, x0, base), 0.0)
    np.testing.assert_allclose(cmd.u, 0.0, atol=1e-12)

    joints = np.zeros(2 * nv)
    joints[3:nv] = 0.01
    cmd = ctrl.control(mod.integrate(quad, x0, joints), 0.0)
    assert np.abs(cmd.u).max() > 1e-4


def test_riccati_respects_torque_box(quad, solver_message):
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    ctrl = trk.RiccatiController(quad, bounds)
    ctrl.update_message(solver_message)
    rng = np.random.default_rng(7)
    x_far = mod.integrate(quad, np.array(solver_message.xs_ref[0]),
                          5.0 * rng.standard_normal(2 * quad.nv))
    u = ctrl.control(x_far, 0.0).u
    assert np.all(u >= bounds.u_lb - 1e-12)
    assert np.all(u <= bounds.u_ub + 1e-12)


def test_riccati_command_is_lipschitz_in_state(quad, solver_message):
    # clamping is a per-component contraction, so the gain's row sums bound
    # the command difference for states compared at the same tick.
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    K = np.asarray(solver_message.K_gains[0])
    lip = np.abs(K).sum(axis=1).max()
    x_ref = np.array(solver_message.xs_ref[0])
    rng = np.random.default_rng(19)
    for scale in (1e-3, 0.1, 10.0):
        d1 = scale * rng.standard_normal(2 * quad.nv)
        d2 = scale * rng.standard_normal(2 * quad.nv)
        u1 = ctrl.control(mod.integrate(quad, x_ref, d1), 0.0).u
        u2 = ctrl.control(mod.integrate(quad, x_ref, d2), 0.0).u
        assert np.abs(u1 - u2).max() <= lip * np.abs(d1 - d2).max() + 1e-9


def test_riccati_switches_intervals(quad, solver_message):
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t1 = solver_message.node_times[1]
    cmd = ctrl.control(np.array(solver_message.xs_ref[1]), t1)
    np.testing.assert_allclose(cmd.u, solver_message.us_ff[1], atol=1e-12)


# ------------------------------------------------------------- staleness

def test_tracker_holds_last_command_when_stale(quad, solver_message):
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    x = np.array(solver_message.xs_ref[0])
    live = ctrl.control(x, 0.0)
    held = ctrl.control(x, solver_message.validity_end + 0.5)
    assert held.degraded and held.mode == "hold"
    np.testing.assert_allclose(held.u, live.u, atol=0)
    # and again: holding is idempotent
    held2 = ctrl.control(x, solver_message.validity_end + 1.0)
    np.testing.assert_allclose(held2.u, live.u, atol=0)
    # a fresh message recovers normal operation
    ctrl.update_message(solver_message)
    assert ctrl.control(x, 0.0).mode == "riccati"


def test_tracker_requires_a_message_before_holding(quad):
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    with pytest.raises(ConfigError):
        ctrl.control(mod.state(quad, presets.nominal_configuration(quad),
                               np.zeros(quad.nv)), 0.0)


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_stale_first_tick_names_the_expired_message(quad, solver_message,
                                                    controller):
    # a message was received but ran out before the first tick: there is
    # nothing to hold, and the error says why
    ctrl = controller(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    with pytest.raises(ConfigError, match="expired"):
        ctrl.control(np.array(solver_message.xs_ref[-1]),
                     solver_message.validity_end + 0.5)


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_non_finite_measurement_holds_the_last_command(quad, solver_message,
                                                       controller):
    # as in Mpc.step: the last command comes back flagged degraded, and
    # without one to hold the measurement is rejected
    ctrl = controller(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t0 = solver_message.node_times[0]
    x = np.array(solver_message.xs_ref[0])
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(InvalidMeasurement):
        ctrl.control(bad, t0)
    live = ctrl.control(x, t0)
    held = ctrl.control(bad, t0 + ctrl.control_dt)
    assert held.degraded and held.mode == "hold"
    np.testing.assert_array_equal(held.u, live.u)


def test_message_that_is_not_whole_is_rejected(quad, solver_message):
    # a rejected message leaves the active message and its reference as
    # they were
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t = solver_message.node_times[1] + 0.4 * ctrl.control_dt
    before = ctrl.reference_at(t)
    times = list(solver_message.node_times)
    times[1], times[2] = times[2], times[1]
    K = [np.array(k) for k in solver_message.K_gains]
    K[1][0, 0] = np.nan
    forces = [np.array(f) for f in solver_message.forces_ref]
    forces[0][1] = np.inf
    for broken in (dict(xs_ref=solver_message.xs_ref[:-1]),
                   dict(contacts=solver_message.contacts[1:]),
                   dict(node_times=times[:1], xs_ref=solver_message.xs_ref[:1],
                        us_ff=[], K_gains=[], forces_ref=[], contacts=[]),
                   dict(node_times=times),
                   dict(K_gains=K),
                   dict(forces_ref=forces),
                   dict(stamp=np.nan)):
        with pytest.raises(ConfigError):
            ctrl.update_message(replace(solver_message, **broken))
        assert ctrl.message is solver_message
        np.testing.assert_array_equal(ctrl.reference_at(t), before)


def test_tracker_rejects_bad_control_period(quad):
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    with pytest.raises(ConfigError):
        trk.RiccatiController(quad, bounds, control_dt=0.0)


# ----------------------------------------------------- reference rollout

def test_rollout_matches_manual_integration(quad, solver_message):
    dt = 1.0 / 400.0
    times, states = trk.rollout_reference(quad, solver_message, dt)
    assert times[0] == solver_message.node_times[0]
    assert times[-1] == solver_message.node_times[-1]
    assert np.all(np.diff(times) > 0)

    # third control tick of the first interval, integrated by hand
    contacts = ct.ContactSet(frames=tuple(solver_message.contacts[0]))
    u = np.asarray(solver_message.us_ff[0], float)
    q, v = mod.split_state(quad, np.asarray(solver_message.xs_ref[0], float))
    for _ in range(3):
        sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
        q, v = mod.semi_implicit_step(quad, q, v, sol.vdot, dt)
    np.testing.assert_allclose(states[3], mod.state(quad, q, v), atol=1e-12)

    # node times snap back onto the optimal states
    k = int(np.searchsorted(times, solver_message.node_times[1] - 1e-12))
    np.testing.assert_allclose(states[k], solver_message.xs_ref[1], atol=0)


def test_reference_lookup_is_zero_order_hold(quad, solver_message):
    ctrl = trk.RiccatiController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    dt = ctrl.control_dt
    exact = ctrl.reference_at(dt)
    late = ctrl.reference_at(dt + 0.4 * dt)
    np.testing.assert_allclose(late, exact, atol=0)
    # before the window starts, clamp to the first state
    np.testing.assert_allclose(ctrl.reference_at(-1.0),
                               solver_message.xs_ref[0], atol=0)


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_tick_just_before_a_node_reads_one_interval(quad, solver_message,
                                                    controller):
    # the second interval plans a different contact set, so the command's
    # contacts tell which interval the tick was given
    forces = np.asarray(solver_message.forces_ref[1], float)
    msg = replace(solver_message,
                  contacts=[solver_message.contacts[0], (0, 3),
                            *solver_message.contacts[2:]],
                  forces_ref=[solver_message.forces_ref[0],
                              np.concatenate([forces[:2], forces[6:]]),
                              *solver_message.forces_ref[2:]])
    ctrl = controller(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(msg)
    t = np.nextafter(msg.node_times[1], -np.inf)
    cmd = ctrl.control(np.array(msg.xs_ref[1]), t)
    np.testing.assert_array_equal(cmd.x_ref, msg.xs_ref[1])
    assert cmd.contacts == (0, 3)
    np.testing.assert_array_equal(cmd.forces_ref, msg.forces_ref[1])


# ------------------------------------------------------------ hqp cascade

def test_nullspace_basis_annihilates_rows():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 8))
    Z = trk.nullspace_basis(A)
    assert Z.shape == (8, 5)
    assert np.abs(A @ Z).max() < 1e-12
    np.testing.assert_allclose(Z.T @ Z, np.eye(5), atol=1e-12)
    # duplicated rows collapse to the same null space
    Z = trk.nullspace_basis(np.vstack([A[0], A[0], A[1]]))
    assert Z.shape == (8, 6)
    np.testing.assert_allclose(Z.T @ Z, np.eye(6), atol=1e-12)
    Z2 = trk.nullspace_basis(A[:2])
    np.testing.assert_allclose(Z @ Z.T, Z2 @ Z2.T, atol=1e-12)


def test_hqp_single_stage_is_least_squares():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 7))
    a = rng.standard_normal(4)
    sol = trk.hqp_solve([(A, a)], no_rows(7), np.zeros(7))
    np.testing.assert_allclose(sol.y, np.linalg.pinv(A) @ a, atol=1e-8)
    assert sol.stage_residuals[0] < 1e-9
    assert sol.null_dims[0] == 3


def test_hqp_priority_order_wins_conflicts():
    # stage 0 pins y0 = 1; stage 1 asks for y0 = 5 (impossible now) and
    # y1 = 2 (still free).
    t0 = (np.array([[1.0, 0.0]]), np.array([1.0]))
    t1 = (np.eye(2), np.array([5.0, 2.0]))
    sol = trk.hqp_solve([t0, t1], no_rows(2), np.zeros(2))
    np.testing.assert_allclose(sol.y, [1.0, 2.0], atol=1e-10)
    assert sol.stage_residuals[0] < 1e-12
    np.testing.assert_allclose(sol.stage_residuals[1], 4.0, atol=1e-10)
    assert sol.null_dims == [1, 0]


def test_hqp_inequalities_clamp_each_stage():
    # stage 0 leaves the line y0 = y1 / 2 free; along it the stage-1
    # optimum (10, 10) gets clipped to the box corner; a duplicated row
    # keeps the active set honest about degeneracy.
    ineq = trk.RowBounds(B=np.vstack([np.eye(2), [[1.0, 0.0]]]),
                         lb=np.array([-1.0, -2.0, -1.0]),
                         ub=np.array([1.0, 2.0, 1.0]))
    line = (np.array([[1.0, -0.5]]), np.zeros(1))
    sol = trk.hqp_solve([line, (np.eye(2), np.array([10.0, 10.0]))],
                        ineq, np.zeros(2))
    np.testing.assert_allclose(sol.y, [1.0, 2.0], atol=1e-9)


def test_hqp_stage_one_failure_raises():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    a = np.array([0.0, 1.0])
    with pytest.raises(Stage1Infeasible):
        trk.hqp_solve([(A, a)], no_rows(2), np.zeros(2))


def perturbed_stance_tasks(model, frames, seed=0):
    q0 = presets.nominal_configuration(model)
    x_ref = mod.state(model, q0, np.zeros(model.nv))
    rng = np.random.default_rng(seed)
    x = mod.integrate(model, x_ref, 0.05 * rng.standard_normal(2 * model.nv))
    u_qs, forces_qs = rh.quasi_static_start(model, q0,
                                         ct.ContactSet(frames=frames))
    return trk.stance_tasks(model, trk.WbcGains(), x, x_ref, u_qs,
                            frames, forces_qs)


def test_hqp_later_stages_preserve_earlier_residuals(quad):
    # moving inside the accumulated null space leaves A_i y untouched, so
    # the residual recorded at stage i must still hold at the final point.
    frames = (0, 3)
    tasks = perturbed_stance_tasks(quad, frames, seed=2)
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    ineq = trk.wbc_inequality_rows(quad, bounds,
                                   co.FrictionCone(mu=0.8), len(frames))
    ny = quad.nv + quad.nu + 2 * len(frames)
    sol = trk.hqp_solve(tasks, ineq, np.zeros(ny))
    assert sol.y.size == ny
    for (A, a), recorded in zip(tasks, sol.stage_residuals):
        final = np.abs(A @ sol.y - a).max()
        np.testing.assert_allclose(final, recorded, atol=1e-9)
    assert all(d1 >= d2 for d1, d2 in zip(sol.null_dims, sol.null_dims[1:]))
    # dynamics must be satisfied essentially exactly
    assert sol.stage_residuals[0] < 1e-8


def test_swing_stage_unaffected_by_lower_priorities(quad):
    # the swing residual achieved by the full cascade equals the best
    # achievable with the hierarchy truncated right after the swing stage.
    frames = (0, 3)
    tasks = perturbed_stance_tasks(quad, frames, seed=4)
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    ineq = trk.wbc_inequality_rows(quad, bounds, None, len(frames))
    y0 = np.zeros(quad.nv + quad.nu + 2 * len(frames))
    full = trk.hqp_solve(tasks, ineq, y0)
    head = trk.hqp_solve(tasks[:2], ineq, y0)
    np.testing.assert_allclose(full.stage_residuals[1],
                               head.stage_residuals[1], atol=1e-9)


# ---------------------------------------------------- whole-body controller

def test_com_stage_fixes_linear_momentum(quad, solver_message):
    # the linear momentum rows are the CoM rows times the total mass, so
    # in the null space the CoM stage leaves they vanish to rounding: the
    # angular row is all the momentum stage has left to act on
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    wbc.update_message(solver_message)
    rng = np.random.default_rng(29)
    msg = solver_message
    for t in np.arange(msg.node_times[0], msg.validity_end, wbc.control_dt):
        i = msg.interval_at(t)
        frames = tuple(msg.contacts[i])
        assert len(frames) >= 2          # a stance tick
        x = mod.integrate(quad, wbc.reference_at(t),
                          1e-3 * rng.standard_normal(2 * quad.nv))
        tasks = trk.stance_tasks(quad, wbc.gains, x, wbc.reference_at(t),
                                 msg.us_ff[i], frames, msg.forces_ref[i])
        A_com = tasks[1][0]              # dynamics, CoM: no swing feet
        Z = np.eye(A_com.shape[1])
        for A, _ in tasks[:2]:
            Z = Z @ trk.nullspace_basis(A @ Z)
        A_lin = np.zeros_like(A_com)
        cen = centroidal_at(quad, *mod.split_state(quad, x))
        A_lin[:, :quad.nv] = cen.A_G[:2]
        assert np.abs(A_lin @ Z).max() <= 1e-12 * np.abs(A_lin).max()


def test_wbc_reproduces_statics_at_equilibrium(quad, statics, hqp_solutions):
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    bounds = co.default_bounds(quad, q0)
    wbc = trk.WholeBodyController(quad, bounds)
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    cmd = wbc.control(x0, 0.0)
    assert cmd.mode == "wbc" and not cmd.degraded
    np.testing.assert_allclose(cmd.u, u_qs, atol=1e-6)
    # the cascade recovers the planned contact forces as well
    nv, nu = quad.nv, quad.nu
    sol, = hqp_solutions
    np.testing.assert_allclose(sol.y[nv + nu:], forces_qs, atol=1e-6)
    assert max(sol.stage_residuals) < 1e-8

    # the Riccati law lands on the same torque at the fixed point
    ric = trk.RiccatiController(quad, bounds)
    ric.update_message(msg)
    np.testing.assert_allclose(ric.control(x0, 0.0).u, u_qs, atol=1e-9)


def test_wbc_with_cone_matches_unconstrained_at_equilibrium(quad, statics):
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    bounds = co.default_bounds(quad, q0)
    wbc = trk.WholeBodyController(quad, bounds,
                                  cone=co.FrictionCone(mu=0.8))
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    np.testing.assert_allclose(wbc.control(x0, 0.0).u, u_qs, atol=1e-6)


def test_wbc_forces_stay_in_cone_despite_bad_reference(quad, statics,
                                                      hqp_solutions):
    # a force reference far outside the cone must not drag the solution out
    q0, u_qs, forces_qs = statics
    lam_bad = np.array(forces_qs)
    lam_bad[0::2] += 300.0          # huge tangential components
    msg = equilibrium_message(quad, q0, u_qs, lam_bad)
    cone = co.FrictionCone(mu=0.5, lambda_min=1.0)
    wbc = trk.WholeBodyController(quad, co.default_bounds(quad, q0),
                                  cone=cone)
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    cmd = wbc.control(x0, 0.0)
    assert not cmd.degraded
    C, c = co.cone_matrices(cone)
    lam = hqp_solutions[-1].y[quad.nv + quad.nu:]
    for k in range(4):
        assert np.all(C @ lam[2 * k:2 * k + 2] >= c - 1e-8)


def test_wbc_minimum_normal_force_binds(quad, statics, hqp_solutions):
    # a preload larger than the static per-foot share forces the solution
    # onto the cone floor: every foot must push at least lambda_min
    q0, u_qs, forces_qs = statics
    assert forces_qs[1::2].max() < 50.0  # the preload really exceeds statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    cone = co.FrictionCone(mu=0.8, lambda_min=50.0)
    wbc = trk.WholeBodyController(quad, co.default_bounds(quad, q0),
                                  cone=cone)
    wbc.update_message(msg)
    cmd = wbc.control(mod.state(quad, q0, np.zeros(quad.nv)), 0.0)
    assert not cmd.degraded
    sol, = hqp_solutions
    lam = sol.y[quad.nv + quad.nu:]
    assert np.all(lam[1::2] >= 50.0 - 1e-8)
    assert sol.stage_residuals[0] < 1e-6


def test_wbc_infeasible_dynamics_falls_back(quad, statics):
    # a cone demanding a meganewton of preload cannot be satisfied: the
    # dynamics stage fails and the controller re-issues its previous torque
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    bounds = co.default_bounds(quad, q0)
    wbc = trk.WholeBodyController(quad, bounds,
                                  cone=co.FrictionCone(mu=0.8,
                                                       lambda_min=1e6))
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    cmd = wbc.control(x0, 0.0)
    assert cmd.degraded and cmd.mode == "wbc"
    np.testing.assert_allclose(cmd.u, 0.0, atol=0)  # nothing issued yet

    # once feasibility returns, so does normal operation
    wbc.cone = co.FrictionCone(mu=0.8)
    cmd = wbc.control(x0, 0.0)
    assert not cmd.degraded
    np.testing.assert_allclose(cmd.u, u_qs, atol=1e-6)


def test_wbc_unsettled_stage_qp_holds_previous_torque(quad, statics,
                                                     monkeypatch):
    # a stage QP whose active set does not settle re-issues the previous
    # clamped torque marked degraded instead of escaping the tick
    q0, u_qs, forces_qs = statics
    wbc = trk.WholeBodyController(quad, co.default_bounds(quad, q0),
                                  cone=co.FrictionCone(mu=0.8))
    wbc.update_message(equilibrium_message(quad, q0, u_qs, forces_qs))
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    good = wbc.control(x0, 0.0)
    assert not good.degraded

    def unsettled(*args, **kwargs):
        raise MaxIterations("forced")

    monkeypatch.setattr(trk, "_stage_qp", unsettled)
    cmd = wbc.control(x0, 0.0)
    assert cmd.degraded and cmd.mode == "wbc"
    assert np.array_equal(cmd.u, good.u)


def test_wbc_flight_interval_uses_joint_pd(quad):
    nv, nu = quad.nv, quad.nu
    q0 = presets.nominal_configuration(quad)
    x0 = mod.state(quad, q0, np.zeros(nv))
    rng = np.random.default_rng(21)
    u_ff = 0.5 * rng.standard_normal(nu)
    msg = rh.PolicyMessage(
        stamp=0.0, node_times=[0.0, 0.02],
        xs_ref=[np.array(x0), np.array(x0)],
        us_ff=[u_ff], K_gains=[np.zeros((nu, 2 * nv))],
        forces_ref=[np.zeros(0)], contacts=[()],
        diagnostics={})
    bounds = co.default_bounds(quad, q0)
    gains = trk.WbcGains()
    wbc = trk.WholeBodyController(quad, bounds, gains=gains)
    wbc.update_message(msg)

    dq = np.zeros(2 * nv)
    dq[3:nv] = 0.02
    dq[nv + 3:] = -0.1
    x = mod.integrate(quad, x0, dq)
    cmd = wbc.control(x, 0.0)
    assert cmd.mode == "flight_pd"
    q, v = mod.split_state(quad, x)
    expect = trk.flight_pd(u_ff, q[3:], v[3:], q0[3:], np.zeros(nu),
                           gains.flight_kp, gains.flight_kd,
                           bounds.u_lb, bounds.u_ub)
    np.testing.assert_allclose(cmd.u, expect, atol=1e-12)


def test_flight_pd_clamps(quad):
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    nu = quad.nu
    exact = trk.flight_pd(np.full(nu, 3.0), np.ones(nu), np.ones(nu),
                          np.ones(nu), np.ones(nu), 100.0, 10.0,
                          bounds.u_lb, bounds.u_ub)
    np.testing.assert_allclose(exact, 3.0, atol=0)
    sat = trk.flight_pd(np.zeros(nu), np.zeros(nu), np.zeros(nu),
                        np.full(nu, 10.0), np.zeros(nu), 100.0, 0.0,
                        bounds.u_lb, bounds.u_ub)
    np.testing.assert_allclose(sat, bounds.u_ub, atol=0)


def test_wbc_gain_validation():
    with pytest.raises(ConfigError):
        trk.WbcGains(swing_kp=-1.0)


# --------------------------------------------------- centroidal references

def test_momentum_rate_matches_newton_euler_in_free_fall(quad):
    # whatever the joints do, the total momentum rate of an unsupported
    # mechanism is pure gravity: (0, -m g) force and no moment about the CoM
    rng = np.random.default_rng(13)
    for _ in range(3):
        q = presets.nominal_configuration(quad) + 0.2 * rng.standard_normal(
            quad.nq)
        v = rng.standard_normal(quad.nv)
        u = 10.0 * rng.standard_normal(quad.nu)
        sol = ct.contact_forward_dynamics(quad, q, v, u,
                                          ct.ContactSet(frames=()))
        cen = centroidal_at(quad, q, v)
        hdot = cen.A_G @ sol.vdot + cen.Adot_v
        expect = np.array([0.0, -quad.total_mass * 9.81, 0.0])
        np.testing.assert_allclose(hdot, expect, atol=1e-6)


def test_momentum_rate_matches_contact_wrench(quad):
    # with feet pinned, the momentum rate equals gravity plus the net
    # contact wrench about the instantaneous centre of mass
    rng = np.random.default_rng(17)
    q = presets.nominal_configuration(quad)
    v = 0.3 * rng.standard_normal(quad.nv)
    u = 5.0 * rng.standard_normal(quad.nu)
    frames = (0, 1, 2, 3)
    sol = ct.contact_forward_dynamics(quad, q, v, u,
                                      ct.ContactSet(frames=frames))
    cen = centroidal_at(quad, q, v)
    hdot = cen.A_G @ sol.vdot + cen.Adot_v

    kin = kinematics.forward_kinematics(quad, q)
    pts = kinematics.frame_positions(quad, kin, frames)
    f = sol.forces.reshape(-1, 2)
    expect = np.array([
        f[:, 0].sum(),
        f[:, 1].sum() - quad.total_mass * 9.81,
        np.sum((pts[:, 0] - cen.p_G[0]) * f[:, 1]
               - (pts[:, 1] - cen.p_G[1]) * f[:, 0]),
    ])
    np.testing.assert_allclose(hdot, expect, atol=1e-6)


def test_momentum_policy_gains(quad):
    gains = trk.WbcGains()
    q0 = presets.nominal_configuration(quad)
    rng = np.random.default_rng(23)
    v = 0.1 * rng.standard_normal(quad.nv)
    cen_ref = centroidal_at(quad, q0, np.zeros(quad.nv))
    cen = centroidal_at(quad, q0, v)
    hdot_ref = np.zeros(3)
    out = trk.momentum_policy(gains, cen, cen_ref, hdot_ref)
    np.testing.assert_allclose(
        out, gains.momentum_dk * (cen_ref.k_G - cen.k_G), atol=1e-12)


# ------------------------------------------------------------- tick logging

def test_dense_forces_layout(quad):
    out = trk.dense_forces(quad, (1, 3), np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(out, [0, 0, 1, 2, 0, 0, 3, 4], atol=0)


def test_log_row_matches_columns(quad):
    cols = trk.log_columns(quad)
    nx = quad.nq + quad.nv
    x = mod.state(quad, presets.nominal_configuration(quad),
                  np.zeros(quad.nv))
    row = trk.log_row(quad, 0.25, np.zeros(quad.nu), np.zeros(quad.nu),
                      x, x, np.zeros(8), np.zeros(8), (0, 2))
    assert len(row) == len(cols)
    assert cols[0] == "t" and row[0] == 0.25
    flags = row[-4:]
    assert flags == [1.0, 0.0, 1.0, 0.0]
    # both states equal: logged spin momenta agree
    k, k_ref = row[1 + 2 * quad.nu + 2 * nx:1 + 2 * quad.nu + 2 * nx + 2]
    assert k == k_ref
