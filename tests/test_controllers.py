from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from leggedmpc import contact as ct
from leggedmpc import controllers as trk
from leggedmpc import costs as co
from leggedmpc import kinematics
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc import presets, schedule
from leggedmpc.errors import (ConfigError, DimensionMismatch, InvalidMeasurement,
                              MaxIterations, RankDeficientContacts, Stage1Infeasible)

from helpers import (centroidal_at, cold_hqp_solve, count_calls, mis_shaped_states,
                     nullspace_basis, reference_dynamics, reference_terms, rel_err,
                     rollout_reference, straight_legs, wbc_stance_cascade,
                     wbc_stance_tick)

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


CONE = co.FrictionCone(mu=0.7)     # the ground's, as in the OCP


def tracker(controller, model, bounds, **kw):
    """A tracker of class ``controller``; a whole-body controller holds its
    contact forces in ``CONE``."""
    if controller is trk.WholeBodyController:
        kw["cone"] = CONE
    return controller(model, bounds, **kw)


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
    cfg = rh.MpcConfig(horizon=0.2, node_dt=0.02, update_rate=50.0)
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
def test_a_reference_before_any_message_raises_config_error(quad, controller):
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    with pytest.raises(ConfigError, match="no policy message received"):
        ctrl.reference_at(0.0)


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_stale_first_tick_names_the_expired_message(quad, solver_message,
                                                    controller):
    # a message was received but ran out before the first tick: there is
    # nothing to hold, and the error says why
    ctrl = tracker(controller, quad, co.default_bounds(
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
    ctrl = tracker(controller, quad, co.default_bounds(
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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_a_non_finite_time_raises_and_changes_nothing(quad, solver_message,
                                                      controller, t):
    # a nan time compares false with the message's end, and the reference
    # lookup would clamp it to the last state
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    x = np.array(solver_message.xs_ref[0])
    ctrl.control(x, solver_message.node_times[0])
    msg, last = ctrl.message, ctrl._last
    bad = x.copy()
    bad[3] = np.nan
    for y in (x, bad):
        with pytest.raises(ConfigError, match="finite"):
            ctrl.control(y, t)
    with pytest.raises(ConfigError, match="finite"):
        ctrl.reference_at(t)
    assert ctrl.message is msg and ctrl._last is last


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_a_mis_shaped_state_raises_and_keeps_the_last_command(quad, solver_message,
                                                              controller):
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t0 = solver_message.node_times[0]
    x = np.array(solver_message.xs_ref[0])
    for bad in mis_shaped_states(x):
        with pytest.raises(DimensionMismatch):
            ctrl.control(bad, t0)
    assert ctrl._last is None
    last = ctrl.control(x, t0)
    for bad in mis_shaped_states(x):
        with pytest.raises(DimensionMismatch):
            ctrl.control(bad, t0 + ctrl.control_dt)
        assert ctrl._last is last
    np.testing.assert_array_equal(ctrl.control(x, t0).u, last.u)


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


def malformed(msg, field, model):
    """``msg`` with one entry of ``field`` of a shape the model does not
    give it, or, for the contacts, a frame the model does not have or a
    repeated one (its forces sized to match)."""
    nu, nv = model.nu, model.nv
    later = len(msg.us_ff) - 1
    if field == "xs_ref":
        xs = list(msg.xs_ref)
        xs[1] = np.append(xs[1], 0.0)
        return replace(msg, xs_ref=xs)
    if field == "us_ff":          # in a later interval, read by a later tick
        us = list(msg.us_ff)
        us[later] = us[later][:-1]
        return replace(msg, us_ff=us)
    if field == "K_gains":
        K = list(msg.K_gains)
        K[0] = np.zeros((nu, 2 * nv - 2))
        return replace(msg, K_gains=K)
    if field == "forces_ref":
        forces = list(msg.forces_ref)
        forces[0] = forces[0][:3]
        return replace(msg, forces_ref=forces)
    contacts = list(msg.contacts)
    contacts[0] = (0, 7) if field == "unknown_frame" else (0, 0)
    return replace(msg, contacts=contacts)


@pytest.mark.parametrize("field", ["xs_ref", "us_ff", "K_gains", "forces_ref",
                                   "unknown_frame", "repeated_frame"])
@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_message_of_the_wrong_shape_is_rejected(quad, solver_message,
                                                controller, field):
    # a message whose arrays do not fit the model is refused at ingestion,
    # before any tick reads it, and the previous message stays
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    t0 = solver_message.node_times[0]
    x0 = np.array(solver_message.xs_ref[0])
    cmd = ctrl.control(x0, t0)
    with pytest.raises(ConfigError):
        ctrl.update_message(malformed(solver_message, field, quad))
    assert ctrl.message is solver_message
    assert ctrl.control(x0, t0).u.tobytes() == cmd.u.tobytes()


def test_tracker_rejects_bad_control_period(quad):
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    with pytest.raises(ConfigError):
        trk.RiccatiController(quad, bounds, control_dt=0.0)


@pytest.mark.parametrize("control_dt", [np.nan, np.inf])
@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_tracker_rejects_a_non_finite_control_period(quad, controller,
                                                     control_dt):
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    with pytest.raises(ConfigError):
        tracker(controller, quad, bounds, control_dt=control_dt)


# ----------------------------------------------------- reference rollout

def test_rollout_matches_manual_integration(quad, solver_message):
    dt = 1.0 / 400.0
    times, states, _ = rollout_reference(quad, solver_message, dt)
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


def test_rollout_keeps_the_dynamics_at_each_state_it_stepped_from(
        quad, solver_message):
    # each kept solution has the bits of a fresh solve at its state under
    # the state's interval; there is none at an interval's last state (the
    # next state is the next node's) nor at the final state
    dt = 1.0 / 400.0
    times, states, sols = rollout_reference(quad, solver_message, dt)
    assert len(sols) == len(states)
    node = {float(t) for t in solver_message.node_times}
    for j, (t, x, sol) in enumerate(zip(times, states, sols)):
        last = j + 1 == len(times) or float(times[j + 1]) in node
        assert (sol is None) == last
        if last:
            continue
        i = solver_message.interval_at(t)
        fresh = ct.contact_forward_dynamics(
            quad, *mod.split_state(quad, x),
            np.asarray(solver_message.us_ff[i], float),
            ct.ContactSet(frames=tuple(solver_message.contacts[i])))
        for field in ("vdot", "forces", "J"):
            assert getattr(sol, field).tobytes() == getattr(fresh, field).tobytes()
        assert sol.mb.M.tobytes() == fresh.mb.M.tobytes()
        assert sol.mb.h.tobytes() == fresh.mb.h.tobytes()


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
    ctrl = tracker(controller, quad, co.default_bounds(
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
    Z = nullspace_basis(A)
    assert Z.shape == (8, 5)
    assert np.abs(A @ Z).max() < 1e-12
    np.testing.assert_allclose(Z.T @ Z, np.eye(5), atol=1e-12)
    # duplicated rows collapse to the same null space
    Z = nullspace_basis(np.vstack([A[0], A[0], A[1]]))
    assert Z.shape == (8, 6)
    np.testing.assert_allclose(Z.T @ Z, np.eye(6), atol=1e-12)
    Z2 = nullspace_basis(A[:2])
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
    ref = ct.contact_forward_dynamics(model, *mod.split_state(model, x_ref),
                                      u_qs, ct.ContactSet(frames=frames))
    return trk.stance_tasks(model, x,
                            trk.stance_reference(model, x_ref, ref, frames),
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
    ineq = trk.wbc_inequality_rows(quad, bounds, CONE, len(frames))
    y0 = np.zeros(quad.nv + quad.nu + 2 * len(frames))
    full = trk.hqp_solve(tasks, ineq, y0)
    head = trk.hqp_solve(tasks[:2], ineq, y0)
    np.testing.assert_allclose(full.stage_residuals[1],
                               head.stage_residuals[1], atol=1e-9)


DATA = Path(__file__).resolve().parent / "data"


def assert_kkt(G, d, W, lb, ub, z):
    """z is feasible within 1e-9 and a KKT point of the ridged stage QP:
    minus the gradient is a non-negative combination (``nnls``) of the
    outward normals of the rows at their bounds."""
    eps = (trk.STAGE_RIDGE * np.linalg.norm(G)) ** 2
    Wz = W @ z
    assert np.all(Wz >= lb - 1e-9) and np.all(Wz <= ub + 1e-9)
    upper = np.isfinite(ub) & (Wz >= ub - 1e-9)
    lower = np.isfinite(lb) & (Wz <= lb + 1e-9)
    V = np.vstack([W[upper], -W[lower]])
    grad = G.T @ (G @ z - d) + eps * z
    scale = max(1.0, np.abs(G.T @ d).max())
    if not len(V):
        assert np.abs(grad).max() <= 1e-9 * scale
        return
    _, res = nnls(V.T, -grad)
    assert res <= 1e-9 * scale


def test_stage_qp_that_cycled_settles_at_a_kkt_point():
    # a centre-of-mass stage (four feet down, 2 x 8, 20 rows) captured from
    # the trot_track benchmark, seed 1, episode 1, on which the active set
    # without the anti-cycling rule ran out of iterations
    qp = np.load(DATA / "com_stage_cycle.npz")
    G, d, W, lb, ub = (qp[k] for k in ("G", "d", "W", "lb", "ub"))
    z, iterations, _ = trk._stage_qp(G, d, W, lb, ub)
    assert_kkt(G, d, W, lb, ub, z)
    assert iterations <= G.shape[1] + W.shape[0]


def test_stage_qp_settles_at_a_kkt_point_from_the_cone_apex(quad):
    # four feet: the seed puts every force at its cone's apex, where all
    # three rows of a foot hold and any two span its force plane.
    # References pull the feet below the apex, far outside, onto an edge
    # and inside their cones.
    cone = co.FrictionCone(mu=0.7)
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    ineq = trk.wbc_inequality_rows(quad, bounds, cone, 4)
    y0 = trk.wbc_seed(quad, bounds, 4)
    By = ineq.B @ y0
    cone_rows = slice(quad.nu, None)
    assert np.all(By[cone_rows] == ineq.lb[cone_rows])
    ny, nf = y0.size, 8
    G = np.zeros((nf, ny))
    G[:, ny - nf:] = np.eye(nf)
    for lam_ref in ([0.0, -50.0, 40.0, -10.0, 10.0, 30.0, 60.0, 20.0],
                    [0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0]):
        d = np.asarray(lam_ref) - G @ y0
        args = (G, d, ineq.B, ineq.lb - By, ineq.ub - By)
        z, iterations, _ = trk._stage_qp(*args)
        assert_kkt(*args, z)
        assert iterations <= ny + ineq.B.shape[0]


def test_stage_qp_settles_at_a_kkt_point_of_random_degenerate_qps():
    # rank-deficient G, repeated and dependent rows, one-sided rows and
    # rows tight at the start (a zero bound) over 500 random sizes
    rng = np.random.default_rng(43)
    for _ in range(500):
        n, r, m = rng.integers(1, 10), rng.integers(1, 6), rng.integers(4, 16)
        G = rng.standard_normal((r, n)) * 10.0 ** rng.uniform(-3, 2)
        G[-1] = G[0]
        d = rng.standard_normal(r) * 10.0 ** rng.uniform(-1, 2)
        W = rng.standard_normal((m, n))
        W[1] = W[0]
        W[2] = W[0] + 0.5 * W[3]
        lb = -rng.uniform(0, 2, m) * (rng.random(m) < 0.8)
        ub = rng.uniform(0, 2, m) * (rng.random(m) < 0.8)
        lb[rng.random(m) < 0.2] = -np.inf
        ub[rng.random(m) < 0.2] = np.inf
        z, _, _ = trk._stage_qp(G, d, W, lb, ub)
        assert_kkt(G, d, W, lb, ub, z)


def test_stage_qp_admits_only_tight_independent_warm_rows():
    # the previous working set held four rows; here row 1 has become
    # dependent on row 0 and row 2 slack, so rows 0 and 3 start the working
    # set, and one step and one multiplier check settle it on the cold
    # start's minimum, which enters rows 0 and 3 in two zero-length steps
    G, d = np.eye(3), np.array([-1.0, -0.25, 1.0])
    W = np.array([[1.0, 0.0, 0.0],
                  [2.0, 1e-12, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    lb = np.array([0.0, 0.0, -0.5, -np.inf])
    ub = np.array([np.inf, np.inf, np.inf, 0.0])
    warm = [(0, -1), (1, -1), (2, -1), (3, 1)]
    z_cold, its_cold, active_cold = trk._stage_qp(G, d, W, lb, ub)
    z, its, active = trk._stage_qp(G, d, W, lb, ub, warm)
    assert active == active_cold == [(0, -1), (3, 1)]
    assert (its, its_cold) == (2, 4)
    assert np.abs(z - z_cold).max() <= 1e-15
    assert_kkt(G, d, W, lb, ub, z)


def test_stage_ridge_norm_has_the_bits_of_numpys_norm():
    # the stage QP scales its ridge by the code np.linalg.norm runs for a
    # matrix's Frobenius norm: equal bits over stage shapes (A Z products
    # among them, and matrices in Fortran order) and scales
    rng = np.random.default_rng(47)
    for k in range(20_000):
        m, n = rng.integers(1, 24, size=2)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        if k % 3 == 0:
            G = scale * rng.standard_normal((m, n))
        elif k % 3 == 1:
            G = (scale * rng.standard_normal((m, 23))) @ rng.standard_normal((23, n))
        else:
            G = np.asfortranarray(scale * rng.standard_normal((m, n)))
        assert trk._frobenius(G) == np.linalg.norm(G)


@pytest.mark.parametrize("which", ["solver", "equilibrium"])
def test_warm_cascade_matches_cold_stages_in_fewer_iterations(
        quad, statics, solver_message, which):
    # each stage starting from the working set of the stage above reaches
    # the minimum of a cold start on every stance tick, in fewer iterations
    # over the message.  The measured states carry the noise of the
    # trot_track benchmark (0.01 on q, 0.1 on v), under which the lower
    # stages have rows to carry; with 0.01 on both few rows bind past the
    # dynamics stage, and over 20 seeds warm and cold starts differed by at
    # most two iterations per message, either way
    msg = (solver_message if which == "solver"
           else equilibrium_message(quad, *statics))
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)),
        cone=co.FrictionCone(mu=0.7))
    wbc.update_message(msg)
    rng = np.random.default_rng(41)
    warm_its = cold_its = 0
    for t in rollout_reference(quad, msg, wbc.control_dt)[0]:
        noise = np.concatenate([0.01 * rng.standard_normal(quad.nv),
                                0.1 * rng.standard_normal(quad.nv)])
        x = mod.integrate(quad, wbc.reference_at(t), noise)
        cascade = wbc_stance_cascade(wbc, x, t)
        warm, cold = trk.hqp_solve(*cascade), cold_hqp_solve(*cascade)
        assert rel_err(warm.y, cold.y) <= 1e-12
        warm_its += sum(warm.iterations)
        cold_its += sum(cold.iterations)
    assert warm_its < cold_its


# ---------------------------------------------------- whole-body controller

def test_com_stage_fixes_linear_momentum(quad, solver_message):
    # the linear momentum rows are the CoM rows times the total mass, so
    # in the null space the CoM stage leaves they vanish to rounding: the
    # angular row is all the momentum stage has left to act on
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)), cone=CONE)
    wbc.update_message(solver_message)
    rng = np.random.default_rng(29)
    msg = solver_message
    for t in np.arange(msg.node_times[0], msg.validity_end, wbc.control_dt):
        i = msg.interval_at(t)
        frames = tuple(msg.contacts[i])
        assert len(frames) >= 2          # a stance tick
        x = mod.integrate(quad, wbc.reference_at(t),
                          1e-3 * rng.standard_normal(2 * quad.nv))
        ref = trk.stance_reference(quad, wbc.reference_at(t),
                                   reference_dynamics(wbc, t), frames)
        tasks = trk.stance_tasks(quad, x, ref, frames, msg.forces_ref[i])
        A_com = tasks[1][0]              # dynamics, CoM: no swing feet
        Z = np.eye(A_com.shape[1])
        for A, _ in tasks[:2]:
            Z = Z @ nullspace_basis(A @ Z)
        A_lin = np.zeros_like(A_com)
        cen = centroidal_at(quad, *mod.split_state(quad, x))
        A_lin[:, :quad.nv] = cen.A_G[:2]
        assert np.abs(A_lin @ Z).max() <= 1e-12 * np.abs(A_lin).max()


@pytest.mark.parametrize("which", ["solver", "equilibrium"])
def test_wbc_tick_equals_a_tick_that_solves_its_reference_afresh(
        quad, statics, solver_message, which):
    # reading the rollout's dynamics and the kept rows gives the bits of a
    # tick that solves and builds everything anew, at every tick time
    msg = (solver_message if which == "solver"
           else equilibrium_message(quad, *statics))
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)),
        cone=co.FrictionCone(mu=0.7))
    wbc.update_message(msg)
    times = rollout_reference(quad, msg, wbc.control_dt)[0]
    rng = np.random.default_rng(31)
    held = np.zeros(quad.nu)
    for t in times:
        x = mod.integrate(quad, wbc.reference_at(t),
                          1e-3 * rng.standard_normal(2 * quad.nv))
        u, mode, degraded = wbc_stance_tick(wbc, x, t, held)
        cmd = wbc.control(x, t)
        assert cmd.u.tobytes() == u.tobytes()
        assert (cmd.mode, cmd.degraded) == (mode, degraded)
        held = cmd.u


def test_wbc_torque_is_continuous_in_the_measured_state(quad, solver_message,
                                                       hqp_solutions):
    # a 1e-12 relative change of the measured state moves the torque by at
    # most about 1e-9 relative at every tick time, and the null-space widths
    # follow from the contact count alone
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)),
        cone=co.FrictionCone(mu=0.7))
    wbc.update_message(solver_message)
    times = rollout_reference(quad, solver_message, wbc.control_dt)[0]
    rng = np.random.default_rng(37)
    for t in times:
        x = mod.integrate(quad, wbc.reference_at(t),
                          1e-3 * rng.standard_normal(2 * quad.nv))
        u = wbc.control(x, t).u
        dx = 1e-12 * np.abs(x).max() * rng.standard_normal(2 * quad.nv)
        cmd = wbc.control(mod.integrate(quad, x, dx), t)
        assert cmd.mode == "wbc" and not cmd.degraded
        assert np.abs(cmd.u - u).max() <= 1e-9 * np.abs(u).max()
    assert len(hqp_solutions) == 2 * len(times)
    assert {tuple(sol.null_dims) for sol in hqp_solutions} == {(8, 6, 5, 0)}


@pytest.mark.parametrize("frames", [(0, 3), (0, 1, 3), (0, 1, 2, 3)])
def test_null_dims_follow_the_contact_count(quad, frames):
    # stage widths: 8 after the dynamics, less two per swing foot, two for
    # the centre of mass and one for the angular momentum, then none
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    cone = co.FrictionCone(mu=0.7)
    n = len(frames)
    swing = 2 * (4 - n)
    expected = [8] + ([8 - swing] if swing else []) + [
        6 - swing, 5 - swing, 0]
    for seed in range(4):
        tasks = perturbed_stance_tasks(quad, frames, seed=seed)
        sol = trk.hqp_solve(tasks, trk.wbc_inequality_rows(quad, bounds, cone, n),
                            trk.wbc_seed(quad, bounds, n))
        assert sol.null_dims == expected


def test_stage_qp_iterations_stay_below_size(quad, statics, solver_message,
                                             hqp_solutions):
    # every stage of every tick settles within n + m active-set iterations
    # (n free directions, m rows), so a cycling active set cannot hide
    cone = co.FrictionCone(mu=0.7)
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    rng = np.random.default_rng(41)
    for msg in (solver_message, equilibrium_message(quad, *statics)):
        wbc = trk.WholeBodyController(quad, bounds, cone=cone)
        wbc.update_message(msg)
        for t in rollout_reference(quad, msg, wbc.control_dt)[0]:
            x = mod.integrate(quad, wbc.reference_at(t),
                              1e-2 * rng.standard_normal(2 * quad.nv))
            assert not wbc.control(x, t).degraded
    m = trk.wbc_inequality_rows(quad, bounds, cone, 4).B.shape[0]
    assert hqp_solutions
    for sol in hqp_solutions:
        widths = [sol.y.size] + sol.null_dims[:-1]
        assert len(sol.iterations) == len(widths)
        for n, iterations in zip(widths, sol.iterations):
            assert iterations <= n + m


def test_wbc_tick_solves_the_reference_only_where_the_rollout_did_not(
        quad, solver_message, monkeypatch):
    # ingestion prepared every state of the first interval, its last state
    # included, so no tick there solves; a tick that first reaches a later
    # interval solves the steps it fills plus the dynamics at its own state,
    # a step from a state a tick prepared reuses its dynamics, and a
    # repeated tick, or one at a state a step already solved, solves none
    wbc = trk.WholeBodyController(quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)), cone=CONE)
    wbc.update_message(solver_message)
    times, states, sols = rollout_reference(quad, solver_message,
                                            wbc.control_dt)
    last = next(j for j, sol in enumerate(sols) if sol is None)
    assert 1 < last < len(sols) - 5      # the first interval's last state
    second = last + 1                    # the second interval's node state
    solves = count_calls(monkeypatch, ct.contact_forward_dynamics)
    reads = [(j, 0) for j in range(last + 1)] + [
        (last, 0), (second + 3, 3 + 1), (second + 3, 0), (second + 4, 0 + 1),
        (second + 1, 0)]
    for j, expected in reads:
        before = len(solves)
        assert wbc.control(np.array(states[j]), times[j]).mode == "wbc"
        assert len(solves) - before == expected


@pytest.mark.parametrize("controller, own", [(trk.RiccatiController, 0),
                                             (trk.WholeBodyController, 1)])
def test_ingestion_rolls_out_the_first_interval_alone(
        quad, solver_message, monkeypatch, controller, own):
    # n0 states in stance: n0 - 1 steps, and for the whole-body controller
    # the dynamics at the last state too; no tick inside the interval
    # solves, and the Riccati tracker keeps states alone
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    times, states, sols = rollout_reference(quad, solver_message,
                                            ctrl.control_dt)
    n0 = next(j for j, sol in enumerate(sols) if sol is None) + 1
    assert n0 == 8
    solves = count_calls(monkeypatch, ct.contact_forward_dynamics)
    ctrl.update_message(solver_message)
    assert len(solves) == n0 - 1 + own
    for j in range(n0):
        ctrl.control(np.array(states[j]), times[j])
    assert len(solves) == n0 - 1 + own
    filled = [x is not None for x in ctrl._ref.states]
    assert filled[:n0] == [True] * n0
    assert sum(filled) == n0 + len(solver_message.us_ff)   # and node states
    if controller is trk.RiccatiController:
        assert ctrl._ref.sols == ctrl._ref.terms == [None] * len(states)


def assert_same_bits(a, b):
    """Equal bytes field by field, for arrays, floats, None and dataclasses."""
    if hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b)
        for name in a.__dataclass_fields__:
            assert_same_bits(getattr(a, name), getattr(b, name))
    elif a is None or b is None:
        assert a is b
    else:
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_reads_match_the_oracle(quad, msg, order):
    """Ticks of a whole-body controller and reference reads of a Riccati
    controller at the reference indices in ``order`` leave, at every index
    read, the bits of the eager oracle: the state, and for the whole-body
    controller the contact dynamics there and their ``reference_terms``."""
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    wbc = trk.WholeBodyController(quad, bounds, cone=co.FrictionCone(mu=0.7))
    ric = trk.RiccatiController(quad, bounds)
    wbc.update_message(msg)
    ric.update_message(msg)
    times, states, sols = rollout_reference(quad, msg, wbc.control_dt)
    for j in order:
        t = times[j]
        i = msg.interval_at(t)
        frames = tuple(msg.contacts[i])
        wbc.control(np.array(states[j]), t)
        assert ric.reference_at(t).tobytes() == states[j].tobytes()
        ref = wbc._ref
        assert ref.states[j].tobytes() == states[j].tobytes()
        sol = sols[j] or ct.contact_forward_dynamics(
            quad, *mod.split_state(quad, states[j]),
            np.asarray(msg.us_ff[i], float), ct.ContactSet(frames=frames))
        for field in ("vdot", "forces", "J"):
            assert_same_bits(getattr(ref.sols[j], field), getattr(sol, field))
        assert_same_bits(ref.sols[j].mb.M, sol.mb.M)
        assert_same_bits(ref.sols[j].mb.h, sol.mb.h)
        assert_same_bits(ref.terms[j],
                         reference_terms(quad, states[j], sol, frames))


@pytest.mark.parametrize("which", ["solver", "equilibrium"])
@pytest.mark.parametrize("backward", [False, True])
def test_lazy_reference_has_the_bits_of_the_eager_oracle(
        quad, statics, solver_message, which, backward):
    msg = (solver_message if which == "solver"
           else equilibrium_message(quad, *statics))
    n = len(rollout_reference(quad, msg, 1.0 / 400.0)[0])
    order = range(n - 1, -1, -1) if backward else range(n)
    assert_reads_match_the_oracle(quad, msg, order)


@settings(max_examples=8)
@given(data=st.data())
def test_lazy_reference_has_the_oracle_bits_in_any_read_order(
        quad, statics, solver_message, data):
    for msg in (solver_message, equilibrium_message(quad, *statics)):
        n = len(rollout_reference(quad, msg, 1.0 / 400.0)[0])
        order = data.draw(st.permutations(range(n)))
        assert_reads_match_the_oracle(quad, msg, order)


def kept(ref):
    """What a tracker's reference holds at each index."""
    return list(ref.states), list(ref.sols), list(ref.terms)


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_singular_first_interval_leaves_the_previous_message(
        quad, solver_message, controller):
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    x0, t0 = np.array(solver_message.xs_ref[0]), solver_message.node_times[0]
    cmd = ctrl.control(x0, t0)
    ref = ctrl._ref
    held = kept(ref)
    bad = replace(solver_message,
                  xs_ref=[straight_legs(quad), *solver_message.xs_ref[1:]])
    with pytest.raises(RankDeficientContacts):
        ctrl.update_message(bad)
    assert ctrl.message is solver_message and ctrl._ref is ref
    assert kept(ref) == held
    assert ctrl._last is cmd
    assert ctrl.control(x0, t0).u.tobytes() == cmd.u.tobytes()


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_singular_later_interval_raises_from_the_tick_that_reaches_it(
        quad, solver_message, controller):
    # the second interval starts from straight legs: the message is taken,
    # and each tick that reaches the interval raises, filling nothing
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    xs = list(solver_message.xs_ref)
    msg = replace(solver_message, xs_ref=[xs[0], straight_legs(quad), *xs[2:]])
    ctrl.update_message(msg)
    x0, t0 = np.array(xs[0]), msg.node_times[0]
    cmd = ctrl.control(x0, t0)
    ref = ctrl._ref
    held = kept(ref)
    t = msg.node_times[1] + 2 * ctrl.control_dt
    for _ in range(2):
        with pytest.raises(RankDeficientContacts):
            ctrl.control(x0, t)
        assert kept(ref) == held
        assert ctrl._last is cmd
    with pytest.raises(RankDeficientContacts):
        ctrl.reference_at(t)
    assert kept(ref) == held
    # the first interval still ticks
    assert ctrl.control(x0, t0).u.tobytes() == cmd.u.tobytes()


@pytest.mark.parametrize("controller", [trk.RiccatiController,
                                        trk.WholeBodyController])
def test_a_fill_that_fails_midway_writes_nothing(quad, solver_message,
                                                 monkeypatch, controller):
    # the third contact solve of a tick's fill raises: none of the states
    # or dynamics before it are kept, and the tick goes through once the
    # solves do
    ctrl = tracker(controller, quad, co.default_bounds(
        quad, presets.nominal_configuration(quad)))
    ctrl.update_message(solver_message)
    ref = ctrl._ref
    held = kept(ref)
    solve = ct.contact_forward_dynamics
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RankDeficientContacts("injected")
        return solve(*args)

    monkeypatch.setattr(ct, "contact_forward_dynamics", failing)
    x0 = np.array(solver_message.xs_ref[0])
    t = solver_message.node_times[2] + 4 * ctrl.control_dt
    with pytest.raises(RankDeficientContacts):
        ctrl.control(x0, t)
    assert len(calls) == 3
    assert kept(ref) == held
    ctrl.control(x0, t)
    assert ref.states[ref.starts[2] + 4] is not None


def test_wbc_builds_rows_once_per_contact_count(quad, statics, monkeypatch):
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    wbc = trk.WholeBodyController(quad, co.default_bounds(quad, q0),
                                  cone=co.FrictionCone(mu=0.8))
    wbc.update_message(msg)
    rows = count_calls(monkeypatch, trk.wbc_inequality_rows)
    seeds = count_calls(monkeypatch, trk.wbc_seed)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    for t in (0.0, wbc.control_dt, 2 * wbc.control_dt):
        wbc.control(x0, t)
    assert len(rows) == len(seeds) == 1
    forces = np.asarray(forces_qs, float)
    two_feet = replace(msg, contacts=[(0, 3)] * 2,
                       forces_ref=[np.concatenate([forces[:2], forces[6:]])] * 2)
    wbc.update_message(two_feet)
    wbc.control(x0, 0.0)
    assert len(rows) == len(seeds) == 2
    # a message with a contact count seen before finds its rows
    wbc.update_message(msg)
    wbc.control(x0, 0.0)
    wbc.update_message(replace(two_feet, contacts=[(1, 2)] * 2))
    wbc.control(x0, 0.0)
    assert len(rows) == len(seeds) == 2


def test_wbc_reproduces_statics_at_equilibrium(quad, statics, hqp_solutions):
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    bounds = co.default_bounds(quad, q0)
    wbc = trk.WholeBodyController(quad, bounds, cone=CONE)
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
    cone = co.FrictionCone(mu=0.5)
    wbc = trk.WholeBodyController(quad, co.default_bounds(quad, q0),
                                  cone=cone)
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    cmd = wbc.control(x0, 0.0)
    assert not cmd.degraded
    C = co.cone_matrices(cone)
    lam = hqp_solutions[-1].y[quad.nv + quad.nu:]
    for k in range(4):
        assert np.all(C @ lam[2 * k:2 * k + 2] >= -1e-8)


def test_wbc_infeasible_dynamics_falls_back(quad, statics):
    # legs that can take no torque (a torque box of zero width) cannot hold
    # the feet of a splayed, tipped posture still with forces inside the
    # cone: the dynamics stage fails and the controller re-issues its
    # previous torque, marked degraded; at a posture they can hold, the
    # next tick commands normally again
    q0, u_qs, forces_qs = statics
    msg = equilibrium_message(quad, q0, u_qs, forces_qs)
    b = co.default_bounds(quad, q0)
    limp = co.Bounds(b.q_lb, b.q_ub, b.v_lb, b.v_ub, 0.0 * b.u_lb, 0.0 * b.u_ub)
    wbc = trk.WholeBodyController(quad, limp, cone=CONE)
    wbc.update_message(msg)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    splayed = mod.state(quad, [0.0, 0.35, -1.35, 0.1, -1.05, 1.03, -0.04,
                               -0.28, 0.29, -0.94, 1.26], np.zeros(quad.nv))
    with pytest.raises(Stage1Infeasible):
        trk.hqp_solve(*wbc_stance_cascade(wbc, splayed, 0.0))
    cmd = wbc.control(splayed, 0.0)
    assert cmd.degraded and cmd.mode == "wbc"
    np.testing.assert_array_equal(cmd.u, 0.0)       # nothing issued yet
    good = wbc.control(x0, 0.0)
    assert not good.degraded and good.mode == "wbc"
    held = wbc.control(splayed, wbc.control_dt)
    assert held.degraded and held.u.tobytes() == good.u.tobytes()
    assert not wbc.control(x0, 2 * wbc.control_dt).degraded


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
    wbc = trk.WholeBodyController(quad, bounds, cone=CONE)
    wbc.update_message(msg)

    dq = np.zeros(2 * nv)
    dq[3:nv] = 0.02
    dq[nv + 3:] = -0.1
    x = mod.integrate(quad, x0, dq)
    cmd = wbc.control(x, 0.0)
    assert cmd.mode == "flight_pd"
    q, v = mod.split_state(quad, x)
    expect = np.clip(trk.flight_pd(u_ff, q[3:], v[3:], q0[3:], np.zeros(nu)),
                     bounds.u_lb, bounds.u_ub)
    np.testing.assert_allclose(cmd.u, expect, atol=1e-12)


@pytest.mark.parametrize("law", ["riccati", "flight_pd", "fallback"])
def test_tick_clamps_the_torque_its_law_returns_to_the_box(quad, statics,
                                                          solver_message,
                                                          monkeypatch, law):
    # each torque law returns its raw torque and the tick clamps it once: a
    # Riccati feedback, a flight PD and a whole-body fallback that all leave
    # the box come out on it
    nv, nu = quad.nv, quad.nu
    q0, u_qs, forces_qs = statics
    x0 = mod.state(quad, q0, np.zeros(nv))
    bounds = co.default_bounds(quad, q0)
    rng = np.random.default_rng(7)
    if law == "riccati":
        msg = solver_message
        ctrl = trk.RiccatiController(quad, bounds)
        x = mod.integrate(quad, np.array(msg.xs_ref[0]),
                          20.0 * rng.standard_normal(2 * nv))
        raw = (np.asarray(msg.us_ff[0], float)
               + np.asarray(msg.K_gains[0], float) @ mod.difference(
                   quad, msg.xs_ref[0], x))
    elif law == "flight_pd":
        u_ff = 0.5 * rng.standard_normal(nu)
        msg = rh.PolicyMessage(
            stamp=0.0, node_times=[0.0, 0.02],
            xs_ref=[np.array(x0), np.array(x0)],
            us_ff=[u_ff], K_gains=[np.zeros((nu, 2 * nv))],
            forces_ref=[np.zeros(0)], contacts=[()],
            diagnostics={})
        ctrl = trk.WholeBodyController(quad, bounds, cone=CONE)
        ctrl.update_message(msg)
        # no error: the feed-forward torque, bit for bit
        assert ctrl.control(x0, 0.0).u.tobytes() == u_ff.tobytes()
        x = mod.state(quad, q0 + np.r_[0.0, 0.0, 0.0, np.full(nu, 10.0)],
                      np.zeros(nv))
        q, v = mod.split_state(quad, x)
        raw = trk.flight_pd(u_ff, q[3:], v[3:], q0[3:], np.zeros(nu))
    else:
        # a box that excludes zero: the fallback before any command
        # re-issues zero torque
        bounds = co.Bounds(bounds.q_lb, bounds.q_ub, bounds.v_lb, bounds.v_ub,
                           0.5 * bounds.u_ub, bounds.u_ub)
        msg = equilibrium_message(quad, q0, u_qs, forces_qs)
        ctrl = trk.WholeBodyController(quad, bounds, cone=CONE)

        def unsettled(*args, **kwargs):
            raise MaxIterations("forced")

        monkeypatch.setattr(trk, "_stage_qp", unsettled)
        x, raw = x0, np.zeros(nu)
    ctrl.update_message(msg)
    cmd = ctrl.control(x, 0.0)
    assert cmd.mode == ("wbc" if law == "fallback" else law)
    assert cmd.degraded == (law == "fallback")
    assert np.any((raw < bounds.u_lb) | (raw > bounds.u_ub))
    assert cmd.u.tobytes() == np.clip(raw, bounds.u_lb, bounds.u_ub).tobytes()


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
    q0 = presets.nominal_configuration(quad)
    rng = np.random.default_rng(23)
    v = 0.1 * rng.standard_normal(quad.nv)
    cen_ref = centroidal_at(quad, q0, np.zeros(quad.nv))
    cen = centroidal_at(quad, q0, v)
    hdot_ref = np.zeros(3)
    out = trk.momentum_policy(cen, cen_ref, hdot_ref)
    np.testing.assert_allclose(
        out, trk.MOMENTUM_DK * (cen_ref.k_G - cen.k_G), atol=1e-12)
