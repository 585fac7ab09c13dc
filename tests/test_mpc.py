import itertools
import json

import numpy as np
import pytest

from leggedmpc import contact as ct
from leggedmpc import costs as co
from leggedmpc import dynamics
from leggedmpc import kinematics
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc import presets, problem, schedule
from leggedmpc.errors import (ConfigError, InvalidMeasurement, LeggedMpcError,
                              NoStepAccepted, RankDeficientContacts)

from helpers import count_calls, single_body, straight_legs


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


def foot_placements(model):
    kin = kinematics.forward_kinematics(model, presets.nominal_configuration(model))
    return {f: kinematics.frame_position(model, kin, f)
            for f in range(len(model.contact_frames))}


def make_mpc(model, sched=None, horizon=0.4, dt=0.02, delay=0.0):
    q0 = presets.nominal_configuration(model)
    x0 = mod.state(model, q0, np.zeros(model.nv))
    if sched is None:
        sched = schedule.stand(range(4), foot_placements(model))
    cfg = rh.MpcConfig(horizon=horizon, node_dt=dt, update_rate=1.0 / dt,
                       expected_delay=delay)
    weights = co.default_weights(model, q0)
    bounds = co.default_bounds(model, q0)
    return rh.Mpc(model, sched, weights, bounds, cfg, x0)


# ------------------------------------------------------------ configuration

def test_config_rejects_off_grid_horizon():
    with pytest.raises(ConfigError):
        rh.MpcConfig(horizon=0.45, node_dt=0.02, update_rate=50.0)


def test_config_rejects_bad_fields():
    good = dict(horizon=0.4, node_dt=0.02, update_rate=50.0)
    rh.MpcConfig(**good)  # sanity
    rh.MpcConfig(**{**good, "horizon": 0.08})   # as long as the control horizon
    for bad in (dict(horizon=0.06),                # shorter than it
                dict(update_rate=0.0),
                dict(expected_delay=-0.001),
                dict(node_dt=-0.02),
                *(dict(horizon=v) for v in (np.nan, np.inf)),
                *(dict(node_dt=v) for v in (np.nan, np.inf)),
                *(dict(update_rate=v) for v in (np.nan, np.inf)),
                *(dict(expected_delay=v) for v in (np.nan, np.inf))):
        with pytest.raises(ConfigError):
            rh.MpcConfig(**{**good, **bad})


def test_config_node_count():
    cfg = rh.MpcConfig(horizon=0.5, node_dt=0.02, update_rate=25.0)
    assert cfg.n_nodes == 25


# ------------------------------------------------------- quasi-static start

def test_quasi_static_symmetric_stance(quad):
    q0 = presets.nominal_configuration(quad)
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    u, lam = rh.quasi_static_start(quad, q0, contacts)

    # torques and forces together must balance gravity exactly
    S = np.zeros((quad.nv, quad.nu))
    S[3:, :] = np.eye(quad.nu)
    J = ct.contact_jacobian_stack(quad, q0, contacts.frames)
    g = dynamics.gravity_torque(quad, q0)
    assert np.abs(S @ u + J.T @ lam - g).max() < 1e-9

    # symmetric posture: each foot carries a quarter of the weight
    normals = lam[1::2]
    assert np.allclose(normals, quad.total_mass * 9.81 / 4.0, rtol=1e-9)
    assert abs(lam[0::2].sum()) < 1e-9          # tangentials cancel
    assert np.all(np.abs(u) < quad.torque_limit)


def test_quasi_static_needs_contact(quad):
    q0 = presets.nominal_configuration(quad)
    with pytest.raises(ConfigError):
        rh.quasi_static_start(quad, q0, ct.ContactSet())


def test_quasi_static_single_support_offset_is_singular():
    # one contact not below the center of mass: gravity needs a moment the
    # contact force cannot produce
    box = single_body(mass=2.0, inertia=0.05, contact_offset=(0.3, -0.2))
    with pytest.raises(RankDeficientContacts):
        rh.quasi_static_start(box, np.zeros(3), ct.ContactSet(frames=(0,)))


def test_quasi_static_single_support_under_com():
    box = single_body(mass=2.0, inertia=0.05, contact_offset=(0.0, -0.2))
    u, lam = rh.quasi_static_start(box, np.zeros(3), ct.ContactSet(frames=(0,)))
    assert u.shape == (0,)
    assert lam == pytest.approx([0.0, 2.0 * 9.81])


def test_u_seed_is_the_quasi_static_torque(quad):
    ctrl = make_mpc(quad)
    q0 = presets.nominal_configuration(quad)
    balanced = 0
    for r in range(1, 5):
        for frames in itertools.combinations(range(4), r):
            try:
                u, _ = rh.quasi_static_start(quad, q0, ct.ContactSet(frames=frames))
            except RankDeficientContacts:
                continue
            assert np.array_equal(ctrl._u_seed(frames), u)
            balanced += 1
    assert balanced >= 6
    assert np.array_equal(ctrl._u_seed(()), np.zeros(quad.nu))


# ------------------------------------------------------ initial-state delay

def test_predict_zero_delay_is_identity(quad):
    rng = np.random.default_rng(7)
    x = mod.state(quad, presets.nominal_configuration(quad),
                  0.1 * rng.normal(size=quad.nv))
    out = rh.predict_initial_state(quad, x, np.zeros(quad.nu),
                                   ct.ContactSet(frames=(0, 1, 2, 3)), 0.0)
    assert np.array_equal(out, x)
    assert out is not x


def test_predict_free_fall_velocity_exact():
    box = single_body(mass=1.5, inertia=0.1)
    x = mod.state(box, np.array([0.0, 1.0, 0.0]), np.zeros(3))
    dt = 0.012
    out = rh.predict_initial_state(box, x, np.zeros(0), ct.ContactSet(), dt)
    q, v = mod.split_state(box, out)
    assert v[0] == pytest.approx(0.0, abs=1e-12)
    assert v[1] == pytest.approx(-9.81 * dt, abs=1e-12)
    assert v[2] == pytest.approx(0.0, abs=1e-12)
    assert q[1] < 1.0  # fell


def test_predict_equilibrium_unchanged(quad):
    q0 = presets.nominal_configuration(quad)
    x0 = mod.state(quad, q0, np.zeros(quad.nv))
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    u_qs, _ = rh.quasi_static_start(quad, q0, contacts)
    out = rh.predict_initial_state(quad, x0, u_qs, contacts, 0.005)
    assert np.abs(mod.difference(quad, out, x0)).max() < 1e-6


def test_predict_substepping_limits_step():
    box = single_body()
    x = mod.state(box, np.zeros(3), np.zeros(3))
    # one long delay vs. the same delay in halves should agree closely
    a = rh.predict_initial_state(box, x, np.zeros(0), ct.ContactSet(), 0.02)
    b = rh.predict_initial_state(box, x, np.zeros(0), ct.ContactSet(), 0.01)
    c = rh.predict_initial_state(box, b, np.zeros(0), ct.ContactSet(), 0.01)
    assert np.abs(a - c).max() < 1e-9


# --------------------------------------------------------- policy messages

def test_message_slice_shapes_and_bounds(quad):
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    msg = ctrl.step(x0, 0.0)
    assert rh.CONTROL_HORIZON_NODES == 4
    assert len(msg.us_ff) == 4
    assert len(msg.xs_ref) == 5
    assert len(msg.K_gains) == 4
    assert len(msg.forces_ref) == 4
    assert len(msg.contacts) == 4
    assert len(msg.node_times) == 5
    assert np.allclose(np.diff(msg.node_times), 0.02)
    assert msg.node_times[0] == 0.0
    bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
    for u in msg.us_ff:
        assert np.all(u >= bounds.u_lb - 1e-12)
        assert np.all(u <= bounds.u_ub + 1e-12)
    for K in msg.K_gains:
        assert K.shape == (quad.nu, 2 * quad.nv)
    for c in msg.contacts:
        assert c == (0, 1, 2, 3)


def test_message_interval_lookup():
    msg = rh.PolicyMessage(stamp=0.0, node_times=[0.1, 0.2, 0.3],
                           xs_ref=[0, 0, 0], us_ff=[0, 1], K_gains=[0, 0],
                           forces_ref=[0, 0], contacts=[(), ()],
                           diagnostics={})
    assert msg.interval_at(0.05) == 0
    assert msg.interval_at(0.1) == 0
    assert msg.interval_at(0.25) == 1
    assert msg.interval_at(0.95) == 1
    assert msg.validity_end == 0.3


def test_message_json_round_trip_and_field_order(quad):
    ctrl = make_mpc(quad)
    msg = ctrl.step(presets.nominal_state(quad), 0.0)
    text = msg.to_json()
    keys = list(json.loads(text, object_pairs_hook=lambda p: [k for k, _ in p]))
    assert keys == ["stamp", "node_times", "xs_ref", "us_ff", "K_gains",
                    "forces_ref", "contacts", "diagnostics"]
    back = rh.PolicyMessage.from_json(text)
    assert back.stamp == msg.stamp
    assert back.contacts == [tuple(c) for c in msg.contacts]
    for a, b in zip(back.xs_ref, msg.xs_ref):
        assert np.array_equal(a, b)          # float64 survives json exactly
    for a, b in zip(back.K_gains, msg.K_gains):
        assert np.array_equal(a, b)
    for a, b in zip(back.forces_ref, msg.forces_ref):
        assert np.array_equal(a, b)


# ------------------------------------------------------------ the MPC loop

def test_steady_state_messages_agree(quad):
    # regression: once the standing loop has settled onto its stationary
    # solution, consecutive messages must agree on the nodes they share.
    # The residual drift comes from the single polish iteration each window
    # gets; its plateau shrinks with the horizon (about 2.9e-4 at N=10,
    # 1.8e-4 at N=20, a few 1e-6 at N=100).
    ctrl = make_mpc(quad, horizon=0.2)
    x_meas = presets.nominal_state(quad)
    prev = None
    for i in range(24):
        msg = ctrl.step(x_meas, i * 0.02)
        assert not msg.diagnostics["degraded"]
        if prev is not None and i >= 12:
            for a, b in zip(prev.us_ff[1:], msg.us_ff[:-1]):
                assert np.abs(a - b).max() < 5e-4
            for a, b in zip(prev.xs_ref[1:], msg.xs_ref[:-1]):
                assert np.abs(a - b).max() < 5e-4
        prev = msg
        x_meas = np.array(msg.xs_ref[1])


def test_shifted_warm_start_reproduces_overlap(quad):
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    for i in range(3):
        ctrl.step(x0, i * 0.02)
    old_nodes, old_k0 = ctrl.problem.nodes, ctrl.problem.k0
    old_xs = [np.array(x) for x in ctrl.solver.xs]
    old_us = [np.array(u) for u in ctrl.solver.us]
    # shift one node ahead without iterating
    problem.update_problem(ctrl.problem, x0, t0=(old_k0 + 1) * 0.02)
    ctrl._shift_candidate(old_nodes, ctrl.solver.xs, ctrl.solver.us,
                          ctrl.solver.data, old_k0 + ctrl.problem.N)
    times = {int(round(n.time / 0.02)): i for i, n in enumerate(old_nodes)}
    for i, n in enumerate(ctrl.problem.nodes):
        j = times.get(int(round(n.time / 0.02)))
        if j is None:
            continue
        assert np.abs(ctrl.solver.xs[i] - old_xs[j]).max() < 1e-8
        assert np.abs(ctrl.solver.us[i] - old_us[j]).max() < 1e-8


def test_window_starts_at_wall_time(quad):
    # without a delay the first node sits at the wall time and the second on
    # the next grid node; a wall time on the grid keeps full intervals
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    for wall, k_next in ((0.029, 2), (0.0599, 3), (0.06, 4)):
        msg = ctrl.step(x0, wall)
        assert msg.node_times[0] == pytest.approx(wall, abs=1e-12)
        assert msg.node_times[1] == k_next * 0.02
    assert np.allclose(np.diff(msg.node_times), 0.02)


def test_delayed_window_starts_at_predicted_time(quad):
    delay = 0.01
    ctrl = make_mpc(quad, delay=delay)
    x0 = presets.nominal_state(quad)
    for k in range(3):
        wall = k * 0.02
        msg = ctrl.step(x0, wall)
        assert msg.node_times[0] == wall + delay
        assert msg.node_times[1] == (k + 1) * 0.02
        assert np.allclose(np.diff(msg.node_times[1:]), 0.02)
        first = ctrl.problem.nodes[0]
        assert first.time == wall + delay
        assert first.dt == pytest.approx(0.02 - delay, abs=1e-15)
        # xs_ref[1] is the plan's state at the next grid node
        assert np.array_equal(msg.xs_ref[1], ctrl.solver.xs[1])


def test_step_diagnostics_report_step_length_and_trials(quad):
    ctrl = make_mpc(quad, delay=0.01)
    msg = ctrl.step(presets.nominal_state(quad), 0.0)
    diag = msg.diagnostics
    assert diag["alpha"] == ctrl.solver.last_alpha
    assert 0.0 < diag["alpha"] <= 1.0
    assert isinstance(diag["trials"], int) and diag["trials"] >= 1
    back = rh.PolicyMessage.from_json(msg.to_json())
    assert back.diagnostics == diag


TROT_GAIT = dict(lead_in=0.04, swing=0.08, double_support=0.04, stride=0.05,
                 cycles=8)


@pytest.fixture(scope="module")
def delayed_trot(quad):
    """26 steps of the N = 15 trot with a 10 ms delay and exact measurements.

    Each measurement is the plan's own state at the step's wall time.
    Returns the messages, the gap of each candidate before its iteration,
    and, per step, node 0's swing targets with the schedule.
    """
    sched = schedule.trot((0, 2), (1, 3), foot_placements(quad), **TROT_GAIT)
    ctrl = make_mpc(quad, sched=sched, horizon=0.3, delay=0.01)
    solver = ctrl.solver
    pre_gaps, swings = [], []
    iterate = solver.solve_one_iteration

    def recorded():
        pre_gaps.append(solver.gap_norm)
        return iterate()

    solver.solve_one_iteration = recorded
    x = presets.nominal_state(quad)
    messages = []
    for k in range(26):
        msg = ctrl.step(x, k * 0.02)
        messages.append(msg)
        swings.append(dict(ctrl.problem.nodes[0].swing))
        x = np.array(msg.xs_ref[1])
    return messages, pre_gaps, swings, sched


def test_solver_log_keeps_only_the_latest_step(quad):
    # every step starts the solver from a new candidate, and with it a new
    # iteration log, so a long-running Mpc does not grow one
    ctrl = make_mpc(quad)
    x = presets.nominal_state(quad)
    for k in range(4):
        msg = ctrl.step(x, k * 0.02)
        assert len(ctrl.solver.log) <= 1
        x = np.array(msg.xs_ref[1])


def test_delayed_trot_takes_full_steps(delayed_trot):
    messages, _, _, _ = delayed_trot
    assert not any(m.diagnostics["degraded"] for m in messages)
    full = sum(m.diagnostics["alpha"] == 1.0 for m in messages)
    assert full >= 20


def test_delayed_trot_candidates_start_close_to_feasible(delayed_trot):
    _, pre_gaps, _, _ = delayed_trot
    assert len(pre_gaps) == 26
    assert np.median(pre_gaps) < 1.0


def test_delayed_trot_swing_targets_at_predicted_time(delayed_trot):
    _, _, swings, sched = delayed_trot
    seen = 0
    for k, swing in enumerate(swings):
        t_pred = k * 0.02 + 0.01
        for f, target in swing.items():
            pos, vel = schedule.evaluate_swing(sched.phase_at(f, t_pred), t_pred)
            assert np.array_equal(target.pos, pos)
            assert np.array_equal(target.vel, vel)
            seen += 1
    assert seen > 0


def test_wall_time_cannot_move_backwards(quad):
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    ctrl.step(x0, 0.08)
    with pytest.raises(ConfigError):
        ctrl.step(x0, 0.02)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_non_finite_wall_time_raises_and_changes_nothing(quad, t):
    # raised before the measurement check too: no message is stamped with t
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    ctrl.step(x0, 0.04)
    before = (ctrl.k0, *ctrl.problem.window(), ctrl.solver.xs, ctrl.solver.us,
              ctrl.last_message)
    for x in (x0, np.full_like(x0, np.nan)):
        with pytest.raises(ConfigError, match="finite"):
            ctrl.step(x, t)
    after = (ctrl.k0, *ctrl.problem.window(), ctrl.solver.xs, ctrl.solver.us,
             ctrl.last_message)
    assert all(a is b for a, b in zip(after, before))


def test_delay_prediction_becomes_problem_x0(quad):
    delay = 0.004
    ctrl = make_mpc(quad, delay=delay)
    rng = np.random.default_rng(3)
    x = presets.nominal_state(quad)
    x[quad.nv:] += 0.05 * rng.normal(size=quad.nv)
    # before the first message the prediction applies the seed's quasi-static torque
    u_qs, _ = rh.quasi_static_start(quad, presets.nominal_configuration(quad),
                                    ct.ContactSet(frames=(0, 1, 2, 3)))
    assert np.array_equal(ctrl.solver.us[0], u_qs)
    ctrl.step(x, 0.0)
    expect = rh.predict_initial_state(quad, x, u_qs,
                                      ct.ContactSet(frames=(0, 1, 2, 3)), delay)
    assert np.abs(ctrl.problem.x0 - expect).max() < 1e-12
    assert np.abs(ctrl.problem.x0 - x).max() > 1e-6  # prediction did something


def test_jump_sweep_keeps_the_nodes_of_shared_slots(quad):
    sched = schedule.jump(range(4), foot_placements(quad),
                          stance=0.30, flight=0.24)
    ctrl = make_mpc(quad, sched=sched, horizon=0.3, dt=0.03)
    x = presets.nominal_state(quad)
    # sweep the whole jump through the window: stance, flight, touchdown
    # impulse entering/leaving, and the settle tail
    for i in range(24):
        old = {n.slot: n for n in ctrl.problem.nodes}
        msg = ctrl.step(x, i * 0.03)
        assert all(old[n.slot] is n for n in ctrl.problem.nodes if n.slot in old)
        x = np.array(msg.xs_ref[1])
    assert not msg.diagnostics["degraded"]


def test_impulse_node_enters_window(quad):
    sched = schedule.jump(range(4), foot_placements(quad),
                          stance=0.30, flight=0.24)
    ctrl = make_mpc(quad, sched=sched, horizon=0.3, dt=0.03)
    kinds = [n.kind for n in ctrl.problem.nodes]
    assert "impulse" not in kinds            # landing at 0.54 out of view
    x = presets.nominal_state(quad)
    for i in range(9):
        msg = ctrl.step(x, i * 0.03)
        x = np.array(msg.xs_ref[1])
    kinds = [n.kind for n in ctrl.problem.nodes]
    assert kinds.count("impulse") == 1       # window [0.24, 0.54] sees it


def test_degraded_step_reemits_previous_policy(quad, monkeypatch):
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    first = ctrl.step(x0, 0.0)
    assert not first.diagnostics["degraded"]

    def fail():
        raise NoStepAccepted("forced")

    monkeypatch.setattr(ctrl.solver, "solve_one_iteration", fail)
    msg = ctrl.step(x0, 0.02)
    assert msg.diagnostics["degraded"]
    assert msg.stamp == pytest.approx(0.02)
    for a, b in zip(msg.us_ff, first.us_ff):
        assert np.array_equal(a, b)
    for a, b in zip(msg.K_gains, first.K_gains):
        assert np.array_equal(a, b)


def test_first_step_failure_propagates(quad, monkeypatch):
    ctrl = make_mpc(quad)

    def fail():
        raise NoStepAccepted("forced")

    monkeypatch.setattr(ctrl.solver, "solve_one_iteration", fail)
    with pytest.raises(NoStepAccepted):
        ctrl.step(presets.nominal_state(quad), 0.0)


def test_feedforward_held_between_nodes(quad):
    ctrl = make_mpc(quad)
    x0 = presets.nominal_state(quad)
    msg = ctrl.step(x0, 0.0)
    # mid-interval query returns the covering node's feed-forward
    u = ctrl._feedforward_at(0.031)
    assert np.array_equal(u, np.asarray(msg.us_ff[1]))


def assert_bad_measurement_reissues(quad, bad, delay=0.01,
                                    times=(0.0, 0.02, 0.04), no_step=False, sched=None):
    """``bad`` at the second of three step ``times`` re-issues the first
    policy marked degraded and changes nothing the third step depends on:
    the window, ``k0`` and the candidate with its data are those of the
    first step, and putting the candidate back solves no dynamics.  With
    ``no_step`` the second step's iteration runs every line search it would
    and accepts none of them (``NoStepAccepted`` at the largest mu)."""
    ctrl = make_mpc(quad, sched, delay=delay)
    clean = make_mpc(quad, sched, delay=delay)
    x0 = presets.nominal_state(quad)
    first = ctrl.step(x0, times[0])
    clean.step(x0, times[0])
    nodes, k0 = list(ctrl.problem.nodes), ctrl.problem.k0
    mpc_k0, xs, us, data = ctrl.k0, ctrl.solver.xs, ctrl.solver.us, ctrl.solver.data
    if no_step:
        line_search = ctrl.solver._line_search
        ctrl.solver._line_search = lambda: line_search() and None
    solved, set_candidate = [], ctrl.solver.set_candidate

    def counted(*args, **kwargs):
        # the dynamics each candidate the step sets solves: the shifted one
        # and the one put back
        with pytest.MonkeyPatch.context() as m:
            calls = [count_calls(m, f) for f in (ct.contact_forward_dynamics,
                                                 ct.impulse_dynamics)]
            set_candidate(*args, **kwargs)
        solved.append(sum(map(len, calls)))
    ctrl.solver.set_candidate = counted
    msg = ctrl.step(bad, times[1])
    del ctrl.solver.set_candidate
    if no_step:
        del ctrl.solver._line_search
        assert solved == [0, 0]
    assert not any(solved)
    assert msg.diagnostics["degraded"]
    assert msg.stamp == pytest.approx(times[1])
    for a, b in zip(msg.us_ff, first.us_ff):
        assert np.array_equal(a, b)
    assert ctrl.problem.k0 == k0 and ctrl.k0 == mpc_k0
    assert all(a is b for a, b in zip(ctrl.problem.nodes, nodes, strict=True))
    for a, b in ((ctrl.solver.xs, xs), (ctrl.solver.us, us)):
        assert all(np.array_equal(p, q) for p, q in zip(a, b, strict=True))
    assert all(a is b for a, b in zip(ctrl.solver.data, data, strict=True))
    # the bad measurement changed nothing the next step depends on
    got = ctrl.step(x0, times[2])
    want = clean.step(x0, times[2])
    assert not got.diagnostics["degraded"]
    for field in ("xs_ref", "us_ff", "K_gains"):
        for a, b in zip(getattr(got, field), getattr(want, field)):
            assert np.array_equal(a, b), field


def test_non_finite_measurement_reissues_previous_policy(quad):
    bad = presets.nominal_state(quad)
    bad[quad.nq + 1] = np.nan
    assert_bad_measurement_reissues(quad, bad)


def test_singular_measurement_reissues_previous_policy(quad):
    assert_bad_measurement_reissues(quad, straight_legs(quad))


def test_singular_measurement_off_the_grid_reissues_previous_policy(quad):
    # without a delay, a window starting inside a slot rolls its first node
    # out from the measured state itself
    assert_bad_measurement_reissues(quad, straight_legs(quad), delay=0.0,
                                    times=(0.013, 0.033, 0.053))


def test_a_step_that_accepts_no_step_reissues_previous_policy(quad):
    assert_bad_measurement_reissues(quad, presets.nominal_state(quad),
                                    no_step=True)


def test_a_failed_trot_step_leaves_the_schedule_memo_harmless(quad):
    # the failed window read a grid slot the first did not; the problem's
    # memo of schedule reads keeps it, and the next step reads the bits a
    # clean controller reads
    sched = schedule.trot((0, 2), (1, 3), foot_placements(quad), lead_in=0.04,
                          swing=0.08, double_support=0.04, stride=0.05, cycles=4)
    assert_bad_measurement_reissues(quad, presets.nominal_state(quad),
                                    no_step=True, sched=sched)


def test_non_finite_first_measurement_raises(quad):
    ctrl = make_mpc(quad, delay=0.01)
    bad = presets.nominal_state(quad)
    bad[0] = np.inf
    with pytest.raises(InvalidMeasurement):
        ctrl.step(bad, 0.0)
    assert ctrl.last_message is None and ctrl.steps == 0


def test_singular_first_measurement_raises(quad):
    ctrl = make_mpc(quad, delay=0.01)
    with pytest.raises(RankDeficientContacts):
        ctrl.step(straight_legs(quad), 0.0)
    assert ctrl.last_message is None and ctrl.steps == 0


def assert_whole_message(msg, bounds):
    """Finite numbers throughout, and feed-forward torques in the box."""
    assert all(np.isfinite(np.asarray(a, float)).all() for a in (
        *msg.xs_ref, *msg.us_ff, *msg.K_gains, *msg.forces_ref))
    assert all(np.all((bounds.u_lb <= u) & (u <= bounds.u_ub)) for u in msg.us_ff)


def test_a_jump_past_the_window_reseeds_the_tail_from_the_nominal_state(
        quad, monkeypatch):
    ctrl = make_mpc(quad)             # 20 nodes: the window ends at 0.4 s
    ctrl.step(presets.nominal_state(quad), 0.0)
    seeds, set_candidate = [], ctrl.solver.set_candidate

    def spy(xs=None, us=None, data=None):
        seeds.append([np.array(x) for x in xs])
        set_candidate(xs, us, data)

    monkeypatch.setattr(ctrl.solver, "set_candidate", spy)
    x = presets.nominal_state(quad)
    x[quad.nq:] += 0.1
    msg = ctrl.step(x, 1.0)
    # no node of the new window follows on from the previous one, so its
    # first state is the nominal one, not the measurement
    assert np.array_equal(seeds[0][0], ctrl.x_nominal)
    assert not np.array_equal(ctrl.problem.x0, ctrl.x_nominal)
    assert not msg.diagnostics["degraded"]
    assert_whole_message(msg, ctrl.bounds)


@pytest.mark.parametrize("seed", [195, 285, 295])
def test_a_noisy_trot_leaks_no_numpy_warning(quad, seed):
    # 12 steps of the N = 15 trot, each measurement the previous one plus
    # noise, so the measurement drifts far from any plan; wall time mostly
    # advances by a node period, but repeats or leaps half a second at
    # times.  On these seeds trial steps and rollouts overflow on the way,
    # yet no warning reaches the caller, and every step returns a whole
    # message or a package error
    rng = np.random.default_rng(seed)
    sched = schedule.trot((0, 2), (1, 3), foot_placements(quad), **TROT_GAIT)
    ctrl = make_mpc(quad, sched=sched, horizon=0.3,
                    delay=(0.0, 0.01, 0.013)[seed % 3])
    x, t = presets.nominal_state(quad), 0.0
    for _ in range(12):
        x = np.array(x)
        x[:quad.nq] += 0.3 * rng.standard_normal(quad.nq)
        x[quad.nq:] += 3.0 * rng.standard_normal(quad.nv)
        try:
            assert_whole_message(ctrl.step(x, t), ctrl.bounds)
        except LeggedMpcError:
            pass
        r = rng.random()
        t += 0.0 if r < 0.1 else 0.5 if r < 0.2 else 0.02 + rng.uniform(-0.003, 0.003)
