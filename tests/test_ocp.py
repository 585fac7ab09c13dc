import math

import numpy as np
import pytest

from leggedmpc import costs as co
from leggedmpc import model as mod
from leggedmpc import _kernels, presets, problem, schedule
from leggedmpc.errors import ConfigError, DimensionMismatch, ScheduleError

from helpers import mis_shaped_states, random_state


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


def foot_placements(model):
    from leggedmpc import kinematics
    kin = kinematics.forward_kinematics(model, presets.nominal_configuration(model))
    return {f: kinematics.frame_position(model, kin, f)
            for f in range(len(model.contact_frames))}


# ---------------------------------------------------------------- schedule

def test_stand_schedule_permanent(quad):
    sched = schedule.stand(range(4), foot_placements(quad))
    assert sched.active_set(0.0) == (0, 1, 2, 3)
    assert sched.active_set(123.0) == (0, 1, 2, 3)
    assert sched.touchdowns_in(0.0, 100.0) == []
    assert sched.covers(1e9)


def test_zero_duration_phases_removed(quad):
    placements = foot_placements(quad)
    segs = {f: [schedule.Segment(active=0.5, inactive=0.0),
                schedule.Segment(active=math.inf)] for f in range(4)}
    sched = schedule.ContactSchedule(segs, placements)
    # no swing phase was ever created: permanently in stance
    assert sched.touchdowns_in(0.0, 10.0) == []
    assert sched.in_contact(0, 0.5)
    assert sched.in_contact(2, 7.0)


def test_jump_timeline(quad):
    placements = foot_placements(quad)
    sched = schedule.jump(range(4), placements, stance=0.3, flight=0.4)
    assert sched.active_set(0.1) == (0, 1, 2, 3)
    assert sched.active_set(0.5) == ()
    assert sched.active_set(0.8) == (0, 1, 2, 3)
    assert sched.active_set(123.0) == (0, 1, 2, 3)
    tds = sched.touchdowns_in(0.0, 100.0)
    assert [t for t, _ in tds] == pytest.approx([0.7] * 4)


def test_swing_reference_endpoints(quad):
    placements = foot_placements(quad)
    sched = schedule.jump(range(4), placements, stance=0.3, flight=0.4)
    p0 = placements[1]
    pos, vel = schedule.evaluate_swing(sched.phase_at(1, 0.3), 0.3)
    assert np.allclose(pos, p0, atol=1e-12)
    assert np.allclose(vel, 0.0, atol=1e-12)
    # mid swing: apex, moving up/none
    pos, vel = schedule.evaluate_swing(sched.phase_at(1, 0.5), 0.5)
    assert pos[1] == pytest.approx(p0[1] + 0.08)
    pos, vel = schedule.evaluate_swing(sched.phase_at(1, 0.7 - 1e-9), 0.7 - 1e-9)
    assert np.allclose(pos, p0, atol=1e-7)
    assert np.allclose(vel, 0.0, atol=1e-5)


def test_swing_reference_consistent_with_fd(quad):
    placements = foot_placements(quad)
    sched = schedule.trot((0, 2), (1, 3), placements, lead_in=0.2, swing=0.3,
                          double_support=0.1, stride=0.15, cycles=2)
    eps = 1e-7
    for t in (0.25, 0.3, 0.42):
        pos_p, _ = schedule.evaluate_swing(sched.phase_at(0, t + eps), t + eps)
        pos_m, _ = schedule.evaluate_swing(sched.phase_at(0, t - eps), t - eps)
        _, vel = schedule.evaluate_swing(sched.phase_at(0, t), t)
        assert np.abs((pos_p - pos_m) / (2 * eps) - vel).max() < 1e-5


def test_trot_alternates_and_strides(quad):
    placements = foot_placements(quad)
    stride = 0.12
    sched = schedule.trot((0, 2), (1, 3), placements, lead_in=0.2, swing=0.3,
                          double_support=0.1, stride=stride, cycles=2)
    assert sched.active_set(0.1) == (0, 1, 2, 3)
    assert sched.active_set(0.35) == (1, 3)     # pair A swinging
    assert sched.active_set(0.55) == (0, 1, 2, 3)
    assert sched.active_set(0.75) == (0, 2)     # pair B swinging
    # each foot advances one stride per cycle
    assert np.allclose(sched.placement(0, 0.55), placements[0] + [stride, 0.0])
    assert np.allclose(sched.placement(0, 1.5), placements[0] + [2 * stride, 0.0])


def test_grid_alignment_rejects_half_offset(quad):
    placements = foot_placements(quad)
    segs = {f: [schedule.Segment(active=0.105, inactive=0.2),
                schedule.Segment(active=math.inf)] for f in range(4)}
    sched = schedule.ContactSchedule(segs, placements)
    with pytest.raises(ScheduleError):
        sched.check_grid_alignment(0.01)
    # on-grid boundaries pass
    schedule.jump(range(4), placements, stance=0.3, flight=0.4).check_grid_alignment(0.01)


def test_schedule_too_short_raises(quad):
    placements = foot_placements(quad)
    segs = {f: [schedule.Segment(active=0.2)] for f in range(4)}
    sched = schedule.ContactSchedule(segs, placements)
    q0 = presets.nominal_configuration(quad)
    with pytest.raises(ScheduleError):
        problem.build_problem(quad, sched, co.default_weights(quad, q0),
                              co.default_bounds(quad, q0),
                              presets.nominal_state(quad), N=30, dt=0.02)


def _trot(placements, **kw):
    return schedule.trot((0, 2), (1, 3), placements, **{
        "lead_in": 0.2, "swing": 0.3, "double_support": 0.1, "stride": 0.15,
        "cycles": 2, **kw})


def _jump(placements, **kw):
    return schedule.jump(range(4), placements, **{"stance": 0.3, "flight": 0.4, **kw})


def _segments(*segs):
    return lambda placements: schedule.ContactSchedule(
        {f: list(segs) for f in range(4)}, placements)


SILENTLY_DROPPED = {
    "jump-stance-nan": lambda p: _jump(p, stance=math.nan),     # starts in flight
    "jump-flight-nan": lambda p: _jump(p, flight=math.nan),     # no jump
    "jump-flight-inf": lambda p: _jump(p, flight=math.inf),     # lands at t = inf
    "trot-swing-nan": lambda p: _trot(p, swing=math.nan),       # never lifts a foot
    "trot-lead-in-nan": lambda p: _trot(p, lead_in=math.nan),   # loses its lead-in
    "trot-stride-nan": lambda p: _trot(p, stride=math.nan),     # nan targets
    "trot-cycles-0": lambda p: _trot(p, cycles=0),              # swings once anyway
    "trot-cycles-negative": lambda p: _trot(p, cycles=-3),
    "trot-cycles-fraction": lambda p: _trot(p, cycles=1.5),
    "segment-stance-nan": _segments(schedule.Segment(math.nan, 0.1),
                                    schedule.Segment(math.inf)),
    "swing-after-infinite-stance": _segments(schedule.Segment(math.inf, 0.1)),
    "stance-after-infinite-stance": _segments(schedule.Segment(math.inf),
                                              schedule.Segment(0.2)),
    "placement-nan": lambda p: schedule.stand(range(4), {**p, 2: np.array([np.nan, 0.0])}),
}


@pytest.mark.parametrize("build", SILENTLY_DROPPED.values(), ids=SILENTLY_DROPPED.keys())
def test_schedules_refuse_durations_they_would_silently_drop(quad, build):
    with pytest.raises(ScheduleError):
        build(foot_placements(quad))


def test_trot_refuses_a_foot_in_both_groups(quad):
    # the shared foot kept only the second group's timeline
    with pytest.raises(ScheduleError, match="both trot groups"):
        schedule.trot((0, 2), (2, 3), foot_placements(quad), lead_in=0.2, swing=0.3,
                      double_support=0.1, stride=0.15, cycles=2)


def _without_foot(placements, foot):
    return {f: p for f, p in placements.items() if f != foot}


NOT_A_POINT = {
    "stand-placement-missing": lambda p: schedule.stand(range(4), _without_foot(p, 2)),
    "trot-placement-missing": lambda p: _trot(_without_foot(p, 3)),
    "placement-3-vector": lambda p: schedule.stand(range(4), {**p, 1: np.zeros(3)}),
    "trot-placement-3-vector": lambda p: _trot({**p, 0: np.zeros(3)}),
    "target-3-vector": _segments(schedule.Segment(0.2, 0.1, target=np.zeros(3)),
                                 schedule.Segment(math.inf)),
    "target-scalar": _segments(schedule.Segment(0.2, 0.1, target=0.5),
                               schedule.Segment(math.inf)),
}


@pytest.mark.parametrize("build", NOT_A_POINT.values(), ids=NOT_A_POINT.keys())
def test_schedules_refuse_a_placement_or_target_that_is_not_a_point(quad, build):
    # a missing foot raised a bare KeyError, and a 3-vector was accepted
    # until a window broadcast it against the model's 2-D foot positions
    with pytest.raises(ScheduleError, match=r"finite \(2,\) point"):
        build(foot_placements(quad))


@pytest.mark.parametrize("apex", [math.nan, math.inf, -0.01])
def test_schedules_refuse_a_non_finite_or_negative_apex(quad, apex):
    # every window holding a swing would cost nan, or fly the foot underground
    with pytest.raises(ConfigError, match="apex"):
        schedule.ContactSchedule(
            {f: [schedule.Segment(0.2, 0.1), schedule.Segment(math.inf)] for f in range(4)},
            foot_placements(quad), apex=apex)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_a_non_finite_window_start_raises_and_changes_nothing(quad, t0):
    q0 = presets.nominal_configuration(quad)
    x0 = presets.nominal_state(quad)
    args = (quad, schedule.stand(range(4), foot_placements(quad)),
            co.default_weights(quad, q0), co.default_bounds(quad, q0), x0)
    with pytest.raises(ConfigError):
        problem.build_problem(*args, N=5, dt=0.02, t0=t0)
    prob = problem.build_problem(*args, N=5, dt=0.02, t0=0.04)
    window = prob.window()
    with pytest.raises(ConfigError):
        problem.update_problem(prob, x0, t0)
    assert all(a is b for a, b in zip(prob.window(), window))


def test_a_mis_shaped_initial_state_raises_and_changes_nothing(quad):
    q0 = presets.nominal_configuration(quad)
    x0 = presets.nominal_state(quad)
    args = (quad, schedule.stand(range(4), foot_placements(quad)),
            co.default_weights(quad, q0), co.default_bounds(quad, q0))
    prob = problem.build_problem(*args, x0, N=5, dt=0.02, t0=0.04)
    window = prob.window()
    for bad in mis_shaped_states(x0):
        with pytest.raises(DimensionMismatch):
            problem.build_problem(*args, bad, N=5, dt=0.02)
        with pytest.raises(DimensionMismatch):
            problem.update_problem(prob, bad, 0.06)
        assert all(a is b for a, b in zip(prob.window(), window))


# ------------------------------------------------------------ friction cone

def test_cone_feasibility():
    C = co.cone_matrices(co.FrictionCone(mu=0.7))
    assert np.all(C @ np.array([0.5, 1.0]) >= 0.0)
    assert not np.all(C @ np.array([0.8, 1.0]) >= 0.0)
    assert not np.all(C @ np.array([0.0, -1.0]) >= 0.0)


def test_cone_degenerate_mu_zero():
    C = co.cone_matrices(co.FrictionCone(mu=0.0))
    assert np.all(C @ np.array([0.0, 2.0]) >= 0.0)
    assert not np.all(C @ np.array([1e-3, 2.0]) >= 0.0)
    assert not np.all(C @ np.array([0.0, -0.5]) >= 0.0)


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.7, 0.8, 1.3])
def test_upright_cone_has_the_bits_of_the_unrotated_surface_rows(mu):
    # the upright cone's rows are the surface-frame rows turned by a zero
    # rotation, bit for bit: (-sin 0) is -0.0, yet no entry changes
    A = np.array([[-1.0, mu], [1.0, mu], [0.0, 1.0]])
    R = np.array([[np.cos(0.0), -np.sin(0.0)], [np.sin(0.0), np.cos(0.0)]])
    C = co.cone_matrices(co.FrictionCone(mu=mu))
    assert C.tobytes() == (A @ R.T).tobytes()


def test_cone_violation_keeps_a_zero_row_positive():
    # a force on a cone row violates nothing: +0.0 there, subtracted from
    # 0.0, where a negated row would give max(0.0, -0.0) = -0.0
    C = co.cone_matrices(co.FrictionCone(mu=0.7))
    lam = np.array([0.0, 0.0, 0.7, 1.0, -0.7, 1.0])
    want = np.maximum(0.0, np.zeros(3) - lam.reshape(3, 2) @ C.T).ravel()
    got = co.cone_violation(C, lam)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()


def cone_penalty(C, lam, w):
    """Value, gradient and Gauss-Newton Hessian of w |r|^2 in the forces."""
    r, J = co.cone_residual(C, lam)
    return w * float(r @ r), 2.0 * w * (J.T @ r), 2.0 * w * (J.T @ J)


def test_cone_penalty_gradient_fd():
    C = co.cone_matrices(co.FrictionCone(mu=0.4))
    # the first contact violates a friction row and the normal row (it
    # pulls), the second is inside
    lam = np.array([2.0, -3.0, 0.1, 6.0])
    w = 7.0
    val, grad, hess = cone_penalty(C, lam, w)
    assert val > 0
    eps = 1e-7
    for i in range(lam.size):
        d = np.zeros(lam.size)
        d[i] = eps
        vp = cone_penalty(C, lam + d, w)[0]
        vm = cone_penalty(C, lam - d, w)[0]
        assert abs((vp - vm) / (2 * eps) - grad[i]) < 1e-5 * max(1, abs(grad[i]))
    assert np.all(np.linalg.eigvalsh(hess) >= -1e-12)


def test_cone_penalty_zero_inside():
    C = co.cone_matrices(co.FrictionCone(mu=0.7))
    val, grad, _ = cone_penalty(C, np.array([0.1, 1.0, -0.2, 0.5]), 10.0)
    assert val == 0.0
    assert np.all(grad == 0.0)


def test_cone_violation_has_the_bits_of_the_residual():
    # a cost pass takes the violation alone: the residual of cone_residual,
    # for one contact set and for a stack
    C = co.cone_matrices(co.FrictionCone(mu=0.7))
    rng = np.random.default_rng(19)
    for lam in (rng.normal(size=6), rng.normal(size=(5, 4)), np.array([-0.0, 1.0])):
        r, _ = co.cone_residual(C, lam)
        got = co.cone_violation(C, lam)
        assert got.shape == r.shape and got.tobytes() == r.tobytes()


def test_weights_validation(quad):
    q = presets.nominal_configuration(quad)
    w = co.default_weights(quad, q)
    with pytest.raises(ConfigError):
        co.CostWeights(Q=-w.Q, N=w.N, R=w.R, q_ref=q)
    with pytest.raises(ConfigError):
        co.FrictionCone(mu=-0.1)


@pytest.mark.parametrize("mu", [np.nan, np.inf])
def test_friction_cone_rejects_a_non_finite_mu(mu):
    with pytest.raises(ConfigError):
        co.FrictionCone(mu=mu)


def test_bounds_reject_crossed_velocity_limits(quad):
    b = co.default_bounds(quad, presets.nominal_configuration(quad))
    v_lb = b.v_lb.copy()
    v_lb[4] = b.v_ub[4] + 1.0
    with pytest.raises(ConfigError):
        co.Bounds(b.q_lb, b.q_ub, v_lb, b.v_ub, b.u_lb, b.u_ub)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["Q", "N", "R", "q_ref"])
def test_weights_reject_a_non_finite_entry(quad, name, bad):
    # np.any(nan < 0) is False, so only the finiteness test catches it
    w = co.default_weights(quad, presets.nominal_configuration(quad))
    value = getattr(w, name).copy()
    value[3] = bad
    with pytest.raises(ConfigError, match=name):
        co.CostWeights(**{**vars(w), name: value})


@pytest.mark.parametrize("name", ["q_lb", "q_ub", "v_lb", "v_ub", "u_lb", "u_ub"])
def test_bounds_reject_a_nan_entry(quad, name):
    # every comparison with nan is False, so the crossing test passes it;
    # the base rows' infinite bounds stay valid
    b = co.default_bounds(quad, presets.nominal_configuration(quad))
    assert np.isinf(b.q_lb[:3]).all() and np.isinf(b.v_ub[:3]).all()
    value = getattr(b, name).copy()
    value[4] = np.nan
    with pytest.raises(ConfigError, match=name):
        co.Bounds(**{**vars(b), name: value})


# ------------------------------------------------------- problem structure

def make_problem(quad, kind="stand", N=10, dt=0.02, t0=0.0):
    placements = foot_placements(quad)
    if kind == "stand":
        sched = schedule.stand(range(4), placements)
    elif kind == "jump":
        sched = schedule.jump(range(4), placements, stance=0.2, flight=0.2)
    else:
        sched = schedule.trot((0, 2), (1, 3), placements, lead_in=0.2,
                              swing=0.2, double_support=0.1, stride=0.1,
                              cycles=3)
    w = co.default_weights(quad, presets.nominal_configuration(quad))
    b = co.default_bounds(quad, presets.nominal_configuration(quad))
    return problem.build_problem(quad, sched, w, b, presets.nominal_state(quad),
                                 N=N, dt=dt, t0=t0)


@pytest.mark.parametrize("N, dt", [(5, np.nan), (5, np.inf), (5, 0.0), (5, -0.02),
                                   (-1, 0.02), (0, 0.02), (2.5, 0.02)])
def test_window_rejects_a_bad_node_count_or_period(quad, N, dt):
    # N a positive integer, dt finite and positive, by the settings rule
    with pytest.raises(ConfigError):
        make_problem(quad, "stand", N=N, dt=dt)


@pytest.mark.parametrize("feet", [range(5), (-1, 0, 1, 2)], ids=["foot-4", "foot-minus-1"])
def test_window_rejects_a_schedule_foot_the_model_lacks(quad, feet, monkeypatch):
    # foot 4 raised IndexError from the model's frame plan, and foot -1
    # silently stood for the last frame
    sched = schedule.stand(feet, {f: np.zeros(2) for f in feet})
    q0 = presets.nominal_configuration(quad)
    monkeypatch.setattr(problem.ShootingProblem, "_node", lambda *a: pytest.fail("built"))
    with pytest.raises(ConfigError, match="contact frames"):
        problem.build_problem(quad, sched, co.default_weights(quad, q0),
                              co.default_bounds(quad, q0), presets.nominal_state(quad),
                              N=5, dt=0.02)


def test_stand_problem_shape(quad):
    prob = make_problem(quad, "stand", N=10)
    assert len(prob.nodes) == 10
    assert all(n.kind == "running" for n in prob.nodes)
    # one terminal node closes every window of the problem
    terminal = prob.terminal
    problem.update_problem(prob, prob.x0, 0.1)
    assert prob.terminal is terminal


def test_impulse_node_index(quad):
    # touchdown at t=0.4 with dt=0.02 -> impulse inserted at slot 20
    prob = make_problem(quad, "jump", N=30, dt=0.02)
    kinds = [n.kind for n in prob.nodes]
    assert kinds.count("impulse") == 1
    idx = kinds.index("impulse")
    assert idx == 20
    assert prob.nodes[idx].time == pytest.approx(0.4)
    assert prob.nodes[idx].nu == 0
    assert prob.nodes[idx].dt == 0.0
    # flight nodes carry no contacts, stance nodes all four
    assert prob.nodes[5].contacts.frames == (0, 1, 2, 3)
    assert prob.nodes[15].contacts.frames == ()
    assert prob.nodes[idx].contacts.frames == (0, 1, 2, 3)


def test_rollout_cost_is_sum_of_nodes(quad):
    prob = make_problem(quad, "jump", N=30)
    us = [np.zeros(n.nu) for n in prob.nodes]
    xs, data = prob.rollout(us)
    cost, gaps = prob.calc(xs, us, data)
    total = sum(n.calc(xs[k], us[k])[1] for k, n in enumerate(prob.nodes))
    total += prob.terminal.calc(xs[-1])
    assert cost == pytest.approx(total, rel=1e-12)
    assert max(np.abs(g).max() for g in gaps) < 1e-12


def test_receding_shift_equivalence(quad):
    # building one node later = dropping the first node of the longer window
    a = make_problem(quad, "trot", N=12, dt=0.02, t0=0.0)
    b = make_problem(quad, "trot", N=12, dt=0.02, t0=0.02)
    for na, nb in zip(a.nodes[1:], b.nodes[:-1]):
        assert na.kind == nb.kind
        assert na.time == nb.time
        assert na.contacts.frames == nb.contacts.frames
        if na.kind == "running":
            assert sorted(na.swing) == sorted(nb.swing)
            for f in na.swing:
                assert np.array_equal(na.swing[f].pos, nb.swing[f].pos)
                assert np.array_equal(na.swing[f].vel, nb.swing[f].vel)


def test_rebuild_determinism(quad):
    a = make_problem(quad, "trot", N=15)
    b = make_problem(quad, "trot", N=15)
    rng = np.random.default_rng(8)
    x = random_state(quad, rng, spread=0.1)
    for na, nb in zip(a.nodes, b.nodes):
        u = rng.normal(size=na.nu)
        xa, ca = na.calc(x, u)
        xb, cb = nb.calc(x, u)
        assert np.array_equal(xa, xb) and ca == cb


def test_update_problem_reuses_nodes(quad):
    placements = foot_placements(quad)
    sched = schedule.stand(range(4), placements)
    w = co.default_weights(quad, presets.nominal_configuration(quad))
    b = co.default_bounds(quad, presets.nominal_configuration(quad))
    x0 = presets.nominal_state(quad)
    prob = problem.build_problem(quad, sched, w, b, x0, N=10, dt=0.02)
    old = list(prob.nodes)
    out = problem.update_problem(prob, x0, t0=0.02)
    assert out is prob
    # one slot later: the nine slots both windows hold keep their nodes
    assert all(a is b for a, b in zip(prob.nodes[:-1], old[1:], strict=True))
    assert not any(prob.nodes[-1] is n for n in old)
    assert prob.nodes[0].time == pytest.approx(0.02)


def test_grid_nodes_take_the_node_period(quad):
    # each running node of the jump problem evaluates exactly as a fresh
    # node built with the grid period
    prob = make_problem(quad, "jump", N=30, dt=0.02)
    rng = np.random.default_rng(12)
    running = [n for n in prob.nodes if n.kind == "running"]
    for node in running[::4]:
        assert node.dt == 0.02
        fresh = problem.RunningNode(quad, prob.weights, prob.bounds,
                                    node.time, node.contacts, node.swing, 0.02)
        x = random_state(quad, rng, spread=0.1)
        u = rng.normal(size=quad.nu)
        xa, ca = node.calc(x, u)
        xb, cb = fresh.calc(x, u)
        assert np.array_equal(xa, xb) and ca == cb
        da, db = problem.differentiate_nodes([node, fresh], [x, x], [u, u])
        for name in ("fx", "fu", "lx", "lu", "lxx", "lxu", "luu"):
            assert np.array_equal(getattr(da, name), getattr(db, name)), name


def test_window_inside_a_slot_shortens_the_first_node(quad):
    a = make_problem(quad, "trot", N=12, dt=0.02, t0=0.02)
    b = make_problem(quad, "trot", N=12, dt=0.02, t0=0.033)
    assert b.k0 == a.k0 == 1
    assert b.nodes[0].time == 0.033
    assert b.nodes[0].dt == pytest.approx(0.007, abs=1e-15)
    assert b.nodes[0].contacts.frames == a.nodes[0].contacts.frames
    for na, nb in zip(a.nodes[1:], b.nodes[1:]):
        assert (na.kind, na.time, na.dt) == (nb.kind, nb.time, nb.dt)


# ---------------------------------------------- node derivatives against FD

def node_fd(prob, node, x, u, eps=1e-6):
    ndx, nu = prob.ndx, node.nu
    fx = np.empty((ndx, ndx))
    lx = np.empty(ndx)
    for i in range(ndx):
        d = np.zeros(ndx)
        d[i] = eps
        xp, cp = node.calc(prob.integrate(x, d), u)
        xm, cm = node.calc(prob.integrate(x, -d), u)
        fx[:, i] = prob.diff(xp, xm) / (2 * eps)
        lx[i] = (cp - cm) / (2 * eps)
    fu = np.empty((ndx, nu))
    lu = np.empty(nu)
    for i in range(nu):
        d = np.zeros(nu)
        d[i] = eps
        xp, cp = node.calc(x, u + d)
        xm, cm = node.calc(x, u - d)
        fu[:, i] = prob.diff(xp, xm) / (2 * eps)
        lu[i] = (cp - cm) / (2 * eps)
    return fx, fu, lx, lu


def check_node(prob, node, x, u, tol=2e-4):
    der = problem.differentiate_nodes([node], [x], [u])[0]
    fx, fu, lx, lu = node_fd(prob, node, x, u)
    for got, ref, name in ((der.fx, fx, "fx"), (der.fu, fu, "fu"),
                           (der.lx, lx, "lx"), (der.lu, lu, "lu")):
        scale = max(1.0, np.abs(ref).max())
        err = np.abs(got - ref).max() / scale
        assert err < tol, f"{name} FD mismatch: {err:.2e}"


def test_running_node_derivatives_stance(quad):
    prob = make_problem(quad, "stand", N=4)
    rng = np.random.default_rng(9)
    x = random_state(quad, rng, spread=0.1)
    u = rng.normal(size=quad.nu) * 5
    check_node(prob, prob.nodes[0], x, u)


def test_running_node_derivatives_swing_and_cone(quad):
    prob = make_problem(quad, "trot", N=20)
    swing_nodes = [n for n in prob.nodes
                   if n.kind == "running" and n.swing and n.contacts.nf]
    node = swing_nodes[len(swing_nodes) // 2]
    rng = np.random.default_rng(10)
    x = random_state(quad, rng, spread=0.1)
    u = rng.normal(size=quad.nu) * 8  # large torques push forces out of cone
    check_node(prob, node, x, u)


def test_running_node_derivatives_flight(quad):
    prob = make_problem(quad, "jump", N=30)
    node = next(n for n in prob.nodes if n.kind == "running" and not n.contacts.nf)
    rng = np.random.default_rng(11)
    x = random_state(quad, rng, spread=0.2)
    u = rng.normal(size=quad.nu)
    check_node(prob, node, x, u)


def test_impulse_node_derivatives(quad):
    prob = make_problem(quad, "jump", N=30)
    node = next(n for n in prob.nodes if n.kind == "impulse")
    rng = np.random.default_rng(12)
    x = random_state(quad, rng, spread=0.1)
    der = problem.differentiate_nodes([node], [x], [np.zeros(0)])[0]
    assert der.fu.shape == (prob.ndx, 0)
    eps = 1e-6
    fx = np.empty((prob.ndx, prob.ndx))
    lx = np.empty(prob.ndx)
    for i in range(prob.ndx):
        d = np.zeros(prob.ndx)
        d[i] = eps
        xp, cp = node.calc(prob.integrate(x, d))
        xm, cm = node.calc(prob.integrate(x, -d))
        fx[:, i] = prob.diff(xp, xm) / (2 * eps)
        lx[i] = (cp - cm) / (2 * eps)
    assert np.abs(der.fx - fx).max() / max(1, np.abs(fx).max()) < 2e-4
    assert np.abs(der.lx - lx).max() / max(1, np.abs(lx).max()) < 2e-4


def test_terminal_node_derivatives(quad):
    prob = make_problem(quad, "stand", N=4)
    rng = np.random.default_rng(13)
    x = random_state(quad, rng, spread=0.3)
    lx, lxx = prob.terminal.calc_diff(x)
    eps = 1e-6
    for i in range(prob.ndx):
        d = np.zeros(prob.ndx)
        d[i] = eps
        cp = prob.terminal.calc(prob.integrate(x, d))
        cm = prob.terminal.calc(prob.integrate(x, -d))
        fd = (cp - cm) / (2 * eps)
        assert abs(lx[i] - fd) < 2e-4 * max(1.0, abs(fd))
    assert np.allclose(lxx, lxx.T, atol=1e-12)


def test_stacked_terminal_costs_have_the_bits_of_lone_calls(quad):
    # the line search takes every row's terminal cost in one stacked calc
    prob = make_problem(quad, "stand", N=4)
    rng = np.random.default_rng(21)
    x = np.array([random_state(quad, rng, spread=0.3) for _ in range(6)])
    x[1, 3:quad.nq] += 2.0      # joints outside their box
    costs = prob.terminal.calc(x)
    assert costs.shape == (6,)
    for k in range(6):
        lone = prob.terminal.calc(x[k])
        assert type(lone) is float and np.float64(lone).tobytes() == costs[k].tobytes()


def test_node_at_reference_zero_cost(quad, monkeypatch):
    # posture at reference, zero velocity/control/forces-in-cone => only
    # force-regularization remains; with its weights zeroed the running cost
    # vanishes
    placements = foot_placements(quad)
    sched = schedule.stand(range(4), placements)
    q0 = presets.nominal_configuration(quad)
    w = co.default_weights(quad, q0)
    monkeypatch.setattr(problem, "FORCE_WEIGHTS", np.zeros(2))
    b = co.default_bounds(quad, q0)
    prob = problem.build_problem(quad, sched, w, b, presets.nominal_state(quad),
                                 N=2, dt=0.02)
    x = presets.nominal_state(quad)
    _, cost = prob.nodes[0].calc(x, np.zeros(quad.nu))
    assert cost == pytest.approx(0.0, abs=1e-20)
    der = problem.differentiate_nodes(prob.nodes[:1], [x], [np.zeros(quad.nu)])[0]
    assert np.abs(der.lx).max() < 1e-12



# ------------------------------------------------- selection terms, on the diagonal

def _expansion_bits(acc):
    return [np.asarray(getattr(acc, f)).tobytes() for f in ("value", "lx", "lu", "lxx",
                                                             "lxu", "luu")]


def _seeded_expansion(rng, lead, ndx=22, nu=8):
    """An accumulator that already holds a dense term in x and u."""
    acc = problem._Expansion(rng.uniform(0.5, 2.0, size=lead), ndx, nu)
    acc.add(rng.normal(size=lead + (5,)), rng.uniform(0.1, 3.0, 5),
            Jx=rng.normal(size=lead + (5, ndx)), Ju=rng.normal(size=lead + (5, nu)))
    return acc


def test_a_lone_cost_value_has_the_bits_of_its_row_of_a_stack():
    # one state's value adds the 1-D dot r @ wr, a stack the (1 x n) @ (n x 1)
    # product per row: the same bits, on residuals of every size a node adds
    rng = np.random.default_rng(17)
    for n in (2, 4, 8, 11, 16, 22):
        scale = rng.uniform(0.5, 2.0, size=50)
        r = rng.normal(size=(50, n)) * 10.0 ** rng.uniform(-3, 3, size=(50, 1))
        w = 10.0 ** rng.uniform(-4, 6, size=n)
        stacked = problem._Expansion(scale)
        stacked.add(r, w)
        for b in range(50):
            lone = problem._Expansion(scale[b])
            lone.add(r[b], w)
            assert np.float64(lone.value).tobytes() == stacked.value[b].tobytes()


@pytest.mark.parametrize("lead", [(), (4,)], ids=["lone", "stacked"])
@pytest.mark.parametrize("active", ["all", "some", "none", "unmasked"])
@pytest.mark.parametrize("block", ["x", "u"])
def test_selection_terms_have_the_bits_of_the_dense_expansion(lead, active, block):
    # a term whose Jacobian selects coordinates adds 2 w r and 2 w on the
    # diagonal; the dense route multiplies by the selection matrix (1.0 and
    # 0.0 only).  Both give the same bits, for one-sided (masked) box rows too
    rng = np.random.default_rng(len(lead) * 8 + len(active) + len(block))
    n, at = (11, 11) if block == "x" else (8, 0)
    ndx, nu = 22, 8
    r = rng.normal(size=lead + (n,))
    if active != "unmasked":
        off = {"all": np.zeros(n, bool), "none": np.ones(n, bool),
               "some": rng.random(n) < 0.5}[active]
        r[..., off] = 0.0
    if active == "some":
        r[..., 0] = -0.0        # inside the box too: no slope, no curvature
    w = rng.uniform(0.1, 3.0, n)
    got, want = (_seeded_expansion(np.random.default_rng(9), lead, ndx, nu)
                 for _ in range(2))
    one_sided = active != "unmasked"
    got.add_selection(r, w, **{f"{block}_at": at}, one_sided=one_sided)
    J = _kernels.eye(n, ndx if block == "x" else nu, at)
    if one_sided:
        J = J * (r != 0.0)[..., None]
    want.add(r, w, **{f"J{block}": J})
    assert _expansion_bits(got) == _expansion_bits(want)
    # a cost pass sums the value alone, as in ``add``
    scale = np.random.default_rng(9).uniform(0.5, 2.0, size=lead)
    got, want = problem._Expansion(scale), problem._Expansion(scale)
    got.add_selection(r, w, **{f"{block}_at": at}, one_sided=one_sided)
    want.add(r, w)
    assert got.value.tobytes() == want.value.tobytes()
