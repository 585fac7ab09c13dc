"""Each node is evaluated once per iterate.

The solver keeps each node's data, its ``(evaluation, row)``, beside its
states and controls: a fresh evaluation, or the accepted trial's rows of
the line search's ``step_rows`` batch, costed by ``trial_costs``.  The
cost, the gaps and the derivatives are read from those data.  Reading them
must change no result against evaluating afresh, and after an accepted
step the solver's derivative pass and the MPC message must solve no
dynamics at all.  Across an MPC shift the nodes of the slots both windows
share stay as they are and carry their data, so the shifted candidate
solves dynamics only for the nodes of new slots.
"""

import sys

import numpy as np
import pytest

from leggedmpc import contact as ct
from leggedmpc import costs as co
from leggedmpc import kinematics, presets, problem, schedule
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc import boxfddp
from leggedmpc.boxfddp import BoxFddp


def placements(quad):
    kin = kinematics.forward_kinematics(quad, presets.nominal_configuration(quad))
    return {f: kinematics.frame_position(quad, kin, f) for f in range(4)}


def jump_solver(candidate=True):
    """The tier-1 jump problem, from its zero-torque rollout by default."""
    quad = presets.default_quadruped()
    sched = schedule.jump(range(4), placements(quad), stance=0.2, flight=0.2)
    q0 = presets.nominal_configuration(quad)
    prob = problem.build_problem(quad, sched, co.default_weights(quad, q0),
                                 co.default_bounds(quad, q0),
                                 presets.nominal_state(quad), N=30, dt=0.02)
    assert any(n.kind == "impulse" for n in prob.nodes)
    solver = BoxFddp(prob, tol=1e-4)
    if candidate:
        solver.set_candidate()
    return solver


def evaluate_afresh(monkeypatch):
    """Drop the data every evaluation of nodes is given: each node is
    evaluated again, into the given list.

    Node calls, the problem's ``calc``, ``calc_diff`` and ``rollout`` and
    the MPC shift's new slots all go through ``evaluate_nodes``.
    """
    original = problem.evaluate_nodes

    def fresh(nodes, xs, us, data=None):
        out = original(nodes, xs, us)
        if data is not None:
            data[:] = out
        return out
    monkeypatch.setattr(problem, "evaluate_nodes", fresh)


def count_dynamics(monkeypatch):
    """States solved by the contact and impulse dynamics; a stack of B
    states counts B."""
    rows = {"contact": 0, "impulse": 0}
    for key, name in (("contact", "contact_forward_dynamics"),
                      ("impulse", "impulse_dynamics")):
        def counted(model, q, *args, _original=getattr(ct, name), _key=key, **kwargs):
            rows[_key] += len(q) if np.ndim(q) == 2 else 1
            return _original(model, q, *args, **kwargs)
        monkeypatch.setattr(ct, name, counted)
    return rows


def three_jump_iterations():
    solver = jump_solver()
    for _ in range(3):
        assert not solver.solve_one_iteration()
    return solver


def test_reuse_changes_no_iterate(monkeypatch):
    kept = three_jump_iterations()
    with monkeypatch.context() as m:
        evaluate_afresh(m)
        fresh = three_jump_iterations()
    assert [repr(r) for r in kept.log] == [repr(r) for r in fresh.log]
    for a, b in zip(kept.xs + kept.us, fresh.xs + fresh.us):
        assert np.array_equal(a, b)


def test_candidate_rollout_evaluates_each_node_once(monkeypatch):
    solver = jump_solver(candidate=False)
    nodes = solver.problem.nodes
    calls = count_dynamics(monkeypatch)
    solver.set_candidate()
    assert calls == {"contact": sum(n.kind == "running" for n in nodes),
                     "impulse": sum(n.kind == "impulse" for n in nodes)}


def test_derivatives_after_accepted_step_solve_no_dynamics(monkeypatch):
    # the jump accepts a short step, found by the stacked rollout of the
    # step lengths below 1; the solver keeps its rows of that rollout
    solver = jump_solver()
    assert not solver.solve_one_iteration()
    assert solver.last_alpha < 1.0 and solver.last_trials > 1
    calls = count_dynamics(monkeypatch)
    fk = []
    original = kinematics.forward_kinematics

    def counted_fk(*args, **kwargs):
        fk.append(1)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("leggedmpc") and \
                getattr(module, "forward_kinematics", None) is original:
            monkeypatch.setattr(module, "forward_kinematics", counted_fk)
    solver.problem.calc(solver.xs, solver.us, solver.data)
    assert calls == {"contact": 0, "impulse": 0} and fk == []
    solver.compute_derivatives()
    assert calls == {"contact": 0, "impulse": 0}


def test_a_trial_rows_data_are_a_fresh_evaluation():
    # every step length of the cold jump rolled out as one stacked batch: the
    # long steps diverge and drop their rows part way, and each row that
    # reaches the end carries, for every node, the next state, cost and
    # derivatives of that node evaluated afresh at the row, bit for bit.  A
    # row whose contact set is singular (here: not finite) gets no row of
    # its node's evaluation
    solver = jump_solver()
    solver.compute_derivatives()
    solver.backward_pass()
    prob = solver.problem
    trials = solver.forward_pass(boxfddp.ALPHAS)
    assert None in trials and sum(t is not None for t in trials) > 1
    for trial in filter(None, trials):
        xs, us, cost, data = trial
        fresh = problem.evaluate_nodes(prob.nodes, xs, us)
        for got, want in zip(data, fresh, strict=True):
            for name in ("x_next", "cost"):
                assert np.array_equal(problem._row(got, name), problem._row(want, name))
        got_cost, got_gaps = prob.calc(xs, us, data)
        want_cost, want_gaps = prob.calc(xs, us)
        assert got_cost == want_cost == cost
        assert np.array_equal(got_gaps, want_gaps)
        for a, b in zip(prob.calc_diff(xs, us, data), prob.calc_diff(xs, us), strict=True):
            for name in ("fx", "fu", "lx", "lu", "lxx", "lxu", "luu"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
    rng = np.random.default_rng(3)
    for kind in ("running", "impulse"):
        k = next(k for k, n in enumerate(prob.nodes) if n.kind == kind and n.contacts.frames)
        x = solver.xs[k] + 1e-3 * rng.standard_normal((3, len(solver.xs[k])))
        u = solver.us[k] + 1e-3 * rng.standard_normal((3, prob.nodes[k].nu))
        x[1, 3] = np.nan
        with np.errstate(invalid="ignore"):
            x_next, (ev, rows) = prob.step_rows(k, x, u)
        assert np.isnan(x_next[1]).all() and rows.tolist() == [0, -1, 1]
        assert len(ev.x_next) == 2


def test_message_forces_come_from_the_nodes(monkeypatch):
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    x0 = presets.nominal_state(quad)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.02, update_rate=50.0)
    ctrl = rh.Mpc(quad, schedule.stand(range(4), placements(quad)),
                  co.default_weights(quad, q0), co.default_bounds(quad, q0), cfg, x0)
    msg = ctrl.step(x0, 0.0)
    calls = count_dynamics(monkeypatch)
    again = ctrl._emit(0.0, msg.diagnostics["status"])
    assert calls == {"contact": 0, "impulse": 0}
    monkeypatch.undo()
    for i, forces in enumerate(again.forces_ref):
        q, v = mod.split_state(quad, ctrl.solver.xs[i])
        sol = ct.contact_forward_dynamics(quad, q, v, ctrl.solver.us[i],
                                          ctrl.problem.nodes[i].contacts)
        assert np.array_equal(forces, sol.forces)
        assert np.array_equal(forces, msg.forces_ref[i])


# ------------------------------------------------------- across the MPC shift

TROT_GAIT = dict(lead_in=0.04, swing=0.08, double_support=0.04, stride=0.05,
                 cycles=8)


def trot_schedule(quad):
    return schedule.trot((0, 2), (1, 3), placements(quad), **TROT_GAIT)


def trot_problem(quad, t0, x0=None):
    q0 = presets.nominal_configuration(quad)
    return problem.build_problem(
        quad, trot_schedule(quad), co.default_weights(quad, q0),
        co.default_bounds(quad, q0),
        presets.nominal_state(quad) if x0 is None else x0, N=15, dt=0.02, t0=t0)


@pytest.fixture(scope="module")
def shifted_trot():
    """14 steps of the N = 15 trot (10 ms delay, exact measurements), each
    seen when its shifted candidate is set: the nodes before and after the
    shift, the dynamics rows solved since ``update_problem``, and the
    candidate with its cost, gaps and derivatives, read from its data."""
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.02, update_rate=50.0,
                       expected_delay=0.01)
    ctrl = rh.Mpc(quad, trot_schedule(quad),
                  co.default_weights(quad, q0), co.default_bounds(quad, q0), cfg,
                  presets.nominal_state(quad))
    steps = []
    with pytest.MonkeyPatch.context() as m:
        rows = count_dynamics(m)

        def update(prob, x0, t0, _original=problem.update_problem):
            rows.update(contact=0, impulse=0)
            return _original(prob, x0, t0)

        def derivatives(solver, _original=BoxFddp.compute_derivatives):
            prob = solver.problem
            steps[-1].update(
                rows=dict(rows), nodes=list(prob.nodes), t0=prob.nodes[0].time,
                x0=prob.x0, xs=list(solver.xs), us=list(solver.us),
                cost=solver.cost, gaps=list(solver.gaps),
                derivs=prob.calc_diff(solver.xs, solver.us, solver.data))
            return _original(solver)
        m.setattr(problem, "update_problem", update)
        m.setattr(BoxFddp, "compute_derivatives", derivatives)
        x = presets.nominal_state(quad)
        for k in range(14):
            steps.append({"old": list(ctrl.problem.nodes)})
            msg = ctrl.step(x, k * 0.02)
            assert not msg.diagnostics["degraded"]
            x = np.array(msg.xs_ref[1])
    return quad, steps[1:]


def new_slots(step):
    """The nodes of slots that the window before the shift did not hold."""
    old = {n.slot for n in step["old"]}
    return [n for n in step["nodes"] if n.slot not in old]


def test_shift_solves_dynamics_only_for_new_slots(shifted_trot):
    _, steps = shifted_trot
    for step in steps:
        new = new_slots(step)
        assert 1 <= len(new) <= 3
        assert step["rows"] == {"contact": sum(n.kind == "running" for n in new),
                                "impulse": sum(n.kind == "impulse" for n in new)}
    # impulse nodes enter the window's tail as the gait goes on
    assert any(n.kind == "impulse" for step in steps for n in new_slots(step))


def test_shared_slots_keep_their_nodes_unconfigured(shifted_trot):
    _, steps = shifted_trot
    for step in steps:
        old = {n.slot: n for n in step["old"]}
        kept = [n for n in step["nodes"] if n.slot in old]
        assert len(kept) >= len(step["nodes"]) - 3
        assert all(old[n.slot] is n for n in kept)


def test_shift_reads_the_schedule_only_for_new_slots(monkeypatch):
    # a window that moves by s grid slots reads s + 1 of them: the new ones
    # and the old closing slot, now an inner one (a closing slot samples its
    # contact set clamped to the schedule's end); a window that stays in its
    # slot reads none
    prob = trot_problem(presets.default_quadruped(), 0.0)
    reads = []
    touchdowns_in = prob.schedule.touchdowns_in
    monkeypatch.setattr(prob.schedule, "touchdowns_in",
                        lambda *t: reads.append(t) or touchdowns_in(*t))
    for t0, n in ((0.01, 0), (0.02, 2), (0.035, 0), (0.04, 2), (0.1, 4)):
        del reads[:]
        problem.update_problem(prob, prob.x0, t0)
        assert len(reads) == n
        fresh = problem._node_schedule(prob.schedule, prob.k0, prob.N, prob.dt, {})[0]
        assert [node.slot[0] for node in prob.nodes] == fresh


def node_record(node):
    """What configures a running or impulse node, as comparable values."""
    if node.kind == "running":
        targets = {f: (t.pos.tobytes(), t.vel.tobytes())
                   for f, t in node.swing.items()}
    else:
        targets = {f: np.asarray(p).tobytes() for f, p in node.gained.items()}
    return (node.kind, node.time, node.contacts.frames, node.dt, targets,
            node.slot)


def test_shift_changes_no_node_of_the_previous_window():
    # over a trot (window starts inside a slot) and a jump (flight and
    # touchdown impulses), a shift builds nodes for the new slots only and
    # leaves every node of the previous window as it was
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    jump = schedule.jump(range(4), placements(quad), stance=0.30, flight=0.24)
    sweeps = ((trot_schedule(quad), 0.02, 0.01, 14), (jump, 0.03, 0.0, 24))
    for sched, dt, delay, n_steps in sweeps:
        cfg = rh.MpcConfig(horizon=0.3, node_dt=dt, update_rate=1.0 / dt,
                           expected_delay=delay)
        ctrl = rh.Mpc(quad, sched, co.default_weights(quad, q0),
                      co.default_bounds(quad, q0), cfg, presets.nominal_state(quad))
        x = presets.nominal_state(quad)
        kinds = set()
        for k in range(n_steps):
            old = list(ctrl.problem.nodes)
            before = [node_record(n) for n in old]
            msg = ctrl.step(x, k * dt)
            assert [node_record(n) for n in old] == before
            old_ids, old_slots = {id(n) for n in old}, {n.slot for n in old}
            new = [n for n in ctrl.problem.nodes if id(n) not in old_ids]
            assert [n.slot for n in new] == [n.slot for n in ctrl.problem.nodes
                                             if n.slot not in old_slots]
            kinds.update(n.kind for n in new)
            x = np.array(msg.xs_ref[1])
        assert kinds == {"running", "impulse"}


def assert_same_evaluation(prob, xs, us, calc, derivs):
    """``prob`` gives the cost, gaps and derivatives ``calc`` and ``derivs``
    at (xs, us), bit for bit."""
    cost, gaps = prob.calc(xs, us)
    assert cost == calc[0]
    assert all(np.array_equal(a, b) for a, b in zip(gaps, calc[1], strict=True))
    for a, b in zip(prob.calc_diff(xs, us), derivs, strict=True):
        for name in ("fx", "fu", "lx", "lu", "lxx", "lxu", "luu"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_shifted_candidate_matches_a_fresh_problem(shifted_trot):
    quad, steps = shifted_trot
    for step in steps:
        fresh = trot_problem(quad, step["t0"], step["x0"])
        assert [n.slot for n in fresh.nodes] == [n.slot for n in step["nodes"]]
        assert_same_evaluation(fresh, step["xs"], step["us"],
                               (step["cost"], step["gaps"]), step["derivs"])


# ------------------------------------------------- messages, carried or afresh

def noisy_trot_messages(quad):
    """26 steps of the N = 15 trot (10 ms delay) on noisy measurements,
    five of them failing."""
    q0 = presets.nominal_configuration(quad)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.02, update_rate=50.0,
                       expected_delay=0.01)
    ctrl = rh.Mpc(quad, trot_schedule(quad), co.default_weights(quad, q0),
                  co.default_bounds(quad, q0), cfg, presets.nominal_state(quad))
    failing = {6: "singular", 8: "no_step", 9: "no_step", 12: "nan", 16: "no_step"}
    rng = np.random.default_rng(4)
    x = presets.nominal_state(quad)
    for k in range(26):
        x[quad.nq:] += 0.05 * rng.standard_normal(quad.nv)
        yield one_step(ctrl, x, k * 0.02, failing.get(k))
        x = np.array(ctrl.last_message.xs_ref[1])


def jump_messages(quad):
    """24 steps of the jump (30 ms nodes, no delay) through its flight and
    touchdown, four of them failing."""
    q0 = presets.nominal_configuration(quad)
    sched = schedule.jump(range(4), placements(quad), stance=0.30, flight=0.24)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.03, update_rate=1.0 / 0.03)
    ctrl = rh.Mpc(quad, sched, co.default_weights(quad, q0),
                  co.default_bounds(quad, q0), cfg, presets.nominal_state(quad))
    failing = {5: "no_step", 10: "no_step", 11: "nan", 16: "no_step"}
    x = presets.nominal_state(quad)
    for k in range(24):
        yield one_step(ctrl, x, k * 0.03, failing.get(k))
        x = np.array(ctrl.last_message.xs_ref[1])


def one_step(ctrl, x, t, failure):
    """The JSON of the message ``ctrl.step`` emits at (x, t).  ``failure``
    "singular" measures every leg straight (the delay prediction meets a
    singular contact set), "nan" measures a nan, and "no_step" has the
    iteration run its line searches and accept none (``NoStepAccepted`` at
    the largest mu, after the shift)."""
    if failure == "no_step":
        line_search = ctrl.solver._line_search
        ctrl.solver._line_search = lambda: line_search() and None
    elif failure == "singular":
        x = presets.nominal_configuration(ctrl.model)
        x[3:] = 0.0
        x = mod.state(ctrl.model, x, np.zeros(ctrl.model.nv))
    elif failure == "nan":
        x = np.full_like(x, np.nan)
    msg = ctrl.step(x, t)
    ctrl.solver.__dict__.pop("_line_search", None)
    assert msg.diagnostics["degraded"] or failure is None
    return msg.to_json()


@pytest.mark.parametrize("messages", [noisy_trot_messages, jump_messages])
def test_messages_from_carried_data_equal_those_evaluated_afresh(messages, monkeypatch):
    # once with the data the solver and the shift carry, once with every
    # datum dropped and the nodes evaluated again wherever data are read or
    # an iteration ends: every message, degraded ones and those after a
    # failed step included, has the same bytes
    quad = presets.default_quadruped()
    carried = list(messages(quad))
    with monkeypatch.context() as m:
        evaluate_afresh(m)
        iteration = BoxFddp.solve_one_iteration

        def then_afresh(solver):
            try:
                return iteration(solver)
            finally:
                solver.data = problem.evaluate_nodes(solver.problem.nodes, solver.xs,
                                                     solver.us)
        m.setattr(BoxFddp, "solve_one_iteration", then_afresh)
        fresh = list(messages(quad))
    assert len(carried) == len(fresh) > 20
    assert carried == fresh
