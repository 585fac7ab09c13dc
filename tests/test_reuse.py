"""Each node is evaluated once per iterate.

Running and impulse nodes keep their last evaluation; an evaluation at
equal inputs returns it and the derivatives are taken at its solution.  Reuse
must change no result, and after an accepted step the solver's derivative
pass and the MPC message must solve no dynamics at all.
"""

import sys

import numpy as np

from leggedmpc import contact as ct
from leggedmpc import costs as co
from leggedmpc import kinematics, presets, problem, schedule
from leggedmpc import model as mod
from leggedmpc import mpc as rh
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


def forget_before_every_call(monkeypatch):
    """Drop the kept evaluations before every evaluation of nodes.

    Node calls, the problem's stacked ``calc`` and its ``calc_diff`` all go
    through ``evaluate_nodes``.
    """
    original = problem.evaluate_nodes

    def forgetful(nodes, xs, us):
        for node in nodes:
            node._kept = None
        return original(nodes, xs, us)
    monkeypatch.setattr(problem, "evaluate_nodes", forgetful)


def count_dynamics(monkeypatch):
    calls = {"contact": 0, "impulse": 0}
    for key, name in (("contact", "contact_forward_dynamics"),
                      ("impulse", "impulse_dynamics")):
        def counted(*args, _original=getattr(ct, name), _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(ct, name, counted)
    return calls


def three_jump_iterations():
    solver = jump_solver()
    for _ in range(3):
        assert not solver.solve_one_iteration()
    return solver


def test_reuse_changes_no_iterate(monkeypatch):
    kept = three_jump_iterations()
    with monkeypatch.context() as m:
        forget_before_every_call(m)
        fresh = three_jump_iterations()
    assert kept.iteration_log_csv() == fresh.iteration_log_csv()
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
    # step lengths below 1; the nodes keep their rows of that rollout
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
    solver.problem.calc(solver.xs, solver.us)
    assert calls == {"contact": 0, "impulse": 0} and fk == []
    solver.compute_derivatives()
    assert calls == {"contact": 0, "impulse": 0}


def test_configure_drops_the_kept_evaluation():
    solver = jump_solver()
    node = next(n for n in solver.problem.nodes if n.kind == "running")
    x, u = solver.xs[0], solver.us[0]
    first = node.solution(x, u)
    assert node.solution(x, u) is first
    node.configure(node.time, ct.ContactSet(frames=()), {})
    assert node.solution(x, u) is not first
    assert node.solution(x, u).forces.size == 0


def test_message_forces_come_from_the_nodes(monkeypatch):
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    x0 = presets.nominal_state(quad)
    cfg = rh.MpcConfig(horizon=0.3, node_dt=0.02, update_rate=50.0,
                       control_horizon_nodes=4)
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
