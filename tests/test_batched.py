"""Stacked evaluation and differentiation of nodes against the per-node oracle.

``problem.evaluate_nodes`` and ``problem.differentiate_nodes`` run each
group of nodes (same kind and contact-set size) as one pass over stacked
arrays.  ``tests/helpers.py`` keeps the node dynamics, its derivatives and
its cost expansion written one node and one body at a time; every field of
the stacked results must match it, and a node evaluated alone must give the
same bits as its row of a stack.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leggedmpc import _kernels
from leggedmpc import contact as ct
from leggedmpc import costs as co
from leggedmpc import kinematics, presets, problem, schedule
from leggedmpc.boxfddp import BoxFddp
from leggedmpc.errors import RankDeficientContacts

from helpers import (base_pendulum, random_state, ref_impulse, ref_running, rel_err,
                     single_body, solved_derivatives)

TOL = 1e-12
FIELDS = ("fx", "fu", "lx", "lu", "lxx", "lxu", "luu")

MODELS = {
    "default_quadruped": presets.default_quadruped(),
    "base_pendulum": base_pendulum(),
    "single_body": single_body(com=(0.05, -0.02),
                                       contact_offset=(0.1, -0.2)),
}


def build_nodes(m, rng, kind, nc, n):
    """``n`` nodes of one kind with ``nc`` contacts each, drawn from ``rng``."""
    q_ref = (presets.nominal_configuration(m) if m.name == "planar_quadruped"
             else np.zeros(m.nq))
    weights = co.default_weights(m, q_ref)
    bounds = co.default_bounds(m, q_ref)
    # a narrow box (joints within 0.2 of q_ref, joint rates within 0.5), so
    # that the drawn states reach the bound penalties
    bounds.q_lb[3:], bounds.q_ub[3:] = q_ref[3:] - 0.2, q_ref[3:] + 0.2
    bounds.v_lb[3:], bounds.v_ub[3:] = -0.5, 0.5
    feet = np.arange(len(m.contact_frames))
    nodes = []
    for k in range(n):
        frames = tuple(sorted(rng.choice(feet, nc, replace=False)))
        contacts = ct.ContactSet(frames=frames)
        others = [f for f in feet if f not in frames]
        if kind == "running":
            swing = {f: problem.SwingTarget(rng.normal(size=2), rng.normal(size=2))
                     for f in others}
            # the first node of a window may be shorter than the grid period
            node = problem.RunningNode(m, weights, bounds, 0.0, contacts, swing,
                                       0.007 if k == 0 else 0.02)
        else:
            node = problem.ImpulseNode(m, weights, 0.0, contacts,
                                       {f: rng.normal(size=2) for f in frames})
        nodes.append(node)
    return nodes


def next_state_and_cost(datum):
    """(next state, cost) of a node's data ``(evaluation, row)``."""
    ev, j = datum
    return (ev.x_next, ev.cost) if j is None else (ev.x_next[j], ev.cost[j])


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a.size == 0 or rel_err(a, b) < TOL)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(MODELS)), kind=st.sampled_from(["running", "impulse"]),
       data=st.data())
def test_stacked_nodes_match_the_per_node_oracle(name, kind, data):
    m = MODELS[name]
    nframes = len(m.contact_frames)
    nc = data.draw(st.integers(0 if kind == "running" else 1, nframes), label="nc")
    n = data.draw(st.integers(1, 4), label="nodes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
    nodes = build_nodes(m, rng, kind, nc, n)
    xs = [random_state(m, rng, spread=0.2) for _ in nodes]
    us = [rng.normal(size=node.nu) for node in nodes]

    evs = [next_state_and_cost(d) for d in problem.evaluate_nodes(nodes, xs, us)]
    ders = problem.differentiate_nodes(nodes, xs, us)
    for node, x, u, ev, der in zip(nodes, xs, us, evs, ders):
        x_next, cost, want = (ref_running(node, x, u) if kind == "running"
                              else ref_impulse(node, x))
        assert close(ev[0], x_next)
        assert abs(ev[1] - cost) <= TOL * max(1.0, abs(cost))
        for field in FIELDS:
            assert close(getattr(der, field), getattr(want, field)), field
        # a node evaluated alone gives the bits of its row of the stack
        alone = next_state_and_cost(problem.evaluate_nodes([node], [x], [u])[0])
        assert np.array_equal(alone[0], ev[0]) and alone[1] == ev[1]
        der_alone = problem.differentiate_nodes([node], [x], [u])[0]
        for field in FIELDS:
            assert np.array_equal(getattr(der_alone, field), getattr(der, field)), field


# ------------------------------------------------------------ structure

def count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "leggedmpc" or name.startswith("leggedmpc."):
            for a, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, a, counted)
    monkeypatch.setattr(owner, attr, counted)
    return calls


def trot_solver(N):
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    kin = kinematics.forward_kinematics(quad, q0)
    placements = {f: kinematics.frame_position(quad, kin, f) for f in range(4)}
    sched = schedule.trot((0, 2), (1, 3), placements, lead_in=0.04, swing=0.2,
                          double_support=0.1, stride=0.1, cycles=3)
    prob = problem.build_problem(quad, sched, co.default_weights(quad, q0),
                                 co.default_bounds(quad, q0),
                                 presets.nominal_state(quad), N=N, dt=0.02, t0=0.1)
    solver = BoxFddp(prob)
    solver.set_candidate(xs=[presets.nominal_state(quad)] * (len(prob.nodes) + 1))
    return solver


def test_derivative_pass_does_not_grow_with_the_window(monkeypatch):
    counts = {}
    for N in (15, 30):
        solver = trot_solver(N)
        kinds = {problem._group_key(n) for n in solver.problem.nodes}
        with monkeypatch.context() as mp:
            fk = count_calls(mp, kinematics, "forward_kinematics")
            solves = count_calls(mp, np.linalg, "solve")
            # a fresh evaluation of the candidate, then its derivatives
            solver.set_candidate(solver.xs, solver.us)
            solver.compute_derivatives()
        counts[N] = (len(kinds), len(fk), len(solves))
    assert counts[15] == counts[30]
    assert counts[15][0] == 3


def test_shared_frames_broadcast_over_stacked_states():
    # one contact set for every state of a stack equals each state alone
    quad = MODELS["default_quadruped"]
    rng = np.random.default_rng(4)
    xs = np.array([random_state(quad, rng, spread=0.2) for _ in range(3)])
    us = rng.normal(size=(3, quad.nu))
    q, v = xs[:, :quad.nq], xs[:, quad.nq:]
    stacked = solved_derivatives(quad, q, v, us, ct.ContactSet(frames=(0, 3)))
    for k in range(3):
        alone = solved_derivatives(quad, q[k], v[k], us[k], ct.ContactSet(frames=(0, 3)))
        for field in ("dvdot_dx", "dvdot_du", "dforces_dx", "dforces_du"):
            assert np.array_equal(getattr(stacked, field)[k], getattr(alone, field))


def test_rows_of_one_node_match_the_node_alone(monkeypatch):
    # step_rows solves a node's dynamics at stacked rows as one group: each
    # row gives the bits of the node alone, and a row whose contact set is
    # singular (here: not finite) gives nan, no row of the evaluation, and
    # leaves the others as they are.  trial_costs costs the kept rows of
    # every node, solving no dynamics; each row's data hold its next state
    # and cost
    solver = trot_solver(15)
    prob = solver.problem
    quad = prob.model
    nodes = prob.nodes
    rng = np.random.default_rng(6)
    stance = next(k for k, n in enumerate(nodes) if n.nu and n.contacts.frames)
    impulse = next(k for k, n in enumerate(nodes) if n.kind == "impulse")
    xs = [np.array([random_state(quad, rng, spread=0.05) for _ in range(4)])
          for _ in range(len(nodes) + 1)]
    us = [rng.normal(size=(4, node.nu)) for node in nodes]
    for k in (stance, impulse):
        xs[k][2, 3] = np.nan
    with np.errstate(invalid="ignore"):
        stepped = [prob.step_rows(k, xs[k], us[k]) for k in range(len(nodes))]
    x_next = [x for x, _ in stepped]
    for k in (stance, impulse):
        assert np.isnan(x_next[k][2]).all()
        assert stepped[k][1][1].tolist() == [0, 1, -1, 2]
    rows = [0, 1, 3]
    with monkeypatch.context() as m:
        solves = (count_calls(m, ct, "impulse_dynamics"),
                  count_calls(m, ct, "contact_forward_dynamics"))
        cost, data = prob.trial_costs([x[rows] for x in xs], [u[rows] for u in us],
                                      [(ev, index[rows]) for _, (ev, index) in stepped])
        assert solves == ([], [])
        for k in (stance, impulse):
            with pytest.raises(RankDeficientContacts), np.errstate(invalid="ignore"):
                nodes[k].calc(xs[k][2], us[k][2])
        assert sum(map(len, solves)) == 2
    for j, r in enumerate(rows):
        total = 0.0
        for k, node in enumerate(nodes):
            got = next_state_and_cost(data[j][k])
            assert np.array_equal(got[0], x_next[k][r])
            total = total + got[1]
            alone = node.calc(xs[k][r], us[k][r])
            assert np.array_equal(alone[0], x_next[k][r]) and alone[1] == got[1]
        assert total + prob.terminal.calc(xs[-1][r]) == cost[j]


def test_evenly_spaced_rows_gather_as_views():
    # a group's rows, or one node's trial rows, run evenly: they index a
    # basic slice, a view; any other run gathers a copy by an index array
    assert _kernels.basic_index([1, 3, 5]) == slice(1, 6, 2)
    assert _kernels.basic_index([4]) == slice(4, 5, 1)
    for rows in ([0, 2, 3], [3, 1], [2, 2]):
        assert isinstance(_kernels.basic_index(rows), np.ndarray)
    x = np.arange(24.0).reshape(6, 4)
    ev = problem._Evaluation(sol=None, x_next=x, cost=x[:, 0])
    other = problem._Evaluation(sol=None, x_next=-x, cost=-x[:, 0])
    x_next, cost = problem._group_rows([(ev, 1), (ev, 3), (ev, 5)], "x_next", "cost")
    assert np.shares_memory(x_next, x) and np.array_equal(x_next, x[[1, 3, 5]])
    assert np.array_equal(cost, x[[1, 3, 5], 0])
    x_next, = problem._group_rows([(ev, 0), (ev, 2), (ev, 3), (other, 4)], "x_next")
    assert not np.shares_memory(x_next, x)
    assert np.array_equal(x_next, np.concatenate([x[[0, 2, 3]], -x[[4]]]))
