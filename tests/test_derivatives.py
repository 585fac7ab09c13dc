"""Exact derivatives of the node dynamics against finite-difference oracles.

``dynamics.tangent_sweep`` feeds every derivative of the contact, impulse
and swing terms; here each consumer is checked against
central differences of the function it differentiates, and a call count
keeps finite differences from creeping back into the runtime paths
(``centroidal``'s momentum drift included).
"""

import itertools

import numpy as np
import pytest

from leggedmpc import contact as ct
from leggedmpc import controllers as trk
from leggedmpc import costs as co
from leggedmpc import dynamics, kinematics, presets, problem, schedule
from leggedmpc import model as mod

from helpers import (base_pendulum, branched_tree, centroidal_at, count_calls,
                     fd_config_jacobian, fd_state_jacobian, frame_motion_at, rel_err,
                     random_state, ref_rnea, single_body, solved_derivatives)

TOL = 1e-6

MODELS = {
    "default_quadruped": presets.default_quadruped,
    "base_pendulum": base_pendulum,
    "branched_tree": branched_tree,
    "single_body": lambda: single_body(contact_offset=(0.1, -0.2)),
}


@pytest.fixture(params=sorted(MODELS))
def robot(request):
    return MODELS[request.param]()


def contact_sets(m):
    """Every subset of the model's feet."""
    feet = range(len(m.contact_frames))
    for r in range(len(m.contact_frames) + 1):
        for frames in itertools.combinations(feet, r):
            yield ct.ContactSet(frames=frames)


def test_tangent_sweep_matches_fd(robot):
    rng = np.random.default_rng(0)
    x = random_state(robot, rng, spread=0.4)
    q, v = mod.split_state(robot, x)
    a = rng.normal(size=robot.nv)
    frames = tuple(range(len(robot.contact_frames)))
    lam = (frames, rng.normal(size=(len(frames), 2)))
    tan = dynamics.tangent_sweep(robot, kinematics.forward_kinematics(robot, q),
                                 v, a, lam, frames)

    def tau(xx):
        return ref_rnea(robot, *mod.split_state(robot, xx), a, dict(zip(*lam)))

    def vel(xx):
        return frame_motion_at(robot, *mod.split_state(robot, xx), frames)[2].ravel()

    def acc(xx):
        qq, vv = mod.split_state(robot, xx)
        return (ct.contact_jacobian_stack(robot, qq, frames) @ a
                + frame_motion_at(robot, qq, vv, frames)[3])

    assert rel_err(tan.dtau, fd_state_jacobian(robot, tau, x)) < TOL
    assert rel_err(tan.dvel, fd_state_jacobian(robot, vel, x)) < TOL
    assert rel_err(tan.dacc, fd_state_jacobian(robot, acc, x)) < TOL


def test_contact_derivatives_exact(robot):
    rng = np.random.default_rng(1)
    for contacts in contact_sets(robot):
        x = random_state(robot, rng, spread=0.2)
        q, v = mod.split_state(robot, x)
        u = rng.normal(size=robot.nu)
        der = solved_derivatives(robot, q, v, u, contacts)

        def solve(xx):
            sol = ct.contact_forward_dynamics(robot, *mod.split_state(robot, xx),
                                              u, contacts)
            return np.concatenate([sol.vdot, sol.forces])

        fd = fd_state_jacobian(robot, solve, x)
        got = np.vstack([der.dvdot_dx, der.dforces_dx])
        assert rel_err(got, fd) < TOL, contacts.frames


def test_impulse_derivatives_exact(robot):
    rng = np.random.default_rng(2)
    x = random_state(robot, rng, spread=0.2)
    contacts = ct.ContactSet(frames=tuple(range(min(2, len(robot.contact_frames)))))
    der = solved_derivatives(robot, *mod.split_state(robot, x), None, contacts)

    def solve(xx):
        sol = ct.impulse_dynamics(robot, *mod.split_state(robot, xx), contacts)
        return np.concatenate([sol.v_plus, sol.impulses])

    fd = fd_state_jacobian(robot, solve, x)
    assert rel_err(np.vstack([der.dvdot_dx, der.dforces_dx]), fd) < TOL


def test_swing_vel_dq_exact(robot):
    # a running node's sweep carries its contact frames and then its swing
    # frames; the swing rows of the velocity tangent are d(J v)/dq
    rng = np.random.default_rng(3)
    q, v = mod.split_state(robot, random_state(robot, rng, spread=0.4))
    frames = tuple(range(len(robot.contact_frames)))
    stance = frames[:1]
    lam = (stance, rng.normal(size=(len(stance), 2)))
    tan = dynamics.tangent_sweep(robot, kinematics.forward_kinematics(robot, q), v,
                                 rng.normal(size=robot.nv), lam, stance + frames)
    got = tan.dvel[2 * len(stance):, :robot.nv]
    fd = fd_config_jacobian(
        robot, lambda qq: frame_motion_at(robot, qq, v, frames)[2].ravel(), q)
    assert rel_err(got, fd) < TOL


# ------------------------------------------------- no runtime finite differences

def trot_stance_node(quad):
    q0 = presets.nominal_configuration(quad)
    kin = kinematics.forward_kinematics(quad, q0)
    placements = {f: kinematics.frame_position(quad, kin, f) for f in range(4)}
    sched = schedule.trot((0, 2), (1, 3), placements, lead_in=0.04, swing=0.2,
                          double_support=0.1, stride=0.1, cycles=1)
    prob = problem.build_problem(quad, sched, co.default_weights(quad, q0),
                                 co.default_bounds(quad, q0),
                                 presets.nominal_state(quad), N=10, dt=0.02)
    return next(n for n in prob.nodes if n.kind == "running"
                and len(n.swing) == 2 and len(n.contacts.frames) == 2)


def test_stance_calc_diff_runs_no_finite_differences(monkeypatch):
    # one kinematics pass evaluates the node; its derivatives and the swing
    # terms read that pass
    quad = presets.default_quadruped()
    node = trot_stance_node(quad)
    x = random_state(quad, np.random.default_rng(5), spread=0.1)
    u = np.zeros(quad.nu)
    calls = count_calls(monkeypatch, kinematics.forward_kinematics)
    node.calc(x, u)
    assert len(calls) == 1
    problem.differentiate_nodes([node], [x], [u])
    assert len(calls) == 1


def test_contact_forward_dynamics_runs_kinematics_once(monkeypatch):
    quad = presets.default_quadruped()
    q, v = mod.split_state(quad, presets.nominal_state(quad))
    calls = count_calls(monkeypatch, kinematics.forward_kinematics)
    ct.contact_forward_dynamics(quad, q, v, np.zeros(quad.nu),
                                ct.ContactSet(frames=(0, 1, 2, 3)))
    assert len(calls) == 1


def test_contact_forward_dynamics_runs_bias_accelerations_once(monkeypatch):
    quad = presets.default_quadruped()
    q, v = mod.split_state(quad, random_state(quad, np.random.default_rng(6)))
    calls = count_calls(monkeypatch, kinematics.bias_accelerations)
    ct.contact_forward_dynamics(quad, q, v, np.zeros(quad.nu),
                                ct.ContactSet(frames=(0, 2)))
    assert len(calls) == 1


def stance_tasks_solved(quad, x, x_ref, frames):
    """The reference dynamics at ``x_ref`` under zero torque, their reference
    terms, then the stance tasks on them: the work of a tick at a state
    nothing prepared."""
    ref = ct.contact_forward_dynamics(quad, *mod.split_state(quad, x_ref),
                                      np.zeros(quad.nu),
                                      ct.ContactSet(frames=frames))
    return trk.stance_tasks(quad, x,
                            trk.stance_reference(quad, x_ref, ref, frames),
                            frames, np.zeros(2 * len(frames)))


def test_stance_tasks_run_kinematics_once_per_state(monkeypatch):
    # one pass at the measured state and one at the reference state, on a
    # two-foot tick with two swing feet
    quad = presets.default_quadruped()
    rng = np.random.default_rng(7)
    x, x_ref = (random_state(quad, rng, spread=0.1) for _ in range(2))
    calls = count_calls(monkeypatch, kinematics.forward_kinematics)
    stance_tasks_solved(quad, x, x_ref, (0, 2))
    assert len(calls) == 2


def test_centroidal_runs_kinematics_once(monkeypatch):
    quad = presets.default_quadruped()
    q, v = mod.split_state(quad, random_state(quad, np.random.default_rng(3)))
    calls = count_calls(monkeypatch, kinematics.forward_kinematics)
    centroidal_at(quad, q, v)
    assert len(calls) == 1


def test_contact_forward_dynamics_gathers_its_frames_once(monkeypatch):
    # the Jacobian, the Baumgarte velocities and the frame bias come from
    # one frame gather
    quad = presets.default_quadruped()
    q, v = mod.split_state(quad, random_state(quad, np.random.default_rng(6)))
    gathers = count_calls(monkeypatch, kinematics._frames)
    ct.contact_forward_dynamics(quad, q, v, np.zeros(quad.nu),
                                ct.ContactSet(frames=(0, 2)))
    assert len(gathers) == 1


def test_stance_tasks_read_one_pass_per_state(monkeypatch):
    # a two-foot tick with two swing feet: one gather for the measured
    # state's feet, one inside the reference dynamics and one for the
    # reference's swing feet; the recursion runs for h at each state, and
    # the centroidal drift takes g from M's base block
    quad = presets.default_quadruped()
    rng = np.random.default_rng(7)
    x, x_ref = (random_state(quad, rng, spread=0.1) for _ in range(2))
    gathers = count_calls(monkeypatch, kinematics._frames)
    recursions = count_calls(monkeypatch, dynamics._rnea)
    stance_tasks_solved(quad, x, x_ref, (0, 2))
    assert len(gathers) == 3
    assert len(recursions) == 2
