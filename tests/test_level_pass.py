"""The level-batched multibody pass against the per-body reference recursions.

``forward_kinematics``, the multibody pass (``dynamics.multibody``:
twists, bias accelerations, M and h) and the frame gather
(``dynamics.frame_motion``: positions, Jacobian, velocities and bias of
contact frames) evaluate one tree depth at a time, and ``centroidal`` reads
the base rows of the pass's M and h; ``tests/helpers.py`` keeps the
body-by-body recursions (forward kinematics, RNEA, CRBA, centroidal sums)
as the oracle, and a finite difference of A_G v as the oracle of the
momentum drift, which also matches the drift with g(q) from its own
recursion.  Summation order differs, so results agree to rounding, not
bit for bit.  Within the package the pass is exact: its h has the bits of
the general Newton-Euler expression at a = 0 (``helpers.bias_force_bits``),
and a state of a stack the bits of the state alone.
"""

import itertools
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leggedmpc import contact as ct
from leggedmpc import dynamics, kinematics, presets, se2
from leggedmpc import model as mod
from leggedmpc.centroidal import centroidal

from helpers import (base_pendulum, bias_force_bits, branched_tree, centroidal_at,
                     drift_by_rnea, fd_centroidal_bias, frame_motion_at, random_state,
                     ref_centroidal, ref_forward_kinematics, ref_frame_motion,
                     ref_mass_matrix, ref_rnea, rel_err, single_body)

TOL = 1e-12


MODELS = {
    "default_quadruped": presets.default_quadruped(),
    "base_pendulum": base_pendulum(),
    "branched_tree": branched_tree(),
    "single_body": single_body(com=(0.05, -0.02),
                                       contact_offset=(0.1, -0.2)),
}

names = st.sampled_from(sorted(MODELS))
finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vectors(n):
    return st.lists(finite, min_size=n, max_size=n).map(np.array)


def frame_subsets(m):
    return st.lists(st.sampled_from(range(len(m.contact_frames))), unique=True,
                    max_size=len(m.contact_frames)).map(tuple)


def close(a, b):
    return a.shape == b.shape and (a.size == 0 or rel_err(a, b) < TOL)


def angle_err(a, b):
    return np.abs(np.remainder(a - b + np.pi, 2.0 * np.pi) - np.pi).max()


@settings(max_examples=60)
@given(name=names, data=st.data())
def test_forward_kinematics_matches_reference(name, data):
    m = MODELS[name]
    q = data.draw(vectors(m.nq))
    kin = kinematics.forward_kinematics(m, q)
    pose, X, B = ref_forward_kinematics(m, q)
    assert rel_err(kin.pose[:, :2], pose[:, :2]) < TOL
    assert angle_err(kin.pose[:, 2], pose[:, 2]) < TOL
    assert np.all(np.abs(kin.pose[:, 2]) <= np.pi)
    assert rel_err(kin.X, X) < TOL
    assert rel_err(kin.B, B) < TOL
    assert rel_err(kin.R, np.array([se2.rot(t) for t in pose[:, 2]])) < TOL


@settings(max_examples=60)
@given(name=names, data=st.data())
def test_inverse_dynamics_matches_reference(name, data):
    # tau = M a + h - J_C.T lambda, from the pass and its frame gather
    m = MODELS[name]
    q, v, a = (data.draw(vectors(m.nv)) for _ in range(3))
    frames = data.draw(frame_subsets(m))
    forces = {f: data.draw(vectors(2)) for f in frames}
    want = ref_rnea(m, q, v, a, forces)
    mb = dynamics.multibody(m, q, v)
    J = dynamics.frame_motion(m, mb, frames)[1]
    lam = np.reshape(list(forces.values()), (-1,))
    assert rel_err(mb.M @ a + mb.h - J.T @ lam, want) < TOL
    assert rel_err(mb.h, ref_rnea(m, q, v, np.zeros(m.nv), {})) < TOL


@settings(max_examples=60)
@given(name=names, data=st.data())
def test_mass_matrix_matches_reference(name, data):
    m = MODELS[name]
    q = data.draw(vectors(m.nq))
    M = dynamics.multibody(m, q, np.zeros(m.nv)).M
    assert rel_err(M, ref_mass_matrix(m, q)) < TOL
    assert rel_err(M, M.T) < TOL


@settings(max_examples=60)
@given(name=names, data=st.data())
def test_frame_motion_matches_reference(name, data):
    m = MODELS[name]
    q, v = data.draw(vectors(m.nq)), data.draw(vectors(m.nv))
    frames = data.draw(frame_subsets(m))
    pos, vel, bias, jac = ref_frame_motion(m, q, v, frames)
    kin = kinematics.forward_kinematics(m, q)
    got_pos, got_jac, got_vel, got_bias = frame_motion_at(m, q, v, frames)
    assert close(kinematics.frame_positions(m, kin, frames), pos)
    assert close(got_pos, pos)
    assert close(got_vel, vel)
    assert close(got_bias, bias)
    assert close(got_jac, jac)
    assert close(ct.contact_jacobian_stack(m, q, frames), jac)


@settings(max_examples=60)
@given(name=names, data=st.data())
def test_centroidal_matches_reference(name, data):
    m = MODELS[name]
    q, v = data.draw(vectors(m.nq)), data.draw(vectors(m.nv))
    cen = centroidal_at(m, q, v)
    p_G, A_G, I_G = ref_centroidal(m, q)
    assert rel_err(cen.p_G, p_G) < TOL
    assert rel_err(cen.A_G, A_G) < TOL
    assert rel_err(cen.A_G[2, 2], I_G) < TOL
    assert rel_err(cen.Adot_v, fd_centroidal_bias(m, q, v)) < 1e-6


@pytest.mark.parametrize("name", ["default_quadruped", "branched_tree"])
def test_gravity_and_drift_come_from_the_base_block(name):
    # gravity is the base accelerating upwards with the joints locked:
    # g(q) = M[:, :3] a_g with a_g = (-R_base.T g, 0)
    m = MODELS[name]
    rng = np.random.default_rng(17)
    for _ in range(100):
        q, v = np.split(random_state(m, rng), [m.nq])
        mb = dynamics.multibody(m, q, v)
        a_g = np.append(-mb.kin.R[0].T @ mod.GRAVITY, 0.0)
        assert rel_err(mb.M[:, :3] @ a_g, dynamics.gravity_torque(m, q)) < TOL
        assert rel_err(centroidal(m, mb, v).Adot_v, drift_by_rnea(m, q, v)) < TOL


def _bits(obj):
    """The bytes of every array of a (nested) dataclass, signs of zero included."""
    if is_dataclass(obj):
        return [b for f in fields(obj) for b in _bits(getattr(obj, f.name))]
    return [np.asarray(obj).tobytes()]


def _row(obj, k):
    """Row k of every array of a (nested) dataclass."""
    if is_dataclass(obj):
        return type(obj)(*(_row(getattr(obj, f.name), k) for f in fields(obj)))
    return obj[k]


def test_the_pass_has_the_bits_of_the_bias_oracle_alone_and_stacked():
    # the pass forms h without the zero product B @ a that the oracle keeps:
    # h keeps the oracle's bits, zeros keep their signs, and the body
    # accelerations the pass returns are those bias_accelerations gave it
    for m in MODELS.values():
        rng = np.random.default_rng(4)
        x = np.array([random_state(m, rng) for _ in range(4)])
        x[1, m.nq:] = 0.0          # at rest h is g(q)
        x[2, 2:m.nq] = 0.0         # every body at angle 0, some rates at 0:
        x[2, m.nq + 3::2] = 0.0    # bias entries of -0.0 meet a zero gravity term
        q, v = x[:, :m.nq], x[:, m.nq:]
        for k in (slice(None), *range(len(x))):
            mb = dynamics.multibody(m, q[k], v[k])
            bias, h = bias_force_bits(m, q[k], v[k])
            assert _bits(mb.bias) == _bits(bias)
            assert _bits(mb.h) == _bits(h)
            assert _bits(dynamics.gravity_torque(m, q[k])) == _bits(
                bias_force_bits(m, q[k], np.zeros_like(v[k]))[1])
        stacked = dynamics.multibody(m, q, v)
        for k in range(len(x)):
            assert _bits(_row(stacked, k)) == _bits(dynamics.multibody(m, q[k], v[k]))
        assert _bits(dynamics.gravity_torque(m, q[1])) == _bits(stacked.h[1])


def test_tree_levels_cover_every_body_once():
    for m in MODELS.values():
        seen = [0]
        for depth, lv in enumerate(m.levels, start=1):
            assert all(p in seen for p in lv.parents)
            assert np.array_equal(lv.parents,
                                  [m.joints[b].parent for b in lv.bodies])
            for k, b in enumerate(lv.bodies):
                assert np.flatnonzero(lv.axes[k]).tolist() == [2 * m.nv + 2 + b]
            seen += list(lv.bodies)
            # the passes' indices read the same rows (a shared parent broadcasts)
            rows = np.arange(m.nbodies)
            assert np.array_equal(rows[lv.at], lv.bodies)
            assert np.array_equal(np.broadcast_to(rows[lv.parents_at], lv.parents.shape),
                                  lv.parents)
        assert sorted(seen) == list(range(m.nbodies))
    assert len(MODELS["default_quadruped"].levels) == 2


@pytest.mark.parametrize("lead, frames", [
    pytest.param((), None, id="lead0"),
    pytest.param((5,), None, id="lead1"),
    pytest.param((2, 3), None, id="lead2"),
    # every state's frames on distinct bodies: one indexed subtraction
    pytest.param((4,), "distinct", id="lead1-distinct-bodies"),
    # one state's frame tuples read a frame plan: bodies 2, 6, 6, 4, 8, 2
    # as an index array, bodies 2, 4, 6, 8 as a basic slice
    pytest.param((), (0, 2, 2, 1, 3, 0), id="lone-tuple-shared-bodies"),
    pytest.param((), (0, 1, 2, 3), id="lone-tuple-even-bodies"),
])
def test_contact_wrenches_subtract_with_the_bits_of_ufunc_at(lead, frames):
    # frames that share a body subtract in frame order, as an unbuffered
    # np.subtract.at does: the reference below keeps that form, on
    # index-array gathers
    m = MODELS["default_quadruped"]
    rng = np.random.default_rng(12)
    q = presets.nominal_configuration(m) + 0.1 * rng.normal(size=lead + (m.nq,))
    kin = kinematics.forward_kinematics(m, q)
    if frames is None:
        frames = rng.integers(0, len(m.contact_frames), size=lead + (6,))
    elif frames == "distinct":
        frames = np.array([rng.permutation(len(m.contact_frames))[:3] for _ in range(4)])
    idx = np.asarray(frames)
    lam = rng.normal(size=idx.shape + (2,))
    dth = kin.B[..., 2, :]
    f = rng.normal(size=lead + (m.nbodies, 3))
    df = rng.normal(size=lead + (m.nbodies, 3, 2 * m.nv))
    got_f, got_df = f.copy(), df.copy()
    dynamics._subtract_contact_forces(m, kin, got_f, (frames, lam), dth, got_df)
    rows, r = kinematics._rows(m.contact_bodies[idx]), m.contact_offsets[idx]
    fl = (lam[..., None, :] @ kin.R[rows])[..., 0, :]
    np.subtract.at(f, rows, np.concatenate(
        [fl, r[..., :1] * fl[..., 1:] - r[..., 1:] * fl[..., :1]], -1))
    d = np.zeros(r.shape[:-1] + (3, 2 * m.nv))
    d[..., :2, :m.nv] = -kinematics._perp(fl)[..., None] * dth[rows][..., None, :]
    d[..., 2, :m.nv] = r[..., :1] * d[..., 1, :m.nv] - r[..., 1:] * d[..., 0, :m.nv]
    np.subtract.at(df, rows, d)
    assert _bits(got_f) == _bits(f)
    assert _bits(got_df) == _bits(df)


@pytest.mark.parametrize("name", ["default_quadruped", "branched_tree"])
def test_sweep_and_wrench_scatters_keep_each_rows_bits(name):
    # the sweep writes a level's per-body entries through basic slices where
    # its bodies run evenly (the quadruped), else index arrays (the branched
    # tree); a level whose parents are distinct adds its children in one
    # operation, and frames on distinct bodies subtract their wrenches in
    # one.  Each state of a stack keeps the bits of the state alone
    m = MODELS[name]
    rng = np.random.default_rng(29)
    x = np.array([random_state(m, rng) for _ in range(3)])
    q, v = x[:, :m.nq], x[:, m.nq:]
    n = len(m.contact_frames)
    frames = np.array([rng.permutation(n)[:3] for _ in range(3)])
    # the quadruped's knees have distinct parents; every level of the tree shares one
    assert [lv.siblings for lv in m.levels] == (
        [True, False] if name == "default_quadruped" else [True, True])
    stacked = _sweep(m, q, v, frames)
    for k in range(3):
        lone = _sweep(m, q[k], v[k], tuple(frames[k].tolist()))
        assert [a[k].tobytes() for a in stacked] == [a.tobytes() for a in lone]


def _frame_tuples(m):
    """Every ordered tuple of distinct contact frames, and two with repeats."""
    n = len(m.contact_frames)
    return [fs for k in range(n + 1) for fs in itertools.permutations(range(n), k)
            ] + [(0, 0), (1, 0, 1)]


def _lone_and_row(f, m, q, v, frames):
    """The bytes of ``f`` on one state, and on the same state as a stack of
    one (whose frames gather by index arrays), row 0."""
    lone = f(m, q, v, frames)
    stacked = f(m, q[None], v[None], np.array([frames], dtype=int).reshape(1, -1))
    return ([(a.shape, a.tobytes()) for a in lone],
            [(a[0].shape, a[0].tobytes()) for a in stacked])


def _motion(m, q, v, frames):
    return dynamics.frame_motion(m, dynamics.multibody(m, q, v), frames)


def _sweep(m, q, v, frames):
    # the sweep at (q, v) under an acceleration and forces at the frames
    a = np.broadcast_to(np.cos(np.arange(m.nv)), v.shape)
    k = np.shape(frames)[-1]
    lam = np.broadcast_to(np.sin(np.arange(2 * k)).reshape(k, 2), np.shape(frames) + (2,))
    tan = dynamics.tangent_sweep(m, kinematics.forward_kinematics(m, q), v, a,
                                 (frames, lam), frames)
    return tan.dtau, tan.dvel, tan.dacc


@pytest.mark.parametrize("name", ["default_quadruped", "branched_tree"])
def test_frame_plans_gather_the_bits_of_index_arrays(name):
    # one state gathers its frames' bodies by the model's frame plan (a
    # view where they run evenly), a stack by index arrays: every gather,
    # and the frame motion and sweep that read them, keep the bits
    m = MODELS[name]
    rng = np.random.default_rng(23)
    q, v = np.split(random_state(m, rng), [m.nq])
    mb = dynamics.multibody(m, q, v)
    kinds = set()
    for frames in _frame_tuples(m):
        plan = m.frame_plan(frames)
        assert m.frame_plan(np.array(frames, dtype=int)) is plan
        kinds.add(type(plan.at))
        idx = np.array(frames, dtype=int)
        rows = m.contact_bodies[idx]
        assert plan.bodies == tuple(rows.tolist())
        assert _bits(plan.offsets) == _bits(m.contact_offsets[idx])
        for a in (mb.kin.pose, mb.kin.R, mb.kin.B, mb.kin.X, mb.tw, mb.bias):
            assert _bits(a[plan.at]) == _bits(a[rows]), frames
        lone, row = _lone_and_row(
            lambda m, q, v, fr: dynamics.frame_jacobian(
                m, kinematics.forward_kinematics(m, q), fr), m, q, v, frames)
        assert lone == row, frames
        lone, row = _lone_and_row(_motion, m, q, v, frames)
        assert lone == row, frames
        lone, row = _lone_and_row(_sweep, m, q, v, frames)
        assert lone == row, frames
    # slices, and the index-array fallback of bodies that do not run evenly
    assert kinds == {slice, np.ndarray}


def _shaped(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _wrenches(m, q, v, frames):
    # body forces and their tangents less the wrenches of forces at the frames
    k = np.shape(frames)[-1]
    kin = kinematics.forward_kinematics(m, q)
    lam = np.sin(np.arange(2.0 * k)).reshape(k, 2)
    f = np.broadcast_to(np.cos(np.arange(3.0 * m.nbodies)).reshape(-1, 3),
                        q.shape[:-1] + (m.nbodies, 3)).copy()
    df = np.broadcast_to(np.sin(np.arange(6.0 * m.nbodies * m.nv)).reshape(-1, 3, 2 * m.nv),
                         q.shape[:-1] + (m.nbodies, 3, 2 * m.nv)).copy()
    dynamics._subtract_contact_forces(m, kin, f, (frames, lam), kin.B[..., 2, :], df)
    return f, df


@pytest.mark.parametrize("name", ["default_quadruped", "branched_tree"])
def test_a_frames_tuple_over_a_stack_reads_its_plan_with_the_same_bits(name):
    # stacked states that share a frames tuple index the bodies by the
    # tuple's plan after the leading axis (a basic slice, or the plan's index
    # array); the gathers, the frame motion, the contact wrenches (frames that
    # share a body included) and the sweep keep the bits of the per-state
    # frames array and of each state alone
    m = MODELS[name]
    rng = np.random.default_rng(31)
    x = np.array([random_state(m, rng) for _ in range(3)])
    q, v = x[:, :m.nq], x[:, m.nq:]
    mb = dynamics.multibody(m, q, v)
    kinds = set()
    for frames in _frame_tuples(m):
        kinds.add(type(m.frame_plan(frames).at))
        per_state = np.array([frames] * 3, dtype=int).reshape(3, -1)
        (rows, r, plan), (at, ra, none) = (kinematics._frames(m, mb.kin, f)
                                           for f in (frames, per_state))
        assert plan is m.frame_plan(frames) and none is None
        assert _bits(np.broadcast_to(r, ra.shape)) == _bits(ra)
        for a in (mb.kin.pose, mb.kin.R, mb.kin.B, mb.kin.X, mb.tw, mb.bias):
            assert _bits(a[rows]) == _bits(a[at]), frames
        for f in (_motion, _sweep, _wrenches):
            shared = f(m, q, v, frames)
            assert _shaped(shared) == _shaped(f(m, q, v, per_state)), frames
            for k in range(3):
                lone = f(m, q[k], v[k], frames)
                assert [a[k].tobytes() for a in shared] == [a.tobytes() for a in lone]
    assert kinds == {slice, np.ndarray}


@pytest.mark.parametrize("name", ["default_quadruped", "branched_tree"])
def test_value_only_frame_gathers_have_the_bits_of_the_jacobian_forms(name):
    # cost passes take positions, and positions with velocities, without the
    # Jacobian and the bias: the same bits as those of the full gathers
    m = MODELS[name]
    rng = np.random.default_rng(37)
    x = np.array([random_state(m, rng) for _ in range(2)])
    for q, v, frames in [(x[0, :m.nq], x[0, m.nq:], (0, 1)),
                         (x[:, :m.nq], x[:, m.nq:], (1, 0, 1)),
                         (x[:, :m.nq], x[:, m.nq:], np.array([[0, 1], [1, 1]]))]:
        mb = dynamics.multibody(m, q, v)
        pos, _, vel, _ = dynamics.frame_motion(m, mb, frames)
        assert _shaped(dynamics.frame_velocities(m, mb, frames)) == _shaped([pos, vel])
        assert _shaped([kinematics.frame_positions(m, mb.kin, frames)]) == \
            _shaped(dynamics.frame_jacobian(m, mb.kin, frames)[:1])


def test_frame_position_reads_each_state_of_a_stack():
    # one frame's position in each of two stacked states, with the bits of
    # each state alone
    m = MODELS["default_quadruped"]
    rng = np.random.default_rng(41)
    q = np.array([random_state(m, rng)[:m.nq] for _ in range(2)])
    kin = kinematics.forward_kinematics(m, q)
    for frame in range(len(m.contact_frames)):
        got = kinematics.frame_position(m, kin, frame)
        assert got.shape == (2, 2)
        for k in range(2):
            alone = kinematics.frame_position(m, kinematics.forward_kinematics(m, q[k]), frame)
            assert alone.shape == (2,) and got[k].tobytes() == alone.tobytes()
