"""The level-batched multibody pass against the per-body reference recursions.

``forward_kinematics``, ``rnea``, the multibody pass (``dynamics.multibody``:
twists, bias accelerations, M and h) and the frame gather
(``dynamics.frame_motion``: positions, Jacobian, velocities and bias of
contact frames) evaluate one tree depth at a time, and ``centroidal`` reads
the base rows of the pass's M and h; ``tests/helpers.py`` keeps the
body-by-body recursions (forward kinematics, RNEA, CRBA, centroidal sums)
as the oracle, and a finite difference of A_G v as the oracle of the
momentum drift.  Summation order differs, so results agree to rounding, not
bit for bit.  Within the package the pass is exact: its h has the bits of
``rnea(q, v, 0)``, and a state of a stack the bits of the state alone.
"""

from dataclasses import fields, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leggedmpc import contact as ct
from leggedmpc import dynamics, kinematics, presets, se2

from helpers import (base_pendulum, centroidal_at, fd_centroidal_bias, frame_motion_at,
                     random_state, ref_centroidal, ref_forward_kinematics,
                     ref_frame_motion, ref_mass_matrix, ref_rnea, rel_err, single_body)

TOL = 1e-12


MODELS = {
    "default_quadruped": presets.default_quadruped(),
    "base_pendulum": base_pendulum(),
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
def test_rnea_matches_reference(name, data):
    m = MODELS[name]
    q, v, a = (data.draw(vectors(m.nv)) for _ in range(3))
    frames = data.draw(frame_subsets(m))
    forces = {f: data.draw(vectors(2)) for f in frames}
    want = ref_rnea(m, q, v, a, forces)
    pair = (list(forces), np.reshape(list(forces.values()), (-1, 2)))
    assert rel_err(dynamics.rnea(m, q, v, a, pair), want) < TOL
    assert rel_err(dynamics.multibody(m, q, v).h,
                   ref_rnea(m, q, v, np.zeros(m.nv), {})) < TOL


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
    assert rel_err(cen.I_G, I_G) < TOL
    assert rel_err(cen.Adot_v, fd_centroidal_bias(m, q, v)) < 1e-6


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


def test_the_pass_has_the_bits_of_rnea_alone_and_stacked():
    m = MODELS["default_quadruped"]
    rng = np.random.default_rng(4)
    x = np.array([random_state(m, rng) for _ in range(3)])
    x[1, m.nq:] = 0.0          # at rest h is g(q), and zeros keep their signs
    q, v = x[:, :m.nq], x[:, m.nq:]
    stacked = dynamics.multibody(m, q, v)
    assert _bits(stacked.h) == _bits(dynamics.rnea(m, q, v, np.zeros_like(v)))
    for k in range(len(x)):
        alone = dynamics.multibody(m, q[k], v[k])
        assert _bits(alone.h) == _bits(dynamics.rnea(m, q[k], v[k], np.zeros(m.nv)))
        assert _bits(_row(stacked, k)) == _bits(alone)
    assert _bits(dynamics.multibody(m, q[1], v[1]).h) == _bits(
        dynamics.gravity_torque(m, q[1]))


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
        assert sorted(seen) == list(range(m.nbodies))
    assert len(MODELS["default_quadruped"].levels) == 2
