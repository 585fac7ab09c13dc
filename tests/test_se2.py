import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leggedmpc import model as mod
from leggedmpc import presets, se2

from helpers import fd_jacobian

QUAD = presets.default_quadruped()


def test_exp_log_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        xi = rng.normal(size=3) * rng.choice([1e-10, 1e-4, 1.0])
        xi[2] = np.clip(xi[2], -3.1, 3.1)  # log only covers |angle| < pi
        p = se2.exp(xi)
        back = se2.log(p)
        assert np.allclose(back[:2], xi[:2], atol=1e-9)
        assert np.isclose(back[2], se2.wrap_angle(xi[2]), atol=1e-12)


def test_wrap_range_and_seam():
    # oracle: recover the composed angle from rotation matrices via atan2
    rng = np.random.default_rng(3)
    for _ in range(500):
        a = rng.uniform(-20, 20)
        R = se2.rot(a)
        oracle = np.arctan2(R[1, 0], R[0, 0])
        w = se2.wrap_angle(a)
        assert -np.pi < w <= np.pi + 1e-15
        assert np.isclose(np.sin(w - oracle), 0.0, atol=1e-12)
    assert se2.wrap_angle(np.pi) == np.pi
    assert se2.wrap_angle(-np.pi) == np.pi
    assert se2.wrap_angle(3 * np.pi) == np.pi


def test_compose_inverse():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p1 = rng.normal(size=3)
        p2 = rng.normal(size=3)
        q = se2.compose(p1, p2)
        # matrix oracle
        T1 = np.eye(3)
        T1[:2, :2] = se2.rot(p1[2])
        T1[:2, 2] = p1[:2]
        T2 = np.eye(3)
        T2[:2, :2] = se2.rot(p2[2])
        T2[:2, 2] = p2[:2]
        T = T1 @ T2
        assert np.allclose(q[:2], T[:2, 2], atol=1e-12)
        assert np.allclose(se2.rot(q[2]), T[:2, :2], atol=1e-12)
        ident = se2.compose(se2.inverse(p1), p1)
        assert np.allclose(ident, np.zeros(3), atol=1e-12)


def test_adjoint_matches_conjugation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = rng.normal(size=3)
        xi = 1e-5 * rng.normal(size=3)
        lhs = se2.log(se2.compose(p, se2.compose(se2.exp(xi), se2.inverse(p))))
        assert np.allclose(lhs, se2.adjoint(p) @ xi, atol=1e-9)


def test_right_jacobian_matches_fd():
    rng = np.random.default_rng(17)
    for _ in range(50):
        xi = rng.normal(size=3) * rng.choice([1e-6, 0.3, 2.0])

        def f(d):
            return se2.log(se2.compose(se2.inverse(se2.exp(xi)), se2.exp(xi + d)))

        J = fd_jacobian(f, np.zeros(3))
        assert np.allclose(J, se2.right_jacobian(xi), atol=1e-6)
        assert np.allclose(
            se2.right_jacobian_inv(xi) @ se2.right_jacobian(xi), np.eye(3), atol=1e-9
        )


# ------------------------------------------------------- group properties

angles = st.floats(-3.1, 3.1, allow_nan=False)
coords = st.floats(-5.0, 5.0, allow_nan=False)
poses = st.tuples(coords, coords, st.floats(-20.0, 20.0, allow_nan=False)).map(np.array)
tangents = st.tuples(coords, coords, angles).map(np.array)
points = st.tuples(coords, coords).map(np.array)


def same_pose(a, b, tol=1e-9):
    return (np.allclose(a[:2], b[:2], atol=tol)
            and abs(se2.wrap_angle(a[2] - b[2])) < tol)


@given(poses, poses, poses)
def test_compose_is_associative(a, b, c):
    assert same_pose(se2.compose(se2.compose(a, b), c),
                     se2.compose(a, se2.compose(b, c)))


@given(poses, poses, points)
def test_act_is_a_group_action(a, b, r):
    assert np.allclose(se2.act(se2.compose(a, b), r), se2.act(a, se2.act(b, r)),
                       atol=1e-9)


@given(poses)
def test_inverse_is_two_sided(p):
    assert same_pose(se2.compose(p, se2.inverse(p)), np.zeros(3))
    assert same_pose(se2.compose(se2.inverse(p), p), np.zeros(3))


@given(tangents)
def test_log_inverts_exp(xi):
    assert np.allclose(se2.log(se2.exp(xi)), xi, atol=1e-9)


@given(poses, tangents)
def test_adjoint_conjugates_exp(p, xi):
    # exact for finite steps: p exp(xi) p^-1 = exp(Ad_p xi)
    lhs = se2.compose(p, se2.compose(se2.exp(xi), se2.inverse(p)))
    assert same_pose(lhs, se2.exp(se2.adjoint(p) @ xi))


@given(st.floats(-100.0, 100.0, allow_nan=False))
def test_wrap_angle_range_and_idempotence(a):
    w = se2.wrap_angle(a)
    assert -np.pi < w <= np.pi
    assert se2.wrap_angle(w) == w
    assert abs(np.sin(w) - np.sin(a)) < 1e-9 and abs(np.cos(w) - np.cos(a)) < 1e-9


@given(st.lists(coords, min_size=22, max_size=22).map(np.array),
       st.lists(coords, min_size=22, max_size=22).map(np.array))
def test_state_difference_inverts_integrate(x, dx):
    m = QUAD
    x = np.concatenate([mod.normalize_q(x[:m.nq]), x[m.nq:]])
    dx[2] = np.clip(dx[2], -3.1, 3.1)
    x1 = mod.integrate(m, x, dx)
    assert np.allclose(mod.difference(m, x1, x), dx, atol=1e-9)


def test_wrap_angle_moves_no_angle_it_produced():
    # wrap_angle moves some angles already in (-pi, pi] by an ulp, but none
    # that it returned: a reference state rebuilt by ``model.state`` splits
    # back into the (q, v) its contact dynamics were solved at
    rng = np.random.default_rng(11)
    for a in (np.linspace(-np.pi, np.pi, 2_000_002)[1:],
              rng.uniform(-50.0, 50.0, 2_000_000)):
        w = se2.wrap_angle(a)
        assert se2.wrap_angle(w).tobytes() == w.tobytes()


# ---------------------------------------------- one pose against its stack row

# small-angle series and exact forms, the seam at +-pi, and both zeros
EDGE_ANGLES = (0.0, -0.0, 3e-9, -7e-9, 1e-15, np.pi, -np.pi,
               np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 1.3, -2.9)


def _poses(seed):
    rng = np.random.default_rng(seed)
    xy = rng.normal(size=(len(EDGE_ANGLES), 2))
    xy[0] = (-0.0, 0.0)
    return np.column_stack([xy, EDGE_ANGLES])


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


SE2_MAPS = {
    "compose": lambda a, b: se2.compose(a, b),
    "inverse": lambda a, b: se2.inverse(a),
    "exp": lambda a, b: se2.exp(a),
    "log": lambda a, b: se2.log(a),
    "act": lambda a, b: se2.act(a, b[..., :2]),
    "adjoint": lambda a, b: se2.adjoint(a),
    "right_jacobian": lambda a, b: se2.right_jacobian(a),
    "right_jacobian_inv": lambda a, b: se2.right_jacobian_inv(a),
    "rot": lambda a, b: se2.rot(a[..., 2]),
}


@pytest.mark.parametrize("name", sorted(SE2_MAPS))
def test_one_pose_has_the_bits_of_its_stack_row(name):
    # a lone pose runs the scalar path, a stack the array path: every row
    # of the stack must be the lone result bit for bit
    f = SE2_MAPS[name]
    a, b = _poses(1), _poses(2)
    stacked = f(a, b)
    for k in range(len(a)):
        assert _bits(f(a[k], b[k])) == _bits(stacked[k]), (name, EDGE_ANGLES[k])


def _states(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(EDGE_ANGLES), QUAD.nq + QUAD.nv))
    x[:, 2] = EDGE_ANGLES
    return x


STATE_MAPS = {
    "integrate_q": lambda m, a, b: mod.integrate_q(m, a[..., :m.nq], b[..., :m.nv]),
    "difference_q": lambda m, a, b: mod.difference_q(m, a[..., :m.nq], b[..., :m.nq]),
    "integrate": lambda m, a, b: mod.integrate(m, a, np.concatenate(
        [b[..., :m.nv], b[..., m.nq:]], -1)),
    "difference": lambda m, a, b: mod.difference(m, a, b),
    "ddifference_q": lambda m, a, b: mod.ddifference_q_at(
        m, mod.difference_q(m, a[..., :m.nq], b[..., :m.nq])),
    "dintegrate_q": lambda m, a, b: np.stack(mod.dintegrate_q(m, b[..., :m.nv]), -3),
}


@pytest.mark.parametrize("name", sorted(STATE_MAPS))
def test_one_state_has_the_bits_of_its_stack_row(name):
    f = STATE_MAPS[name]
    a, b = _states(3), _states(4)
    stacked = f(QUAD, a, b)
    for k in range(len(a)):
        assert _bits(f(QUAD, a[k], b[k])) == _bits(stacked[k]), (name, EDGE_ANGLES[k])


# ------------------------------------ the float path of one pose, at scale

def _random_poses(seed, n=10_000):
    """``n`` poses and tangents: a quarter with angles in the series branch
    (|theta| < 1e-8), a tenth at and next to +-pi, zeros of both signs in
    every component, the rest spread over +-4."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-4.0, 4.0, size=(n, 3))
    p[: n // 4, 2] = rng.uniform(-1e-8, 1e-8, n // 4)
    seam = np.array([np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0),
                     np.nextafter(-np.pi, 0.0), np.nextafter(-np.pi, -4.0)])
    p[n // 4: n // 4 + n // 10, 2] = rng.choice(seam, n // 10)
    zeros = rng.random(size=p.shape) < 0.05
    p[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    return p


# (one pose, a stack): one pose of a state map runs the float path inside
# ``model``; the SE(2) maps compare the float path's tuple functions
FLOAT_PATH_MAPS = {
    "compose": (lambda a, b: se2._compose1(a[:3].tolist(), b[:3].tolist()),
                lambda a, b: se2.compose(a, b)),
    "inverse": (lambda a, b: se2._inverse1(*a[:3].tolist()), lambda a, b: se2.inverse(a)),
    "exp": (lambda a, b: se2._exp1(*a[:3].tolist()), lambda a, b: se2.exp(a)),
    "log": (lambda a, b: se2._log1(*a[:3].tolist()), lambda a, b: se2.log(a)),
    "wrap": (lambda a, b: se2._wrap1(float(a[2])), lambda a, b: se2.wrap_angle(a[..., 2])),
    "integrate_q": 2 * (lambda a, b: mod.integrate_q(QUAD, a, b),),
    "difference_q": 2 * (lambda a, b: mod.difference_q(QUAD, a, b),),
    "integrate": 2 * (lambda a, b: mod.integrate(QUAD, np.concatenate([a, b], -1),
                                                 np.concatenate([b, a], -1)),),
    "difference": 2 * (lambda a, b: mod.difference(QUAD, np.concatenate([a, b], -1),
                                                   np.concatenate([b, a], -1)),),
}


@pytest.mark.parametrize("name", sorted(FLOAT_PATH_MAPS))
def test_the_float_path_has_the_bits_of_the_stack_on_10000_poses(name):
    # one pose runs on Python floats, a stack on arrays.  The one operation
    # whose bits differ between them is the cube in the series branch: on
    # the development host (numpy 2.4, x86-64) an array's ** and a float's
    # ** (C pow) differ on 2,711 of 100,000 uniform angles in +-1e-8.  The
    # sum 0.5 theta - theta^3 / 24 absorbs that difference, because the cube
    # lies far below the sum's rounding; this pins it, with the seam at
    # +-pi and zeros of both signs, where wrap_angle's % and its comparison
    # decide the bits
    a, b = _random_poses(5), _random_poses(6)
    if name in ("integrate_q", "difference_q", "integrate", "difference"):
        rng = np.random.default_rng(7)
        joints = rng.uniform(-2.0, 2.0, size=(len(a), QUAD.nq - 3))
        a, b = np.concatenate([a, joints], -1), np.concatenate([b, -joints], -1)
    one, stack = FLOAT_PATH_MAPS[name]
    lone = np.array([one(a[k], b[k]) for k in range(len(a))])
    assert lone.tobytes() == stack(a, b).tobytes(), name
