import numpy as np
import pytest

from leggedmpc import _kernels
from leggedmpc import contact as ct
from leggedmpc import dynamics, presets
from leggedmpc import model as mod
from leggedmpc.errors import RankDeficientContacts

from helpers import random_state, ref_rnea, single_body, solved_derivatives, straight_legs


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


def dense_kkt(model, q, v, u, contacts):
    """Independent oracle: the full saddle-point system K [vdot; -lam] = rhs."""
    mb = dynamics.multibody(model, q, v)
    M, h = mb.M, mb.h
    tau_b = ct.actuation(model, u) - h
    J = ct.contact_jacobian_stack(model, q, contacts.frames)
    _, _, vel, bias = dynamics.frame_motion(model, mb, contacts.frames)

    # Baumgarte velocity gain 2*zeta*omega, zeta = 1 and omega = 20 rad/s
    a_C = bias + 2.0 * 1.0 * 20.0 * vel.ravel()
    nv, nf = model.nv, contacts.nf
    K = np.zeros((nv + nf, nv + nf))
    K[:nv, :nv] = M
    K[:nv, nv:] = J.T
    K[nv:, :nv] = J
    return K, np.concatenate([tau_b, -a_C])


def dense_kkt_solve(model, q, v, u, contacts):
    sol = np.linalg.solve(*dense_kkt(model, q, v, u, contacts))
    return sol[:model.nv], -sol[model.nv:]


# ------------------------------------------------------------- forward solve

def test_matches_dense_kkt(quad):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_state(quad, rng, spread=0.2)
        q, v = x[: quad.nq], x[quad.nq:]
        u = rng.normal(size=quad.nu)
        contacts = ct.ContactSet(frames=(0, 1, 2, 3))
        sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
        vd_o, lam_o = dense_kkt_solve(quad, q, v, u, contacts)
        assert np.abs(sol.vdot - vd_o).max() < 1e-8
        assert np.abs(sol.forces - lam_o).max() < 1e-8
        K, rhs = dense_kkt(quad, q, v, u, contacts)
        assert np.abs(K @ np.concatenate([sol.vdot, -sol.forces]) - rhs).max() < 1e-9


def test_resting_box_normal_force():
    sb = single_body(mass=4.0, inertia=0.3)
    contacts = ct.ContactSet(frames=(0,))
    sol = ct.contact_forward_dynamics(sb, np.zeros(3), np.zeros(3), np.zeros(0), contacts)
    assert np.abs(sol.vdot).max() < 1e-10
    assert np.allclose(sol.forces, [0.0, 4.0 * 9.81], atol=1e-10)


def test_no_contacts_free_dynamics(quad):
    rng = np.random.default_rng(1)
    x = random_state(quad, rng)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    sol = ct.contact_forward_dynamics(quad, q, v, u, ct.ContactSet())
    mb = dynamics.multibody(quad, q, v)
    M, h = mb.M, mb.h
    assert np.allclose(sol.vdot, np.linalg.solve(M, ct.actuation(quad, u) - h), atol=1e-10)
    assert sol.forces.size == 0


def test_inverse_dynamics_roundtrip(quad):
    # inverse dynamics at the constrained solution reproduces the applied
    # actuation
    rng = np.random.default_rng(2)
    x = random_state(quad, rng, spread=0.1)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
    tau = ref_rnea(quad, q, v, sol.vdot,
                   dict(zip(contacts.frames, sol.forces.reshape(-1, 2))))
    assert np.abs(tau - ct.actuation(quad, u)).max() < 1e-9


def test_rank_deficient_contacts_raises(quad):
    q = presets.nominal_configuration(quad)
    # duplicating a frame makes the contact-space inertia exactly singular
    contacts = ct.ContactSet(frames=(0, 0))
    with pytest.raises(RankDeficientContacts):
        ct.contact_forward_dynamics(quad, q, np.zeros(quad.nv), np.zeros(quad.nu), contacts)


def test_singular_row_of_a_stack_is_flagged_alone(quad):
    q = np.tile(presets.nominal_configuration(quad), (3, 1))
    # the middle state pins one frame twice: its singular contact set
    # raises for the whole stack
    contacts = ct.ContactSet(frames=np.array([[0, 3], [1, 1], [1, 2]]))
    with pytest.raises(RankDeficientContacts):
        ct.contact_forward_dynamics(quad, q, np.zeros((3, quad.nv)),
                                    np.zeros((3, quad.nu)), contacts)


def test_straight_legs_fail_the_float_check_alone_and_their_row_of_a_stack(quad):
    # one system takes the condition test on floats, a stack on arrays: the
    # singular stance raises alone and inside a stack
    stance = ct.ContactSet(frames=(0, 1, 2, 3))
    q, v = np.split(straight_legs(quad), [quad.nq])
    with pytest.raises(RankDeficientContacts):
        ct.contact_forward_dynamics(quad, q, v, np.zeros(quad.nu), stance)
    nominal = presets.nominal_configuration(quad)
    qs = np.array([nominal, q, nominal])
    with pytest.raises(RankDeficientContacts):
        ct.contact_forward_dynamics(quad, qs, np.zeros((3, quad.nv)), np.zeros((3, quad.nu)),
                                    ct.ContactSet(frames=np.tile(stance.frames, (3, 1))))
    # a regular stance passes both checks with the bits of its row
    alone = ct.contact_forward_dynamics(quad, nominal, np.zeros(quad.nv),
                                        np.zeros(quad.nu), stance)
    rows = ct.contact_forward_dynamics(quad, qs[[0, 2]], np.zeros((2, quad.nv)),
                                       np.zeros((2, quad.nu)),
                                       ct.ContactSet(frames=np.tile(stance.frames, (2, 1))))
    assert alone.forces.tobytes() == rows.forces[1].tobytes()
    assert alone.vdot.tobytes() == rows.vdot[0].tobytes()


# ---------------------------------------------------------------- prediction

def test_predict_rows_match_each_row_alone(quad):
    rng = np.random.default_rng(11)
    xs = np.array([random_state(quad, rng, spread=0.1) for _ in range(3)])
    us = rng.normal(size=(3, quad.nu))
    hs = np.array([2.5e-3, 2e-3, 1e-3])
    frames = np.array([[0, 3], [1, 2], [0, 1]])
    stacked = ct.ContactSet(frames=frames)
    sols, states = ct.predict(quad, xs, us, stacked, hs, 3)
    assert len(sols) == len(states) == 3
    for b in range(3):
        alone = ct.ContactSet(frames=tuple(frames[b]))
        sols_b, states_b = ct.predict(quad, xs[b], us[b], alone, hs[b], 3)
        for k in range(3):
            assert np.array_equal(states[k][b], states_b[k])
            assert np.array_equal(sols[k].vdot[b], sols_b[k].vdot)
            assert np.array_equal(sols[k].forces[b], sols_b[k].forces)


# ------------------------------------------------------------------ impulse

def test_impulse_point_mass_momentum():
    sb = single_body(mass=2.0, inertia=0.1)
    v_minus = np.array([0.0, -3.0, 0.0])
    sol = ct.impulse_dynamics(sb, np.zeros(3), v_minus, ct.ContactSet(frames=(0,)))
    assert np.allclose(sol.impulses, [0.0, 2.0 * 3.0], atol=1e-12)
    assert np.allclose(sol.v_plus, np.zeros(3), atol=1e-12)


def test_impulse_restitution_sign(quad):
    # inelastic: the contact points come to rest, J v+ = 0
    rng = np.random.default_rng(3)
    q = presets.nominal_configuration(quad)
    v = rng.normal(size=quad.nv)
    contacts = ct.ContactSet(frames=(0, 2))
    J = ct.contact_jacobian_stack(quad, q, contacts.frames)
    M = dynamics.multibody(quad, q, v).M
    sol = ct.impulse_dynamics(quad, q, v, contacts)
    assert np.abs(J @ sol.v_plus).max() < 1e-9
    assert np.abs(M @ (sol.v_plus - v) - J.T @ sol.impulses).max() < 1e-9


def test_impulse_energy_non_increasing(quad):
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = random_state(quad, rng, spread=0.4)
        q, v = x[: quad.nq], x[quad.nq:]
        M = dynamics.multibody(quad, q, v).M
        sol = ct.impulse_dynamics(quad, q, v, ct.ContactSet(frames=(1, 3)))
        ke_minus = 0.5 * v @ M @ v
        ke_plus = 0.5 * sol.v_plus @ M @ sol.v_plus
        assert ke_plus <= ke_minus + 1e-10


def test_impulse_configuration_unchanged(quad):
    # impulse maps velocities only; caller keeps q, which the API reflects by
    # not returning any configuration at all
    q = presets.nominal_configuration(quad)
    v = np.ones(quad.nv)
    sol = ct.impulse_dynamics(quad, q, v, ct.ContactSet(frames=(0,)))
    assert sol.v_plus.shape == (quad.nv,)
    assert not hasattr(sol, "q_plus")


# -------------------------------------------------------------- derivatives

def fd_dynamics(model, q, v, u, contacts, eps=1e-6):
    nv, nu = model.nv, model.nu
    nf = contacts.nf

    def eval_at(dq, dv, du):
        qq = mod.integrate_q(model, q, dq)
        sol = ct.contact_forward_dynamics(model, qq, v + dv, u + du, contacts)
        return sol.vdot, sol.forces

    dvdot_dx = np.empty((nv, 2 * nv))
    dlam_dx = np.empty((nf, 2 * nv))
    z = np.zeros(nv)
    zu = np.zeros(nu)
    for i in range(nv):
        d = np.zeros(nv)
        d[i] = eps
        vp, lp = eval_at(d, z, zu)
        vm, lm = eval_at(-d, z, zu)
        dvdot_dx[:, i] = (vp - vm) / (2 * eps)
        dlam_dx[:, i] = (lp - lm) / (2 * eps)
        vp, lp = eval_at(z, d, zu)
        vm, lm = eval_at(z, -d, zu)
        dvdot_dx[:, nv + i] = (vp - vm) / (2 * eps)
        dlam_dx[:, nv + i] = (lp - lm) / (2 * eps)
    dvdot_du = np.empty((nv, nu))
    dlam_du = np.empty((nf, nu))
    for i in range(nu):
        d = np.zeros(nu)
        d[i] = eps
        vp, lp = eval_at(z, z, d)
        vm, lm = eval_at(z, z, -d)
        dvdot_du[:, i] = (vp - vm) / (2 * eps)
        dlam_du[:, i] = (lp - lm) / (2 * eps)
    return dvdot_dx, dvdot_du, dlam_dx, dlam_du


def _assert_close(a, b, tol):
    scale = max(1.0, np.abs(b).max())
    assert np.abs(a - b).max() / scale < tol


def test_contact_derivatives_match_fd(quad):
    rng = np.random.default_rng(5)
    for trial in range(3):
        x = random_state(quad, rng, spread=0.15)
        q, v = x[: quad.nq], x[quad.nq:]
        u = rng.normal(size=quad.nu)
        contacts = ct.ContactSet(frames=(0, 1, 2, 3))
        der = solved_derivatives(quad, q, v, u, contacts)
        fd = fd_dynamics(quad, q, v, u, contacts)
        _assert_close(der.dvdot_dx, fd[0], 1e-4)
        _assert_close(der.dvdot_du, fd[1], 1e-4)
        _assert_close(der.dforces_dx, fd[2], 1e-4)
        _assert_close(der.dforces_du, fd[3], 1e-4)


def test_contact_derivatives_free_match_fd(quad):
    rng = np.random.default_rng(6)
    x = random_state(quad, rng, spread=0.3)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    contacts = ct.ContactSet()
    der = solved_derivatives(quad, q, v, u, contacts)
    fd = fd_dynamics(quad, q, v, u, contacts)
    _assert_close(der.dvdot_dx, fd[0], 1e-4)
    _assert_close(der.dvdot_du, fd[1], 1e-4)


def test_control_force_sensitivity_closed_form(quad):
    # dlam/du = -Mhat^-1 J M^-1 S exactly
    q = presets.nominal_configuration(quad)
    v = np.zeros(quad.nv)
    u = np.zeros(quad.nu)
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
    der = solved_derivatives(quad, q, v, u, contacts)
    M, J = sol.mb.M, sol.J
    S = np.zeros((quad.nv, quad.nu))
    S[3:, :] = np.eye(quad.nu)
    Mhat = J @ np.linalg.solve(M, J.T)
    expected = -np.linalg.solve(Mhat, J @ np.linalg.solve(M, S))
    assert np.abs(der.dforces_du - expected).max() < 1e-9


def test_impulse_derivatives_match_fd(quad):
    rng = np.random.default_rng(7)
    for _ in range(2):
        x = random_state(quad, rng, spread=0.2)
        q, v = x[: quad.nq], x[quad.nq:]
        contacts = ct.ContactSet(frames=(0, 3))
        der = solved_derivatives(quad, q, v, None, contacts)
        eps = 1e-6
        nv = quad.nv
        fd_v = np.empty((nv, 2 * nv))
        fd_l = np.empty((contacts.nf, 2 * nv))
        for i in range(nv):
            d = np.zeros(nv)
            d[i] = eps
            sp = ct.impulse_dynamics(quad, mod.integrate_q(quad, q, d), v, contacts)
            sm = ct.impulse_dynamics(quad, mod.integrate_q(quad, q, -d), v, contacts)
            fd_v[:, i] = (sp.v_plus - sm.v_plus) / (2 * eps)
            fd_l[:, i] = (sp.impulses - sm.impulses) / (2 * eps)
            sp = ct.impulse_dynamics(quad, q, v + d, contacts)
            sm = ct.impulse_dynamics(quad, q, v - d, contacts)
            fd_v[:, nv + i] = (sp.v_plus - sm.v_plus) / (2 * eps)
            fd_l[:, nv + i] = (sp.impulses - sm.impulses) / (2 * eps)
        _assert_close(der.dvdot_dx, fd_v, 1e-4)
        _assert_close(der.dforces_dx, fd_l, 1e-4)
        assert der.dvdot_du.shape[1] == 0


# ------------------------------------------------- the kernels the solves call

def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
def test_bound_kernels_have_the_bits_of_np_linalg(lead):
    rng = np.random.default_rng(8)
    A = rng.normal(size=lead + (11, 11))
    M = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(11)
    B = rng.normal(size=lead + (11, 9))
    assert _bits(_kernels.solve(M, B)) == _bits(np.linalg.solve(M, B))
    assert _bits(_kernels.eigvalsh(M)) == _bits(np.linalg.eigvalsh(M))
    assert _bits(_kernels.inv(M)) == _bits(np.linalg.inv(M))
    lo, hi = -np.ones(9), np.zeros(9)
    assert _bits(_kernels.clip(B, lo, hi)) == _bits(np.clip(B, lo, hi))
    if lead:
        # a system alone gives the bits of its row of a stack
        row = (0,) * len(lead)
        assert _bits(_kernels.solve(M[row], B[row])) == _bits(_kernels.solve(M, B)[row])
        assert _bits(_kernels.eigvalsh(M[row])) == _bits(_kernels.eigvalsh(M)[row])


def test_bound_kernels_pass_nan_through():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(2, 6, 6))
    M = A @ A.swapaxes(-1, -2) + np.eye(6)
    B = rng.normal(size=(2, 6, 3))
    M[1, 2, 3] = M[1, 3, 2] = np.nan
    B[0, 4, 1] = np.nan
    # the row without NaN keeps its bits; NaN stays NaN, as in np.linalg
    assert _bits(_kernels.solve(M, B)) == _bits(np.linalg.solve(M, B))
    assert np.isnan(_kernels.solve(M, B)[1]).all()
    assert _bits(_kernels.inv(M)) == _bits(np.linalg.inv(M))
    # where np.linalg.eigvalsh raises LinAlgError, the kernel returns NaN
    # (``_kkt_forward`` masks a non-finite system before it)
    with np.errstate(invalid="ignore"):
        eig = _kernels.eigvalsh(M)
    assert np.isnan(eig[1]).all()
    assert _bits(eig[0]) == _bits(np.linalg.eigvalsh(M[0]))
    # a zero bound clips to 0.0, not -0.0
    assert _bits(_kernels.clip(np.array([-1.0, 0.5]), np.zeros(2), np.zeros(2))) == \
        _bits(np.zeros(2))


def test_impulse_reads_the_bits_of_the_multibody_pass(quad):
    # the impulse takes kinematics, M and J alone; they are the multibody
    # pass's and the frame gather's, bit for bit
    rng = np.random.default_rng(10)
    x = np.array([random_state(quad, rng, spread=0.2) for _ in range(3)])
    q, v = x[:, :quad.nq], x[:, quad.nq:]
    frames = np.array([[0, 3], [1, 2], [0, 3]])
    for qq, vv, ff in ((q, v, frames), (q[1], v[1], tuple(frames[1]))):
        sol = ct.impulse_dynamics(quad, qq, vv, ct.ContactSet(frames=ff))
        mb = dynamics.multibody(quad, qq, vv)
        pos, J, _, _ = dynamics.frame_motion(quad, mb, ff)
        assert _bits(sol.M) == _bits(mb.M)
        assert _bits(sol.J) == _bits(J)
        assert [_bits(getattr(sol.kin, f)) for f in ("pose", "X", "B", "R")] == \
            [_bits(getattr(mb.kin, f)) for f in ("pose", "X", "B", "R")]
        assert [_bits(a) for a in dynamics.frame_jacobian(quad, sol.kin, ff)] == \
            [_bits(pos), _bits(J)]
        assert _bits(ct.contact_jacobian_stack(quad, qq, ff)) == _bits(J)
    lone = ct.impulse_dynamics(quad, q[1], v[1], ct.ContactSet(frames=(1, 2)))
    stacked = ct.impulse_dynamics(quad, q, v, ct.ContactSet(frames=frames))
    assert _bits(lone.v_plus) == _bits(stacked.v_plus[1])
    assert _bits(lone.impulses) == _bits(stacked.impulses[1])
